"""Every file the CLI writes, pinned by sha256 on a fixed matrix of small runs.

Each case runs ``main()`` in-process and hashes every file it writes under
its output directory. ``stage_seconds`` is wall-clock telemetry, so a
``summary.yaml`` is hashed as it reads with that key removed (re-dumped the
way the CLI dumps it); every other file is hashed as written.

The digests were recorded with numpy 2.4.6 (Python 3.11, x86-64); another
numpy may draw other bytes from the same seeds. A change that moves output
bytes on purpose records new digests here, printed by

    PYTHONPATH=src python tests/test_output_digests.py

and says in CHANGES.md which bytes moved and why.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import pytest
import yaml

from modesmc.cli import main

_SMC = {"method": "smc", "particles": 300, "mutation_steps": 4, "seed": 11}
_PT = {"method": "pt", "sweeps": 300, "seed": 12}
_ST = {"method": "st", "sweeps": 300, "seed": 13, "particles": 200,
       "mutation_steps": 4}
_FOUR = {"family": "four_state"}
_GAUSS = {"family": "gaussian_mixture", "dimension": 3}
_ISING = {"family": "ising", "dimension": 5, "alpha": 1.0}

# name -> (command, extra arguments, config)
CASES = {
    "smc-four-state": ("run-smc", [], {"problem": _FOUR, "algorithm": _SMC}),
    "smc-gauss-replicates": (
        "run-smc", [], {"problem": _GAUSS, "algorithm": {**_SMC, "replicates": 2}},
    ),
    "smc-ising-threads": (
        "run-smc", ["--threads", "2"], {"problem": _ISING, "algorithm": _SMC},
    ),
    "pt-four-state": ("run-pt", [], {"problem": _FOUR, "algorithm": _PT}),
    "pt-ising": ("run-pt", [], {"problem": _ISING, "algorithm": _PT}),
    "st-four-state": ("run-st", [], {"problem": _FOUR, "algorithm": _ST}),
    "st-ising": ("run-st", [], {"problem": _ISING, "algorithm": _ST}),
    "bounds-four-state": ("bounds", [], {"problem": _FOUR}),
    "bounds-ising": ("bounds", [], {"problem": _ISING}),
}

DIGESTS = {
    'smc-four-state': {
        'diagnostics.csv':
            '939aeaa06761435b30bda76ff337fbcab0f0c255ab9105125f7793cca4bed546',
        'summary.yaml':
            'e612c1a76e9a26f966b4f601df48294bbeacf92b26a1551d73b04b3239dd6be3',
    },
    'smc-gauss-replicates': {
        'replicate_000/diagnostics.csv':
            'fa0f14f82d56ef32cd8d0aad3301cd64a379670eac43a2fa74a0ecaba252c210',
        'replicate_001/diagnostics.csv':
            '2d8ee012c2f2e376b4496714152b210be526bc343ff3954443bd163b42aadd91',
        'summary.yaml':
            '2a09e5fb34d110dbcf0cf15acb7fd94c9754be3f2b031a3d746f0897ea301525',
    },
    'smc-ising-threads': {
        'diagnostics.csv':
            '82d2d9d00dd5320b699ea122bd75f35c92bbafd68bb27db241f79fb14fc825b9',
        'summary.yaml':
            '3370210a85f17bc4bee5c5838ebece5196159f2ce02990688acef72e51b7327d',
    },
    'pt-four-state': {
        'summary.yaml':
            '066e27576287926a707d10ffcfd0ef48ceef875db72f5ff0647e4fbd0fec7047',
    },
    'pt-ising': {
        'summary.yaml':
            '2d725467b323a1b7b8b222982d036f0bc69f517ed970877eddc9354020cd8409',
    },
    'st-four-state': {
        'summary.yaml':
            'f160a4ffb58cc6299a1a6cc5c6edccb55c9f7838d93d63a4a9a8207cd9730a67',
    },
    'st-ising': {
        'summary.yaml':
            'cc691217534c57c0253881c5fa08317ff7d951d803c5b2770cdeb16f145b964f',
    },
    'bounds-four-state': {
        'bounds.yaml':
            '19504a2d5f254c0fddee4ceb22ca6c51be4f425f0ff567723cf727b8d761fa67',
    },
    'bounds-ising': {
        'bounds.yaml':
            'ecca0184b4672d5d9899a24e76964f14acb235111719e93107b60d78d775530b',
    },
}


def _without_stage_seconds(node):
    if isinstance(node, dict):
        return {k: _without_stage_seconds(v) for k, v in node.items()
                if k != "stage_seconds"}
    if isinstance(node, list):
        return [_without_stage_seconds(v) for v in node]
    return node


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "summary.yaml":
        summary = _without_stage_seconds(yaml.safe_load(data))
        data = yaml.safe_dump(summary, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, tmp: Path) -> dict:
    """Run one case in tmp; relative path of every written file -> digest."""
    command, extra, cfg = CASES[name]
    path = tmp / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, *extra, "--config", str(path), "--out", str(out)])
    assert code == 0
    return {
        str(f.relative_to(out)): _digest(f)
        for f in sorted(out.rglob("*")) if f.is_file()
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_unchanged(name, tmp_path):
    assert run_case(name, tmp_path) == DIGESTS[name]


if __name__ == "__main__":  # print the DIGESTS table of this source tree
    import tempfile

    print("DIGESTS = {")
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            digests = run_case(name, Path(tmp))
        print(f"    {name!r}: {{")
        for rel, digest in digests.items():
            print(f"        {rel!r}:")
            print(f"            {digest!r},")
        print("    },")
    print("}")
    sys.exit(0)
