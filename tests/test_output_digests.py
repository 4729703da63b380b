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

The CLI dumps YAML with libyaml's emitter where PyYAML has it; two more
tests check that PyYAML's own emitter gives the same text on every case,
and that the CLI falls back to it and writes the same files without
libyaml.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import modesmc.cli
from modesmc.cli import main

TESTS = Path(__file__).resolve().parent

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
    "smc-gauss-unrestricted": (
        "run-smc", ["--threads", "2"],
        {"problem": _GAUSS,
         "algorithm": {**_SMC, "restricted": False, "replicates": 2}},
    ),
    "smc-ising-threads": (
        "run-smc", ["--threads", "2"], {"problem": _ISING, "algorithm": _SMC},
    ),
    "smc-ising-unrestricted": (
        "run-smc", [],
        {"problem": _ISING,
         "algorithm": {**_SMC, "restricted": False, "replicates": 2}},
    ),
    # the theorem's N and t at gate 1's config, run on 16 level counts
    "smc-ising-paper-n": (
        "run-smc", [],
        {"problem": {**_ISING, "dimension": 15},
         "algorithm": {**_SMC, "particles": 26_100_000_000,
                       "mutation_steps": 638}},
    ),
    "pt-four-state": ("run-pt", [], {"problem": _FOUR, "algorithm": _PT}),
    "pt-ising": ("run-pt", [], {"problem": _ISING, "algorithm": _PT}),
    "st-four-state": ("run-st", [], {"problem": _FOUR, "algorithm": _ST}),
    "st-ising": ("run-st", [], {"problem": _ISING, "algorithm": _ST}),
    "bounds-four-state": ("bounds", [], {"problem": _FOUR}),
    "bounds-ising": ("bounds", [], {"problem": _ISING}),
    # the verify suite ignores its config; its exact restricted cell blocks
    # and warmness trace reach verify.csv
    "verify-quick": ("verify", ["--quick"], {}),
}

DIGESTS = {
    'smc-four-state': {
        'diagnostics.csv':
            '172fedabc3758d351d9ebd7748d91a5817be41e6f56a980e17a02df8cb6a7461',
        'summary.yaml':
            '5bd3997720a4ecf96af709a5b725c1d9dd40839d958bf56bbb71d16c6903b616',
    },
    'smc-gauss-replicates': {
        'replicate_000/diagnostics.csv':
            '3031660015aefa49349c875150049d0e7dbacc8aa046220118d893fab3b286f0',
        'replicate_001/diagnostics.csv':
            '217b666c1c8903f28e65f0646339fb6effeabc8414c6da78db4e47a2f1536423',
        'summary.yaml':
            '146e8184f0d18a240310bda889d58614dc51e464ea6cec3cf244db99c57e9b3b',
    },
    'smc-gauss-unrestricted': {
        'replicate_000/diagnostics.csv':
            '72d96ea42f6d0e47cc8b22a15065add655609e6ba9c9fdc8840f33249c339345',
        'replicate_001/diagnostics.csv':
            'ae8d124ef04b5f7386515ab50a6b598bed28ae59e465b869b46c1db04e906d67',
        'summary.yaml':
            'ae7d3738a4c0b595633905a6a3243b1839b3567fb770cb800b57dd13744b03f2',
    },
    'smc-ising-threads': {
        'diagnostics.csv':
            '23c81703d5c99cfae86a07cff19cce6c71636599069f19a7be9b2ccadc263a1a',
        'summary.yaml':
            '717f4772d72c6865288badf97a8d44aeb804ff28fe0159a87378da20cf0c60bc',
    },
    'smc-ising-unrestricted': {
        'replicate_000/diagnostics.csv':
            '1bab0f23919a21d43aaa9410155887b80673d929a2159b22b64a5b59e004df3a',
        'replicate_001/diagnostics.csv':
            '84240e12570536faed72014d4d39b1a1c394446cfd0f30e46d6e984b92df0535',
        'summary.yaml':
            '208caf6aa5629f63c61ecc8cf9e8b886d7f3061a8fcd9a6f22612ff99ffe3b85',
    },
    'smc-ising-paper-n': {
        'diagnostics.csv':
            '11aaf8bda4052768b378e2da6df76022ab3db6b84d77f69fd3e1e6bea514c161',
        'summary.yaml':
            'ec9791634a22ac55559d19c502a5170e023f9d27ccbdb2fd7c795189b1a8cc2b',
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
            '226cf92f750553b33665e43bad6c153815945a0cac1a8213ba0fafd7907445ec',
    },
    'st-ising': {
        'summary.yaml':
            '0b47491669da40d0b133004bba2af34a9a3ca12369d1accbe6fee8715805cf4d',
    },
    'bounds-four-state': {
        'bounds.yaml':
            '19504a2d5f254c0fddee4ceb22ca6c51be4f425f0ff567723cf727b8d761fa67',
    },
    'bounds-ising': {
        'bounds.yaml':
            'ecca0184b4672d5d9899a24e76964f14acb235111719e93107b60d78d775530b',
    },
    'verify-quick': {
        'verify.csv':
            'ff73ad4f4a50e0a48a4f4b17297bef98c8838c7e09d3cc4b1560e65d1cbe4c3c',
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


@pytest.mark.skipif(not hasattr(yaml, "CSafeDumper"),
                    reason="PyYAML built without libyaml")
@pytest.mark.parametrize("name", sorted(CASES))
def test_c_and_python_emitters_agree(name, tmp_path, monkeypatch):
    # every YAML the CLI dumps (config hash, summary.yaml, bounds.yaml and
    # the printed summary) reads the same from libyaml's emitter and
    # PyYAML's own
    dumped = []

    def both(data):
        texts = [yaml.dump(data, Dumper=d, sort_keys=True)
                 for d in (yaml.SafeDumper, yaml.CSafeDumper)]
        dumped.append(data)
        assert texts[0] == texts[1]
        return texts[0]

    monkeypatch.setattr(modesmc.cli, "_dump", both)
    run_case(name, tmp_path)
    assert dumped or name == "verify-quick"


_WITHOUT_LIBYAML = """
import json, sys
from pathlib import Path
import yaml
vars(yaml).pop("CSafeDumper", None)  # as where PyYAML lacks libyaml
import modesmc.cli
import test_output_digests as t
assert modesmc.cli._DUMPER is yaml.SafeDumper
tmp = Path(sys.argv[1])
out = {}
for name in t.CASES:
    (tmp / name).mkdir()
    out[name] = t.run_case(name, tmp / name)
print(json.dumps(out))
"""


def test_pure_python_emitter_writes_the_same_bytes(tmp_path):
    path = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_LIBYAML, str(tmp_path)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == DIGESTS


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
