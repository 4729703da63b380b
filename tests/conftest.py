import dataclasses

import numpy as np
import pytest

from modesmc import reference_four_state
from modesmc import rng as rngmod


@pytest.fixture(scope="session")
def space():
    return reference_four_state()


@pytest.fixture()
def gen():
    return rngmod.stream(20240, 0, rngmod.REPLICATE)


def four_state_enumeration():
    """Independent plain-python enumeration of the reference instance."""
    pi = [0.4, 0.1, 0.2, 0.3]
    betas = [0.25, 0.5, 0.75, 1.0]
    cells = [0, 0, 1, 1]
    masses = [[p**b for p in pi] for b in betas]
    zs = [sum(row) for row in masses]
    probs = [[mass / z for mass in row] for row, z in zip(masses, zs)]
    cell_probs = [
        [sum(p for p, c in zip(row, cells) if c == j) for j in (0, 1)] for row in probs
    ]
    return {
        "pi": pi,
        "betas": betas,
        "cells": cells,
        "zs": zs,
        "probs": probs,
        "cell_probs": cell_probs,
    }


@pytest.fixture(scope="session")
def oracle():
    return four_state_enumeration()


def assert_frequencies_close(counts, probs, n_se=4.0):
    """Every empirical frequency within n_se binomial standard errors."""
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    n = counts.sum()
    freq = counts / n
    se = np.sqrt(np.maximum(probs * (1 - probs), 1e-12) / n)
    assert np.all(np.abs(freq - probs) <= n_se * se + 1e-9), (freq, probs)


def same_bits(a, b) -> bool:
    """Equal dtype, shape and raw bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_run(a, b):
    """Two RunReports agree bit for bit.

    Compares the final states and cells, every StepDiagnostics field of
    every stage and log_z by dtype, shape and raw bytes, so a -0.0 against
    a +0.0 or two different NaNs count as a difference.
    """
    for name in ("final_states", "final_cells", "log_z"):
        assert same_bits(getattr(a, name), getattr(b, name)), name
    assert len(a.diagnostics) == len(b.diagnostics)
    for da, db in zip(a.diagnostics, b.diagnostics):
        for f in dataclasses.fields(da):
            x, y = getattr(da, f.name), getattr(db, f.name)
            assert same_bits(x, y), (da.stage, f.name)
