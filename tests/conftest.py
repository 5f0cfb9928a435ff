"""Shared fixtures: the walks every module is exercised against, and a hash-seed runner."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import centerwalk as cw


@pytest.fixture(scope="session")
def counting():
    return cw.Measure.counting()


@pytest.fixture(scope="session")
def rotation3():
    return cw.rotation_kernel(3)


@pytest.fixture(scope="session")
def rotation3_dec():
    return cw.CycleDecomposition(((cw.Cycle((0, 1, 2, 0)), Fraction(1)),))


def make_zwalk(radius):
    """The +1 (prob 2/3) / -2 (prob 1/3) walk on Z, materialized on a ball."""
    return cw.step_kernel({1: Fraction(2, 3), -2: Fraction(1, 3)}, radius=radius)


def make_zwalk_dec(kernel):
    """Translated 3-cycles (x, x+1, x+2, x), weight 1/3, clipped to the window."""
    entries = []
    for x in sorted(kernel.window):
        cyc = (x, x + 1, x + 2, x)
        if all(v in kernel.window for v in cyc):
            entries.append((cw.Cycle(cyc), Fraction(1, 3)))
    return cw.CycleDecomposition(tuple(entries))


@pytest.fixture(scope="session")
def zwalk():
    return make_zwalk(30)


@pytest.fixture(scope="session")
def zwalk_dec(zwalk):
    return make_zwalk_dec(zwalk)


@pytest.fixture(scope="session")
def srw():
    return cw.step_kernel({1: Fraction(1, 2), -1: Fraction(1, 2)}, radius=25)


def under_hash_seeds(args, cwd=None):
    """Run ``python args`` under PYTHONHASHSEED 0-3 with centerwalk importable; yield each finished process.

    String hashes differ under each seed, so any set or dict order that leaks
    into an output shows up as a difference between the four runs.
    """
    src = os.path.dirname(os.path.dirname(cw.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    for hash_seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=path)
        yield subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                             text=True, timeout=120)
