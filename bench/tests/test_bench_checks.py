"""The benchmark's own checks on tiny cases: each accepts the program's output
and rejects a perturbed copy of it.

    python3 -m pytest bench/tests -q
"""

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import centerwalk as cw  # noqa: E402
from centerwalk.serialization import canonical_json_bytes  # noqa: E402
import oracles as orc  # noqa: E402
import workloads as wl  # noqa: E402


def bump(n):
    return n + 1


def first_atom(payload_law):
    return payload_law[2][0]


CASES = {
    "z-centered": (
        lambda tmp: wl.z_walk_op("z", wl.Z_GENS, 8, lambda x: (abs(x) + 1) // 2, Fraction(1, 2), 4),
        lambda p: first_atom(p["laws"][5]).__setitem__(1, bump(first_atom(p["laws"][5])[1])),
    ),
    "z-escape": (
        lambda tmp: wl.z_walk_op("z", wl.Z_GENS, 8, lambda x: (abs(x) + 1) // 2, Fraction(1, 2), 4),
        lambda p: p["escape"]["p"][0].__setitem__(1, str(Fraction(p["escape"]["p"][0][1]) + Fraction(1, 3 ** 8))),
    ),
    "z-fit": (
        lambda tmp: wl.z_walk_op("z", wl.DRIFT_GENS, 8, abs, Fraction(1, 5), 4),
        lambda p: p["fit"].__setitem__("c_star", p["fit"]["c_star"] * 1.001),
    ),
    "z2": (
        lambda tmp: wl.z2_op(6, 3),
        lambda p: first_atom(p["laws"][6]).__setitem__(1, bump(first_atom(p["laws"][6])[1])),
    ),
    "heisenberg": (
        lambda tmp: wl.group_law_op("h", cw.Heisenberg(), wl.H_GENS, 5, orc.HeisenbergMatrices(), 3),
        lambda p: p["small"][3][2][0].__setitem__(1, bump(p["small"][3][2][0][1])),
    ),
    "bs": (
        lambda tmp: wl.group_law_op("bs", cw.BaumslagSolitar(2), wl.BS_GENS, 5, orc.AffineBS(2), 3),
        lambda p: p["totals"][4].__setitem__(2, bump(p["totals"][4][2])),
    ),
    "wreath": (
        lambda tmp: wl.group_law_op("wr", cw.WreathZZ(), wl.WR_GENS, 4, orc.Lamplighter(), 3),
        lambda p: p["small"][2][2].pop(),
    ),
    "f2": (
        lambda tmp: wl.f2_law_op(5, 3),
        lambda p: p["spheres"][4][2][1].__setitem__(2, p["spheres"][4][2][1][2] - 1),
    ),
    "f2-entropy": (
        lambda tmp: wl.f2_entropy_op(4, 50, 9),
        lambda p: p.__setitem__("value", p["value"] + 1e-9),
    ),
    "volumes": (
        lambda tmp: wl.volumes_op(3, 3),
        lambda p: p["f2"].__setitem__(2, bump(p["f2"][2])),
    ),
    "cli-evolve": (
        lambda tmp: wl.cli_evolve_op(4, str(tmp / "evolve.json")),
        lambda p: p["final"].__setitem__("[0, 0]", "1/4"),
    ),
    "wreath-sample": (
        lambda tmp: wl.wreath_sample_op(5, 20, 3),
        lambda p: p["endpoints"][0].__setitem__(0, p["endpoints"][0][0] + 2),
    ),
    "speed-z2": (
        lambda tmp: wl.speed_op("s", cw.IntegerLattice(2), wl.Z2_GENS, orc.Lattice(2), (20, 100), 4,
                                lambda x: abs(x[0]) + abs(x[1]), "exact", lambda v: 0 < v <= 0.5),
        lambda p: p.__setitem__("value", p["value"] + 1e-6),
    ),
    "cli-speed-f2": (
        lambda tmp: wl.cli_speed_f2_op((64, 256), 5, str(tmp / "speed.json")),
        lambda p: p.__setitem__("speed", p["speed"] + 1e-9),
    ),
    "entropy-z": (
        lambda tmp: wl.entropy_z_op((4, 6), 100, (1, 2)),
        lambda p: p["estimates"][1].__setitem__("value", p["estimates"][1]["value"] * (1 + 1e-9)),
    ),
    "witness-z2": (
        lambda tmp: wl.witness_z2_op(wl.Z2_GENS),
        lambda p: p.__setitem__("sigma", [1, 1, 2, 3]),
    ),
    "cli-witness-heisenberg": (
        lambda tmp: wl.cli_witness_heisenberg_op(wl.H_GENS, str(tmp / "c1.json")),
        lambda p: p["witness"].__setitem__("sigma", [1, 2, 3, 4]),  # the commutator [a, b]
    ),
    "f2-refute-n1": (
        lambda tmp: wl.f2_refute_n1_op(),
        lambda p: p.__setitem__("free_sums", [1, 0]),
    ),
    "f2-refute-n2": (
        lambda tmp: wl.f2_refute_n2_op(2000),
        lambda p: p.__setitem__("nodes", 2000),
    ),
    "zmod-deep-search": (
        lambda tmp: wl.zmod_deep_op(7),
        lambda p: p["sigma"].__setitem__(0, 2),
    ),
    "f2-reduce": (
        lambda tmp: wl.f2_reduce_op([(1, 2, 3, 4, 5, 6), (6, 5, 4, 3, 2, 1)]),
        lambda p: p["runs"][1][1].append(1),
    ),
    "z3-centering": (
        lambda tmp: wl.lattice_centering_op("z3", 3, wl.Z3_GENS, 5),
        lambda p: p.__setitem__("cycles", [c for c in p["cycles"] if c[0][0] != [0, 0, 0]]),
    ),
    "zwalk-centering": (
        lambda tmp: wl.lattice_centering_op("zw", 1, wl.Z_GENS, 10),
        lambda p: p.__setitem__("max_abs_residual", "1/3"),
    ),
    "decompositions": (
        lambda tmp: wl.decompositions_op(wl.random_reversible_rows(__import__("random").Random(1), 12),
                                         wl.random_circulation(__import__("random").Random(2), 8, 6), 3),
        lambda p: p["circulation"][0].__setitem__(1, str(Fraction(p["circulation"][0][1]) * 2)),
    ),
    "sector": (
        lambda tmp: wl.sector_op({"srw": (8, 10), "rotation": 10, "zwalk": (10, 10)}, (1, 2, 3)),
        lambda p: p.__setitem__("reversible", 1.001),
    ),
    "green-rotation": (
        lambda tmp: wl.green_rotation_op(20, 1),
        lambda p: p["g"].__setitem__("0", p["g"]["0"] * (1 + 1e-6)),
    ),
    "green-z2": (
        lambda tmp: wl.green_lattice_op("green-z2", 2, wl.Z2_TRIPOD, 6, 3, 10, 1),
        lambda p: p["g0"].__setitem__("[0, 0]", p["g0"]["[0, 0]"] * (1 - 1e-6)),
    ),
    "green-partial-poincare": (
        lambda tmp: wl.green_partial_poincare_op(20, 8, 2, range(2, 9)),
        lambda p: p.__setitem__("green_partial", str(Fraction(p["green_partial"]) + Fraction(1, 3 ** 8))),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_accepts_output_and_rejects_perturbation(case, tmp_path):
    make, perturb = CASES[case]
    op = make(tmp_path)
    payload = json.loads(canonical_json_bytes(op.summarize(op.run())))
    assert op.check(payload) == []
    bad = copy.deepcopy(payload)
    perturb(bad)
    assert bad != payload
    assert op.check(bad), f"{case}: the perturbed payload passed its check"


def test_replay_matches_the_program_stream():
    paths = cw.mc_sample(cw.WreathZZ(), wl.WR_PAIR, t=30, n_paths=4, seed=11)
    own = orc.Lamplighter()
    assert [own.from_program(p[-1]) for p in paths] == orc.replay_endpoints(own, wl.WR_PAIR, 30, 4, 11)


def test_digest_input_is_canonical():
    assert canonical_json_bytes({"b": [1, (2, 3)], "a": "1/2"}) == json.dumps(
        {"a": "1/2", "b": [1, [2, 3]]}, separators=(",", ":")).encode()
