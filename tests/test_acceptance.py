"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Criteria 5, 7, 11 and 12 expose their payloads through cached builder
functions so the determinism criterion can recompute them byte-for-byte.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

import centerwalk as cw
from centerwalk.dirichlet_forms import random_test_function
from centerwalk.serialization import canonical_json_bytes

from conftest import make_zwalk, make_zwalk_dec

Z1 = cw.IntegerLattice(1)
Z2 = cw.IntegerLattice(2)
Z3 = cw.IntegerLattice(3)
F2 = cw.FreeGroup()
WR = cw.WreathZZ()
COUNTING = cw.Measure.counting()

Z_GENS = ((1,), (1,), (-2,))
DRIFT_GENS = ((1,), (1,), (-1,))
Z2_GENS = ((1, 0), (-1, 0), (0, 1), (0, -1))
Z3_GENS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))
F2_GENS = ((1,), (-1,), (2,), (-2,))

_PAYLOADS = {}


def report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail} ({elapsed:.2f}s, budget {budget}s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget: {elapsed:.1f}s"


def test_criterion_01_centering_identity_exact():
    started = time.monotonic()
    rot = cw.rotation_kernel(3)
    rot_dec = cw.CycleDecomposition(((cw.Cycle((0, 1, 2, 0)), Fraction(1)),))
    r1 = cw.verify_centering(rot, COUNTING, rot_dec)
    walk = make_zwalk(50)
    r2 = cw.verify_centering(walk, COUNTING, make_zwalk_dec(walk))
    srw = cw.step_kernel({1: Fraction(1, 2), -1: Fraction(1, 2)}, radius=50)
    r3 = cw.verify_centering(srw, COUNTING, cw.reversible_decomposition(srw, COUNTING))
    ok = all(r.valid and r.max_abs_residual == 0 for r in (r1, r2, r3))
    report(1, ok, "zero residuals on rotation, drift-free walk, reversible walk",
           time.monotonic() - started, 1)


def test_criterion_02_invariance_consequence():
    started = time.monotonic()
    fixtures = []
    rot = cw.rotation_kernel(3)
    fixtures.append((rot, cw.CycleDecomposition(((cw.Cycle((0, 1, 2, 0)), Fraction(1)),))))
    walk = make_zwalk(50)
    fixtures.append((walk, make_zwalk_dec(walk)))
    srw = cw.step_kernel({1: Fraction(1, 2), -1: Fraction(1, 2)}, radius=50)
    fixtures.append((srw, cw.reversible_decomposition(srw, COUNTING)))
    ok = True
    for kernel, dec in fixtures:
        assert cw.verify_centering(kernel, COUNTING, dec).valid
        rep = cw.invariance_check(kernel, COUNTING)
        ok = ok and rep.max_abs_residual == 0
    report(2, ok, "invariance residuals exactly zero on all centered fixtures",
           time.monotonic() - started, 1)


def test_criterion_03_cycle_form_identity():
    started = time.monotonic()
    import random

    kernel = make_zwalk(50)
    dec = make_zwalk_dec(kernel)
    rng = random.Random(303)
    inner = kernel.interior_vertices(dec.max_length + 1)
    worst = 0.0
    for _ in range(100):
        f = random_test_function(inner, rng)
        g = random_test_function(inner, rng)
        lhs = float(cw.dirichlet_form(kernel, COUNTING, f, g)
                    - cw.symmetrized_form(kernel, COUNTING, f, g))
        rhs = float(cw.antisymmetric_form_cycles(dec, f, g))
        worst = max(worst, abs(lhs - rhs))
    report(3, worst <= 1e-10, f"cycle identity gap {worst:.2e} <= 1e-10 over 100 pairs",
           time.monotonic() - started, 5)


def test_criterion_04_poincare_constants():
    started = time.monotonic()

    def eigen_oracle(k):
        form = np.zeros((k, k))
        for i in range(k):
            j = (i + 1) % k
            d = np.zeros(k)
            d[i] += 1
            d[j] -= 1
            form += np.outer(d, d)
        proj = np.eye(k) - np.ones((k, k)) / k
        eig = sorted(np.linalg.eigvalsh(proj @ form @ proj))
        return 1.0 / next(v for v in eig if v > 1e-9)

    gap = max(abs(cw.poincare_constant(k) - eigen_oracle(k)) for k in range(2, 65))
    spots = (
        abs(cw.poincare_constant(2) - 0.25) <= 1e-12
        and abs(cw.poincare_constant(3) - 1 / 3) <= 1e-12
        and abs(cw.poincare_constant(4) - 0.5) <= 1e-12
    )
    report(4, gap <= 1e-9 and spots,
           f"eigen-oracle gap {gap:.2e} <= 1e-9 for k=2..64; spot values hit",
           time.monotonic() - started, 5)


def payload_criterion_05():
    if "c5" not in _PAYLOADS:
        srw = cw.step_kernel({1: Fraction(1, 2), -1: Fraction(1, 2)}, radius=25)
        reversible = cw.sector_ratio(srw, COUNTING, trials=200, seed=3)
        rot = cw.rotation_kernel(3)
        rotation = cw.sector_ratio(rot, COUNTING, trials=200, seed=1)
        walk = make_zwalk(30)
        dec = make_zwalk_dec(walk)
        walk_a = cw.sector_ratio(walk, COUNTING, dec=dec, trials=300, seed=1)
        walk_b = cw.sector_ratio(walk, COUNTING, dec=dec, trials=300, seed=99)
        _PAYLOADS["c5"] = {
            "reversible": reversible,
            "rotation": rotation,
            "walk_seed1": walk_a,
            "walk_seed99": walk_b,
        }
    return _PAYLOADS["c5"]


def test_criterion_05_sector_condition():
    started = time.monotonic()
    p = payload_criterion_05()
    stable = abs(p["walk_seed1"] - p["walk_seed99"]) / max(p["walk_seed1"], p["walk_seed99"]) <= 0.05
    ok = (
        p["reversible"] <= 1 + 1e-9
        and math.isfinite(p["rotation"]) and p["rotation"] > 0
        and math.isfinite(p["walk_seed1"]) and stable
    )
    report(5, ok,
           f"reversible {p['reversible']:.6f} <= 1; rotation {p['rotation']:.4f}; "
           f"walk {p['walk_seed1']:.4f}/{p['walk_seed99']:.4f} stable",
           time.monotonic() - started, 30)


def _lattice_ball(radius):
    return set(cw.word_ball(Z3, Z3_GENS, radius))


def test_criterion_06_green_comparison():
    started = time.monotonic()
    rot = cw.rotation_kernel(3).with_killing(Fraction(1, 10))
    rot_dec = cw.CycleDecomposition(((cw.Cycle((0, 1, 2, 0)), Fraction(1)),))
    rep1 = cw.green_comparison(rot, COUNTING, rot_dec, ball={0, 1, 2},
                               trials=400, seed=5)
    kernel = cw.cayley_kernel(Z3, Z3_GENS, radius=10)
    witness = cw.abelian_c1(Z3, Z3_GENS)
    dec = cw.translated_cycle_decomposition(Z3, Z3_GENS, witness, ball_radius=10)
    rep2 = cw.green_comparison(kernel, COUNTING, dec, _lattice_ball(8),
                               trials=400, seed=5)
    ok = (rep1.holds_upper and rep1.holds_lower
          and rep2.holds_upper and rep2.holds_lower
          and len(rep2.interior) > 0)
    report(6, ok,
           f"rotation: both bounds hold (M={rep1.sector_m:.4f}); "
           f"3d ball: both bounds hold (M={rep2.sector_m:.4f}, {len(rep2.interior)} interior pts)",
           time.monotonic() - started, 60)


def _enumerate_z_walk(steps, t):
    counts = {}
    for path in itertools.product(steps, repeat=t):
        v = sum(path)
        counts[v] = counts.get(v, 0) + 1
    return counts


def _enumerate_z2_walk(t):
    steps = np.array(Z2_GENS, dtype=np.int16)
    pos = np.zeros((1, 2), dtype=np.int16)
    for _ in range(t):
        pos = (pos[:, None, :] + steps[None, :, :]).reshape(-1, 2)
    code = (pos[:, 0].astype(np.int64) + 64) * 1000 + (pos[:, 1].astype(np.int64) + 64)
    values, counts = np.unique(code, return_counts=True)
    out = {}
    for v, c in zip(values, counts):
        out[(int(v // 1000 - 64), int(v % 1000 - 64))] = int(c)
    return out


def payload_criterion_07():
    if "c7" not in _PAYLOADS:
        dists_c = cw.walk_distributions(Z1, Z_GENS, 64)
        table_c = cw.word_ball(Z1, Z_GENS, 64)
        c_centered = {
            t: cw.fit_cv_constant([d for d in dists_c if 1 <= d.t <= t], table_c).c_star
            for t in (16, 32, 64)
        }
        dists_2 = cw.walk_distributions(Z2, Z2_GENS, 64)
        c_z2 = {
            t: cw.fit_cv_constant([d for d in dists_2 if 1 <= d.t <= t],
                                  lambda x: abs(x[0]) + abs(x[1])).c_star
            for t in (16, 32, 64)
        }
        dists_d = cw.walk_distributions(Z1, DRIFT_GENS, 64)
        table_d = cw.word_ball(Z1, DRIFT_GENS, 64)
        c_drift = {
            t: cw.fit_cv_constant([d for d in dists_d if 1 <= d.t <= t], table_d).c_star
            for t in (16, 64)
        }
        # oracle cross-checks at t = 12: full path enumeration
        t = 12
        oracle_ok = True
        for gens, dists in ((Z_GENS, dists_c), (DRIFT_GENS, dists_d)):
            counts = _enumerate_z_walk(tuple(g[0] for g in gens), t)
            oracle_ok = oracle_ok and all(
                dists[t].prob((x,)) == Fraction(c, 3 ** t) for x, c in counts.items()
            ) and len(counts) == len(dists[t])
        counts2 = _enumerate_z2_walk(t)
        oracle_ok = oracle_ok and all(
            dists_2[t].prob(x) == Fraction(c, 4 ** t) for x, c in counts2.items()
        ) and len(counts2) == len(dists_2[t])
        _PAYLOADS["c7"] = {
            "centered": c_centered,
            "z2": c_z2,
            "drifted": c_drift,
            "oracle_ok": oracle_ok,
        }
    return _PAYLOADS["c7"]


def test_criterion_07_gaussian_bound_constants():
    started = time.monotonic()
    p = payload_criterion_07()
    ratio_c = max(p["centered"].values()) / min(p["centered"].values())
    ratio_2 = max(p["z2"].values()) / min(p["z2"].values())
    drift_ratio = p["drifted"][64] / p["drifted"][16]
    elapsed = time.monotonic() - started
    ok = p["oracle_ok"] and ratio_c <= 1.5 and ratio_2 <= 1.5 and drift_ratio >= 2
    report(7, ok,
           f"centered ratio {ratio_c:.3f}, Z^2 ratio {ratio_2:.3f} (<= 1.5), "
           f"oracles {'ok' if p['oracle_ok'] else 'BAD'}; "
           f"drifted C*(64)/C*(16) = {drift_ratio:.3f} (threshold >= 2 is not attainable "
           "at this horizon: the constant diverges but passes 2 only beyond T = 128)",
           elapsed, 60)


def test_criterion_08_diagonal_decay_refinement():
    started = time.monotonic()
    dists = cw.walk_distributions(Z1, Z_GENS, 64)
    sup1 = max(math.sqrt(d.t) * float(d.prob((0,))) for d in dists if d.t >= 1)
    dists2 = cw.walk_distributions(Z2, Z2_GENS, 64)
    sup2 = max(d.t * float(d.prob((0, 0))) for d in dists2 if d.t >= 1)
    ok = sup1 <= 1.0 and sup2 <= 1.0
    report(8, ok, f"sup sqrt(t) mu_t(0) = {sup1:.4f}, sup t mu_t(0) = {sup2:.4f} (both <= 1)",
           time.monotonic() - started, 30)


def test_criterion_09_escape_probability():
    started = time.monotonic()
    dists = cw.walk_distributions(Z1, Z_GENS, 64)
    table = cw.word_ball(Z1, Z_GENS, 64)
    centered = [float(cw.escape_probability(dists[t], table, Fraction(1, 2)))
                for t in (8, 16, 32, 64)]
    decreasing = all(a > b for a, b in zip(centered, centered[1:]))
    dists_d = cw.walk_distributions(Z1, DRIFT_GENS, 64)
    table_d = cw.word_ball(Z1, DRIFT_GENS, 64)
    drifted = [float(cw.escape_probability(dists_d[t], table_d, Fraction(1, 5)))
               for t in (8, 16, 32, 64)]
    stays = all(p >= 0.5 for p in drifted)
    report(9, decreasing and stays,
           f"centered tail {['%.2e' % p for p in centered]} strictly decreasing; "
           f"drifted tail min {min(drifted):.3f} >= 0.5",
           time.monotonic() - started, 30)


def test_criterion_10_condition_machinery():
    started = time.monotonic()
    res_z2 = cw.c1_search(Z2, Z2_GENS, n_max=1)
    h = cw.Heisenberg()
    h_gens = ((1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0))
    res_h = cw.c1_search(h, h_gens, n_max=1)
    ok = res_z2.found and res_z2.witness.n == 1 and res_h.found and res_h.witness.n == 1

    res_f2_1 = cw.c1_search(F2, cw.F2_SEQUENCE, n_max=1)
    ok = ok and res_f2_1.status == "not_found" and res_f2_1.n_checked == 1
    ok = ok and cw.brute_force_c1(F2, cw.F2_SEQUENCE, 1) is None  # all 720 orderings
    res_f2_2 = cw.c1_search(F2, cw.F2_SEQUENCE, n_max=2, node_budget=20_000_000)
    ok = ok and res_f2_2.status == "not_found" and res_f2_2.n_checked == 2
    ok = ok and res_f2_2.nodes == 130_703  # the memoized, norm-pruned search visits a fixed set of states

    ok = ok and cw.c2_check(F2, cw.F2_SEQUENCE).holds
    ok = ok and cw.c2_check(WR, cw.WREATH_LAMP_PAIR).holds
    for group, gens, res in ((Z2, Z2_GENS, res_z2), (h, h_gens, res_h)):
        res.witness.validate(group, gens)
        ok = ok and cw.c2_check(group, gens).holds
    report(10, ok,
           "witnesses found (Z^2, Heisenberg, n=1); free-group sequence refuted "
           f"exhaustively for n=1 (720 orderings) and n=2 ({res_f2_2.nodes} nodes); "
           "weak condition holds where required",
           time.monotonic() - started, 120)


def payload_criterion_11():
    if "c11" not in _PAYLOADS:
        import random

        runs = []
        all_ok = True
        for perm in itertools.permutations(range(1, 7)):
            g = cw.f2_reduce(perm)
            all_ok = all_ok and g.reduced_word != () and not g.has_double_edge()
            all_ok = all_ok and not g.has_self_loop() and g.is_acyclic()
        rng = random.Random(1111)
        base = [i for i in range(1, 7) for _ in range(2)]
        for _ in range(500):
            arr = base[:]
            rng.shuffle(arr)
            g = cw.f2_reduce(arr)
            all_ok = all_ok and g.reduced_word != () and not g.has_double_edge()
            all_ok = all_ok and not g.has_self_loop() and g.is_acyclic()
            runs.append({"arrangement": list(arr), "j": len(g.edges),
                         "word": F2.format_element(g.reduced_word),
                         "edges": [list(e) for e in g.edges]})
        _PAYLOADS["c11"] = {"all_ok": all_ok, "runs": runs}
    return _PAYLOADS["c11"]


def test_criterion_11_cancellation_algorithm():
    started = time.monotonic()
    p = payload_criterion_11()
    report(11, p["all_ok"],
           "720 n=1 orderings and 500 seeded n=2 arrangements: nonempty reduced "
           "word, no double edges, no 2-loops, acyclic",
           time.monotonic() - started, 30)


def payload_criterion_12():
    if "c12" not in _PAYLOADS:
        paths = cw.mc_sample(WR, cw.WREATH_LAMP_PAIR, t=1000, n_paths=1000, seed=1212)
        lamp_ok = cw.wreath_lamp_identity(paths)
        wreath_speed = cw.speed_estimate(WR, cw.WREATH_LAMP_PAIR, t=500, n_paths=200, seed=12)
        z2_speed = cw.speed_estimate(Z2, Z2_GENS, t=10_000, n_paths=300, seed=12)
        f2_speed = cw.speed_estimate(F2, F2_GENS, t=256, n_paths=512, seed=12)
        _PAYLOADS["c12"] = {
            "lamp_ok": lamp_ok,
            "wreath_speed": wreath_speed.value,
            "wreath_metric": wreath_speed.metric_kind,
            "z2_speed": z2_speed.value,
            "f2_speed": f2_speed.value,
        }
    return _PAYLOADS["c12"]


def test_criterion_12_lamp_identity_and_speeds():
    started = time.monotonic()
    p = payload_criterion_12()
    ok = (p["lamp_ok"]
          and p["wreath_metric"] == "lower_bound" and p["wreath_speed"] >= 0.5
          and p["z2_speed"] <= 0.05
          and abs(p["f2_speed"] - 0.5) <= 0.02)
    report(12, ok,
           f"lamp identity exact on 1000 paths to t=1000; wreath speed >= "
           f"{p['wreath_speed']:.3f} (lower-bound metric); Z^2 speed {p['z2_speed']:.4f} <= 0.05; "
           f"F2 speed {p['f2_speed']:.4f} within 0.02 of 1/2",
           time.monotonic() - started, 120)


def test_criterion_13_entropy():
    started = time.monotonic()
    z_vals = [cw.entropy_estimate(Z1, Z_GENS, t=t, n_paths=1500, seed=13).value
              for t in (8, 16, 32)]
    decreasing = z_vals[0] > z_vals[1] > z_vals[2]
    f2_val = cw.entropy_estimate(F2, F2_GENS, t=12, n_paths=1500, seed=13).value
    ok = decreasing and f2_val >= 0.5
    report(13, ok,
           f"Z entropy {['%.3f' % v for v in z_vals]} strictly decreasing; "
           f"F2 entropy {f2_val:.3f} >= 0.5",
           time.monotonic() - started, 60)


def test_criterion_14_determinism():
    started = time.monotonic()
    builders = {
        "c5": payload_criterion_05,
        "c7": payload_criterion_07,
        "c11": payload_criterion_11,
        "c12": payload_criterion_12,
    }
    ok = True
    for name, build in builders.items():
        first = canonical_json_bytes(build())
        _PAYLOADS.pop(name)
        second = canonical_json_bytes(build())
        ok = ok and first == second
    report(14, ok, "criteria 5, 7, 11, 12 payloads byte-identical across reruns",
           time.monotonic() - started, 600)
