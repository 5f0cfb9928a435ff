"""The three workloads: their seeded inputs, their operations and their checks.

An operation is one user task: ``run`` calls the program (timed), ``summarize``
turns what it returned into a JSON-able results payload (untimed; the payload
is what gets digested), and ``check`` compares the payload with the
independent computations in :mod:`oracles` or with properties the method
must have.  ``check`` returns a list of problems; empty means correct.

Every input, including every seed handed to the program, is derived from the
benchmark's ``--seed``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Sequence

import centerwalk as cw
from centerwalk import cli

import oracles as orc

Z_GENS = ((1,), (1,), (-2,))
DRIFT_GENS = ((1,), (1,), (-1,))
Z2_GENS = ((1, 0), (-1, 0), (0, 1), (0, -1))
Z3_GENS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))
Z2_TRIPOD = ((1, 0), (0, 1), (-1, -1))                      # non-reversible, centered by 3-cycles
H_GENS = ((1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0))
BS_GENS = ((0, 0, 1), (0, 1, 0), (0, 0, -1), (0, -1, 0))   # a, b, a^-1, b^-1 in BS(1, 2)
WR_GENS = ((1, ()), (-1, ()), (0, ((0, 1),)), (0, ((0, -1),)))  # shift and lamp at 0
WR_PAIR = ((2, ((1, 1),)), (-2, ((0, -1),)))              # the shift-two lamp pair
F2_GENS = ((1,), (-1,), (2,), (-2,))
F2_SEQUENCE = ((1,), (-1,), (2,), (-2,), (-2, -2), (1, 2, 1, 2, -1, -1))

#: workload sizes; the README quotes them
SIZES = {
    "exact-evolution": {
        "z_t": 64, "z2_t": 48, "heisenberg_t": 16, "bs_t": 12, "wreath_t": 10,
        "f2_t": 10, "f2_entropy_t": 10, "f2_entropy_paths": 1000,
        "volume_f2_r": 9, "volume_z2_r": 30, "cli_z2_t": 24, "brute_t": 6,
    },
    "monte-carlo": {
        "wreath_paths": 120, "wreath_t": 400, "speed_z2": (100, 2000),
        "speed_wreath": (100, 500), "speed_f2": (512, 256),
        "entropy_z_t": (8, 16, 32), "entropy_z_paths": 1500,
    },
    "centering-forms": {
        "z3_radius": 8, "zwalk_radius": 50, "zmod_p": 1500, "f2_n2_budget": 100_000,
        "f2_n2_arrangements": 300, "reversible_vertices": 60, "circulation_cycles": 60,
        "sector": {"srw": (25, 200), "rotation": 200, "zwalk": (12, 300)},
        "green_z2": (6, 3), "green_trials": {"rotation": 400, "z2": 200}, "green_partial": (60, 40),
        "poincare_k": (2, 64),
    },
}


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    summarize: Callable[[object], dict]
    check: Callable[[dict], List[str]]


def freeze(v):
    """JSON lists back to the program's tuples."""
    return tuple(freeze(x) for x in v) if isinstance(v, list) else v


def program_seeds(workload: str, seed: int) -> random.Random:
    return random.Random(f"centerwalk-bench/{workload}/{seed}")


class Problems(list):
    def expect(self, ok, message):
        if not ok:
            self.append(message)
        return ok


def run_cli(argv: Sequence[str], out: str) -> bytes:
    code = cli.main(list(argv) + ["--out", out])
    if code != 0:
        raise RuntimeError(f"centerwalk {' '.join(argv)} exited with {code}")
    with open(out, "rb") as fh:
        return fh.read()


def cli_results(blob: bytes) -> dict:
    return json.loads(blob)["results"]


def gens_literal(gens) -> str:
    return ",".join(json.dumps(list(g)).replace(" ", "") for g in gens)


# == exact-evolution ===========================================================


def law_atoms(dist):
    den = dist.denominator
    return den, sorted([x, p.numerator * (den // p.denominator)] for x, p in dist.items())


def laws_payload(dists):
    return [[d.t, *law_atoms(d)] for d in dists]


def totals_payload(dists, brute_t):
    out = {"totals": [], "small": []}
    for d in dists:
        den, atoms = law_atoms(d)
        out["totals"].append([d.t, len(atoms), sum(n for _, n in atoms), den])
        if d.t <= brute_t:
            out["small"].append([d.t, den, atoms])
    return out


def check_small_laws(problems, small, own, gens, label):
    own_gens = [own.from_program(g) for g in gens]
    for t, den, atoms in small:
        law = {own.from_program(freeze(x)): n for x, n in atoms}
        problems.expect(law == orc.brute_force_law(own, own_gens, t),
                        f"{label}: law at t={t} differs from path enumeration")


def check_totals(problems, totals, k, label):
    for t, support, total, den in totals:
        problems.expect(den == k ** t and total == den,
                        f"{label}: mass at t={t} is {total}/{den}, not 1 over {k}^{t}")


def check_fit(problems, fit, points, label):
    c = orc.cv_constant(points)
    problems.expect(
        not fit["violated"] and c * (1 - 1e-9) <= fit["c_star"] <= c * (1 + 1e-6) * (1 + 1e-9),
        f"{label}: c_star {fit['c_star']!r} vs a/W(a/b) maximum {c!r}")
    problems.expect(fit["points"] == len(points), f"{label}: fit saw {fit['points']} points, not {len(points)}")


def z_walk_op(name, gens, t_max, distance, alpha, brute_t):
    steps = [g[0] for g in gens]
    group = cw.IntegerLattice(1)

    def run():
        dists = cw.walk_distributions(group, gens, t_max)
        table = cw.word_ball(group, gens, t_max)
        fit = cw.fit_cv_constant(dists, table)
        esc = [(t, cw.escape_probability(dists[t], table, alpha)) for t in (8, 16, 32, 64) if t <= t_max]
        return dists, fit, esc

    def summarize(raw):
        dists, fit, esc = raw
        return {"laws": laws_payload(dists),
                "fit": {"c_star": fit.c_star, "violated": fit.violated, "points": len(fit.margins)},
                "escape": {"alpha": str(alpha), "p": [[t, str(p)] for t, p in esc]}}

    def check(payload):
        problems = Problems()
        own = orc.z_laws(steps, t_max)
        points = []
        laws = {}
        for t, den, atoms in payload["laws"]:
            law = {x[0]: n for x, n in atoms}
            laws[t] = (den, law)
            problems.expect(den == 3 ** t and sum(law.values()) == den, f"{name}: mass at t={t} is not 1 over 3^t")
            problems.expect(law == own[t], f"{name}: law at t={t} differs from integer convolution")
            points += [(t, distance(x), n / den) for x, n in law.items()] if t else []
        brute = orc.brute_force_law(orc.Lattice(1), gens, brute_t)
        problems.expect({x[0]: n for x, n in brute.items()} == laws[brute_t][1],
                        f"{name}: law at t={brute_t} differs from path enumeration")
        check_fit(problems, payload["fit"], points, name)
        for t, p in payload["escape"]["p"]:
            den, law = laws[t]
            tail = sum((Fraction(n, den) for x, n in law.items() if distance(x) >= alpha * t), Fraction(0))
            problems.expect(Fraction(p) == tail, f"{name}: escape at t={t} is {p}, tail mass is {tail}")
        return problems

    return Op(name, run, summarize, check)


def z2_op(t_max, brute_t):
    group = cw.IntegerLattice(2)

    def run():
        dists = cw.walk_distributions(group, Z2_GENS, t_max)
        table = cw.word_ball(group, Z2_GENS, t_max)
        return dists, cw.fit_cv_constant(dists, table)

    def summarize(raw):
        dists, fit = raw
        return {"laws": laws_payload(dists),
                "fit": {"c_star": fit.c_star, "violated": fit.violated, "points": len(fit.margins)}}

    def check(payload):
        problems = Problems()
        points = []
        for t, den, atoms in payload["laws"]:
            law = {freeze(x): n for x, n in atoms}
            problems.expect(den == 4 ** t and sum(law.values()) == den, f"z2: mass at t={t} is not 1 over 4^t")
            problems.expect(len(law) == (t + 1) ** 2 and all(n == orc.z2_count(t, *x) for x, n in law.items()),
                            f"z2: law at t={t} differs from the binomial closed form")
            if t <= brute_t:
                problems.expect(law == orc.brute_force_law(orc.Lattice(2), Z2_GENS, t),
                                f"z2: law at t={t} differs from path enumeration")
            points += [(t, abs(x[0]) + abs(x[1]), n / den) for x, n in law.items()] if t else []
        check_fit(problems, payload["fit"], points, "z2")
        return problems

    return Op("z2", run, summarize, check)


def group_law_op(name, group, gens, t_max, own, brute_t):
    def run():
        return cw.walk_distributions(group, gens, t_max)

    def summarize(dists):
        return totals_payload(dists, brute_t)

    def check(payload):
        problems = Problems()
        check_totals(problems, payload["totals"], len(gens), name)
        check_small_laws(problems, payload["small"], own, gens, name)
        return problems

    return Op(name, run, summarize, check)


def f2_law_op(t_max, brute_t):
    group = cw.FreeGroup()

    def run():
        return cw.walk_distributions(group, F2_GENS, t_max)

    def summarize(dists):
        out = totals_payload(dists, brute_t)
        out["spheres"] = []
        for d in dists:
            den, atoms = law_atoms(d)
            by_r: Dict[int, List[int]] = {}
            for x, n in atoms:
                by_r.setdefault(len(x), []).append(n)
            out["spheres"].append([d.t, den, [[r, len(v), min(v), max(v), sum(v)] for r, v in sorted(by_r.items())]])
        return out

    def check(payload):
        problems = Problems()
        check_totals(problems, payload["totals"], 4, "f2")
        check_small_laws(problems, payload["small"], orc.FreeWords(), F2_GENS, "f2")
        for t, den, spheres in payload["spheres"]:
            chain = orc.f2_length_law(t)
            problems.expect(sorted(chain) == [s[0] for s in spheres], f"f2: sphere radii at t={t} differ from the length chain")
            for r, count, lo, hi, total in spheres:
                problems.expect(count == orc.f2_sphere_size(r) and lo == hi,
                                f"f2: law at t={t} is not uniform on the sphere of radius {r}")
                problems.expect(Fraction(total, den) == chain.get(r),
                                f"f2: sphere {r} at t={t} has mass {total}/{den}, chain gives {chain.get(r)}")
        return problems

    return Op("f2", run, summarize, check)


def f2_entropy_op(t, n_paths, seed):
    group = cw.FreeGroup()

    def run():
        return cw.entropy_estimate(group, F2_GENS, t=t, n_paths=n_paths, seed=seed)

    def summarize(est):
        return {"value": est.value, "stderr": est.stderr, "support": est.support,
                "t": est.t, "n_paths": est.n_paths, "seed": est.seed}

    def check(payload):
        problems = Problems()
        support = sum(orc.f2_sphere_size(r) for r in range(t % 2, t + 1, 2))
        problems.expect(payload["support"] == support, f"f2-entropy: support {payload['support']} != {support}")
        exact = orc.f2_entropy(t) / t
        problems.expect(abs(payload["value"] - exact) <= 5 * payload["stderr"],
                        f"f2-entropy: {payload['value']} is more than 5 stderr from H/t = {exact}")
        chain = orc.f2_length_law(t)
        ends = orc.replay_endpoints(orc.FreeWords(), "aAbB", t, n_paths, seed)
        values = []
        for w in ends:
            num = chain[len(w)] * 4 ** t / orc.f2_sphere_size(len(w))
            values.append(-(math.log(int(num)) - math.log(4 ** t)) / t)
        mean = statistics.fmean(values)
        problems.expect(abs(mean - payload["value"]) <= 1e-12 * abs(mean),
                        f"f2-entropy: {payload['value']} differs from the replayed estimate {mean}")
        return problems

    return Op("f2-entropy", run, summarize, check)


def volumes_op(r_f2, r_z2):
    def run():
        return (cw.volume_growth(cw.FreeGroup(), F2_GENS, r_f2),
                cw.volume_growth(cw.IntegerLattice(2), Z2_GENS, r_z2))

    def summarize(raw):
        return {"f2": raw[0], "z2": raw[1]}

    def check(payload):
        problems = Problems()
        problems.expect(payload["f2"] == [2 * 3 ** r - 1 for r in range(r_f2 + 1)], "volumes: F2 balls are not 2*3^r - 1")
        problems.expect(payload["z2"] == [2 * r * r + 2 * r + 1 for r in range(r_z2 + 1)], "volumes: Z^2 balls are not 2r^2+2r+1")
        return problems

    return Op("volumes", run, summarize, check)


def cli_evolve_op(t_max, out):
    argv = ["walk", "evolve", "--group", "z:2", "--gens", gens_literal(Z2_GENS), "--tmax", str(t_max)]

    def check(payload):
        problems = Problems()
        problems.expect(payload["approximate"] is False, "cli-evolve: report flagged approximate")
        for row in payload["trace"]:
            t = row["t"]
            p_id = Fraction(orc.z2_count(t, 0, 0), 4 ** t)
            problems.expect(row["mass"] == "1" and row["support"] == (t + 1) ** 2 and Fraction(row["p_id"]) == p_id,
                            f"cli-evolve: trace row at t={t} is wrong: {row}")
        final = {tuple(json.loads(k)): Fraction(v) for k, v in payload["final"].items()}
        problems.expect(len(final) == (t_max + 1) ** 2 and all(
            p == Fraction(orc.z2_count(t_max, *x), 4 ** t_max) for x, p in final.items()),
            "cli-evolve: final law differs from the binomial closed form")
        return problems

    return Op("cli-evolve", lambda: run_cli(argv, out), cli_results, check)


def exact_evolution(seed: int, workdir: str) -> List[Op]:
    s = SIZES["exact-evolution"]
    rng = program_seeds("exact-evolution", seed)
    bs = cw.BaumslagSolitar(2)
    return [
        z_walk_op("z-centered", Z_GENS, s["z_t"], lambda x: (abs(x) + 1) // 2, Fraction(1, 2), 8),
        z_walk_op("z-drifted", DRIFT_GENS, s["z_t"], abs, Fraction(1, 5), 8),
        z2_op(s["z2_t"], s["brute_t"]),
        group_law_op("heisenberg", cw.Heisenberg(), H_GENS, s["heisenberg_t"], orc.HeisenbergMatrices(), s["brute_t"]),
        group_law_op("bs", bs, BS_GENS, s["bs_t"], orc.AffineBS(2), s["brute_t"]),
        group_law_op("wreath", cw.WreathZZ(), WR_GENS, s["wreath_t"], orc.Lamplighter(), s["brute_t"]),
        f2_law_op(s["f2_t"], s["brute_t"]),
        f2_entropy_op(s["f2_entropy_t"], s["f2_entropy_paths"], rng.randrange(2 ** 31)),
        volumes_op(s["volume_f2_r"], s["volume_z2_r"]),
        cli_evolve_op(s["cli_z2_t"], os.path.join(workdir, "evolve.json")),
    ]


# == monte-carlo ===============================================================


def wreath_sample_op(n_paths, t, seed):
    group = cw.WreathZZ()

    def run():
        paths = cw.mc_sample(group, WR_PAIR, t=t, n_paths=n_paths, seed=seed)
        return paths, cw.wreath_lamp_identity(paths)

    def summarize(raw):
        paths, ok = raw
        return {"lamp_ok": ok, "lengths": sorted({len(p) for p in paths}),
                "starts": sorted({json.dumps(p[0]) for p in paths}),
                "midpoints": [p[t // 2] for p in paths], "endpoints": [p[-1] for p in paths]}

    def check(payload):
        problems = Problems()
        own = orc.Lamplighter()
        problems.expect(payload["lamp_ok"] is True, "wreath-sample: the lamp identity does not hold")
        problems.expect(payload["lengths"] == [t + 1] and payload["starts"] == ["[0, []]"],
                        "wreath-sample: paths do not have t+1 points from the identity")
        replay = orc.replay_endpoints(own, WR_PAIR, t, n_paths, seed, midpoint=True)
        got = list(zip(map(own.from_program, map(freeze, payload["midpoints"])),
                       map(own.from_program, map(freeze, payload["endpoints"]))))
        problems.expect(got == replay, "wreath-sample: sampled paths differ from the replayed path_rng streams")
        for shift, lamps in (end for _, end in got):
            ok = (shift % 2 == 0 and sum(abs(v) for _, v in lamps) == t
                  and all((v > 0) == (p % 2 != 0) for p, v in lamps))
            if not problems.expect(ok, "wreath-sample: an endpoint breaks the lamp-count identity"):
                break
        return problems

    return Op("wreath-sample", run, summarize, check)


def speed_payload(est):
    return {"value": est.value, "stderr": est.stderr, "kind": est.metric_kind, "t": est.t, "n_paths": est.n_paths}


def check_speed(problems, label, value, own, gens, t, n_paths, seed, distance):
    ends = orc.replay_endpoints(own, gens, t, n_paths, seed)
    mean = statistics.fmean([distance(x) / t for x in ends])
    problems.expect(abs(mean - value) <= 1e-12 * max(1.0, abs(mean)),
                    f"{label}: speed {value} differs from the replayed mean {mean}")


def speed_op(name, group, gens, own, size, seed, distance, kind, bound):
    n_paths, t = size

    def check(payload):
        problems = Problems()
        problems.expect(payload["kind"] == kind, f"{name}: metric {payload['kind']}, expected {kind}")
        problems.expect(bound(payload["value"]), f"{name}: speed {payload['value']} out of range")
        check_speed(problems, name, payload["value"], own, gens, t, n_paths, seed, distance)
        return problems

    return Op(name, lambda: cw.speed_estimate(group, gens, t=t, n_paths=n_paths, seed=seed),
              speed_payload, check)


def cli_speed_f2_op(size, seed, out):
    n_paths, t = size
    argv = ["walk", "speed", "--group", "f2", "--gens", "a,A,b,B", "--t", str(t),
            "--paths", str(n_paths), "--seed", str(seed)]

    def check(payload):
        problems = Problems()
        problems.expect(payload["metric"] == "exact" and abs(payload["speed"] - 0.5) <= 0.02,
                        f"cli-speed-f2: speed {payload['speed']} ({payload['metric']}) not within 0.02 of 1/2")
        check_speed(problems, "cli-speed-f2", payload["speed"], orc.FreeWords(), "aAbB", t, n_paths, seed, len)
        return problems

    return Op("cli-speed-f2", lambda: run_cli(argv, out), cli_results, check)


def entropy_z_op(times, n_paths, seeds):
    group = cw.IntegerLattice(1)

    def run():
        return [cw.entropy_estimate(group, Z_GENS, t=t, n_paths=n_paths, seed=s) for t, s in zip(times, seeds)]

    def summarize(ests):
        return {"estimates": [{"t": e.t, "value": e.value, "stderr": e.stderr, "support": e.support} for e in ests]}

    def check(payload):
        problems = Problems()
        laws = orc.z_laws([1, 1, -2], max(times))
        for est, seed in zip(payload["estimates"], seeds):
            t = est["t"]
            exact = orc.z_entropy([1, 1, -2], t) / t
            problems.expect(abs(est["value"] - exact) <= 5 * est["stderr"],
                            f"entropy-z: t={t} estimate {est['value']} is more than 5 stderr from H/t = {exact}")
            ends = orc.replay_endpoints(orc.Lattice(1), Z_GENS, t, n_paths, seed)
            mean = statistics.fmean([-(math.log(laws[t][x[0]]) - math.log(3 ** t)) / t for x in ends])
            problems.expect(abs(mean - est["value"]) <= 1e-12 * mean,
                            f"entropy-z: t={t} estimate differs from the replayed estimate {mean}")
            problems.expect(est["support"] == len(laws[t]), f"entropy-z: t={t} support {est['support']}")
        return problems

    return Op("entropy-z", run, summarize, check)


def monte_carlo(seed: int, workdir: str) -> List[Op]:
    s = SIZES["monte-carlo"]
    rng = program_seeds("monte-carlo", seed)
    seeds = [rng.randrange(2 ** 31) for _ in range(7)]
    wr_lower = lambda x: abs(x[0]) + sum(abs(v) for _, v in x[1])
    return [
        wreath_sample_op(s["wreath_paths"], s["wreath_t"], seeds[0]),
        speed_op("speed-z2", cw.IntegerLattice(2), Z2_GENS, orc.Lattice(2), s["speed_z2"], seeds[1],
                 lambda x: abs(x[0]) + abs(x[1]), "exact", lambda v: 0 < v <= 0.05),
        speed_op("speed-wreath", cw.WreathZZ(), WR_PAIR, orc.Lamplighter(), s["speed_wreath"], seeds[2],
                 wr_lower, "lower_bound", lambda v: v >= 0.5),
        cli_speed_f2_op(s["speed_f2"], seeds[3], os.path.join(workdir, "speed.json")),
        entropy_z_op(s["entropy_z_t"], s["entropy_z_paths"], seeds[4:7]),
    ]


# == centering-forms ===========================================================


def check_witness(problems, label, own, gens, n, sigma):
    k = len(gens)
    problems.expect(len(sigma) == n * k and all(sigma.count(i) == n for i in range(1, k + 1)),
                    f"{label}: witness does not use every index {n} times")
    problems.expect(orc.product(own, [own.from_program(gens[j - 1]) for j in sigma]) == own.identity,
                    f"{label}: the witness product is not the identity")


def witness_z2_op(gens):
    group = cw.IntegerLattice(2)

    def run():
        return cw.c1_search(group, gens, n_max=1), cw.c2_check(group, gens)

    def summarize(raw):
        res, c2 = raw
        w = res.witness
        return {"status": res.status, "nodes": res.nodes, "n": w.n if w else None,
                "sigma": list(w.sigma) if w else None, "c2": c2.holds, "free_sums": list(c2.free_sums)}

    def check(payload):
        problems = Problems()
        if problems.expect(payload["status"] == "witness", "witness-z2: no witness found"):
            check_witness(problems, "witness-z2", orc.Lattice(2), gens, payload["n"], payload["sigma"])
        sums = [sum(g[i] for g in gens) for i in range(2)]
        problems.expect(payload["c2"] is True and payload["free_sums"] == sums, "witness-z2: c2_check sums are wrong")
        return problems

    return Op("witness-z2", run, summarize, check)


def cli_witness_heisenberg_op(gens, out):
    argv = ["group", "c1-search", "--group", "heisenberg", "--gens", gens_literal(gens), "--n-max", "1"]

    def check(payload):
        problems = Problems()
        if problems.expect(payload["status"] == "witness", "cli-witness-heisenberg: no witness found"):
            w = payload["witness"]
            check_witness(problems, "cli-witness-heisenberg", orc.HeisenbergMatrices(), gens, w["n"], w["sigma"])
        return problems

    return Op("cli-witness-heisenberg", lambda: run_cli(argv, out), cli_results, check)


def f2_exponent_sums(words):
    return [sum((v == 1) - (v == -1) for w in words for v in w),
            sum((v == 2) - (v == -2) for w in words for v in w)]


def f2_refute_n1_op():
    group = cw.FreeGroup()

    def run():
        return (cw.c1_search(group, F2_SEQUENCE, n_max=1), cw.brute_force_c1(group, F2_SEQUENCE, 1),
                cw.c2_check(group, F2_SEQUENCE), cw.c2_check(cw.WreathZZ(), WR_PAIR))

    def summarize(raw):
        res, brute, c2, c2_wreath = raw
        return {"status": res.status, "n_checked": res.n_checked, "nodes": res.nodes,
                "brute_force": list(brute.sigma) if brute else None,
                "c2": c2.holds, "free_sums": list(c2.free_sums),
                "c2_wreath": c2_wreath.holds, "free_sums_wreath": list(c2_wreath.free_sums)}

    def check(payload):
        problems = Problems()
        own = orc.FreeWords()
        words = [own.from_program(g) for g in F2_SEQUENCE]
        found = [p for p in itertools.permutations(words) if orc.reduce_word("".join(p)) == ""]
        problems.expect(not found and payload["status"] == "not_found" and payload["n_checked"] == 1
                        and payload["brute_force"] is None,
                        f"f2-refute-n1: {len(found)} of 720 orderings reduce to the identity; program says {payload['status']}")
        problems.expect(payload["c2"] is True and payload["free_sums"] == f2_exponent_sums(F2_SEQUENCE) == [0, 0],
                        "f2-refute-n1: the weak condition sums are wrong")
        wr_sums = [sum(g[0] for g in WR_PAIR), sum(v for g in WR_PAIR for _, v in g[1])]
        problems.expect(payload["c2_wreath"] is True and payload["free_sums_wreath"] == wr_sums,
                        "f2-refute-n1: the wreath pair's weak condition sums are wrong")
        return problems

    return Op("f2-refute-n1", run, summarize, check)


def f2_refute_n2_op(budget):
    """The first ``budget`` nodes of the n = 2 search: the whole search takes 2.6 M nodes."""

    def run():
        return cw.c1_search(cw.FreeGroup(), F2_SEQUENCE, n_max=2, node_budget=budget)

    def summarize(res):
        return {"status": res.status, "n_checked": res.n_checked, "nodes": res.nodes,
                "witness": list(res.witness.sigma) if res.witness else None}

    def check(payload):
        problems = Problems()
        # the paper proves no reordering exists for any n, so the budget runs out inside n = 2
        problems.expect(payload["status"] == "budget_exhausted" and payload["n_checked"] == 1
                        and payload["nodes"] == budget + 1 and payload["witness"] is None,
                        f"f2-refute-n2: status {payload['status']} through n={payload['n_checked']}"
                        f" after {payload['nodes']} nodes, budget {budget}")
        return problems

    return Op("f2-refute-n2", run, summarize, check)


def zmod_deep_op(p):
    """The one operation kept although it fails today: the DFS recurses n*K deep."""

    def run():
        return cw.c1_search(cw.FiniteCyclic(p), (1,), n_max=p)

    def summarize(res):
        w = res.witness
        return {"status": res.status, "n": w.n if w else None, "sigma": list(w.sigma) if w else None}

    def check(payload):
        problems = Problems()
        if problems.expect(payload["status"] == "witness", f"zmod-deep-search: status {payload['status']}"):
            sigma = payload["sigma"]
            # p copies of the generator 1 multiply to p = 0 mod p
            problems.expect(payload["n"] == p and sigma == [1] * p,
                            "zmod-deep-search: the witness is not 1 repeated p times")
        return problems

    return Op("zmod-deep-search", run, summarize, check)


def f2_reduce_op(arrangements):
    def run():
        return [(arr, cw.f2_reduce(arr)) for arr in arrangements]

    def summarize(raw):
        return {"runs": [[list(arr), list(g.reduced_word), [list(e) for e in g.edges], g.n] for arr, g in raw]}

    def check(payload):
        problems = Problems()
        own = orc.FreeWords()
        words = [own.from_program(g) for g in F2_SEQUENCE]
        for arr, word, edges, n in payload["runs"]:
            expected = orc.reduce_word("".join(words[i - 1] for i in arr))
            ok = (own.from_program(tuple(word)) == expected != "" and n == arr.count(6)
                  and len({tuple(e) for e in edges}) == len(edges) and all(i != j for i, j in edges)
                  and orc.acyclic(n, edges))
            if not problems.expect(ok, f"f2-reduce: arrangement {arr} gives word {word}, edges {edges}; own reduction {expected}"):
                break
        return problems

    return Op("f2-reduce", run, summarize, check)


def lattice_centering_op(name, d, gens, radius):
    group = cw.IntegerLattice(d)
    counting = cw.Measure.counting()

    def run():
        kernel = cw.cayley_kernel(group, gens, radius)
        dec = cw.translated_cycle_decomposition(group, gens, cw.abelian_c1(group, gens), radius)
        return kernel, dec, cw.verify_centering(kernel, counting, dec), cw.invariance_check(kernel, counting)

    def summarize(raw):
        kernel, dec, rep, inv = raw
        return {"vertices": len(kernel.window), "c0": dec.max_length,
                "cycles": [[list(c.vertices), str(w)] for c, w in dec],
                "valid": rep.valid, "max_abs_residual": str(rep.max_abs_residual),
                "interior_edges": len(rep.interior_edges),
                "invariance_residual": str(inv.max_abs_residual), "invariance_points": len(inv.residuals)}

    def check(payload):
        problems = Problems()
        problems.expect(payload["valid"] is True and payload["max_abs_residual"] == "0"
                        and payload["invariance_residual"] == "0" and payload["interior_edges"] > 0,
                        f"{name}: centering residual {payload['max_abs_residual']}, invariance {payload['invariance_residual']}")
        steps = set(gens) | {tuple(-v for v in g) for g in gens}
        ball = orc.bfs([(0,) * d], lambda x: [tuple(a + b for a, b in zip(x, s)) for s in steps], radius)
        problems.expect(payload["vertices"] == len(ball), f"{name}: window has {payload['vertices']} vertices, own ball {len(ball)}")
        cov = orc.coverage((tuple(map(tuple, v)), Fraction(w)) for v, w in payload["cycles"])
        weight = {}
        for g in gens:
            weight[g] = weight.get(g, 0) + Fraction(1, len(gens))
        c0 = payload["c0"]
        deep = [x for x, dist in ball.items() if dist <= radius + 1 - c0]
        ok = all(cov.get((x, tuple(a + b for a, b in zip(x, g)))) == w for x in deep for g, w in weight.items())
        ok = ok and all(tuple(b - a for a, b in zip(*e)) in weight for e in cov)
        problems.expect(ok, f"{name}: cycle coverage differs from m(x)q(x,y) on interior edges")
        return problems

    return Op(name, run, summarize, check)


def random_reversible_rows(rng, n):
    """Symmetric substochastic weights plus a holding loop: reversible for counting measure."""
    rows = {x: {} for x in range(n)}
    for x in range(n):
        for y in range(x + 1, n):
            w = Fraction(rng.randint(1, 9), 90)
            if rng.random() < 0.1 and sum(rows[x].values()) + w <= 1 and sum(rows[y].values()) + w <= 1:
                rows[x][y] = rows[y][x] = w
    for x, row in rows.items():
        if sum(row.values()) < 1:
            row[x] = 1 - sum(row.values())
    return rows


def random_circulation(rng, n, cycles):
    flow = {}
    for _ in range(cycles):
        vs = rng.sample(range(n), rng.randint(2, 6))
        w = Fraction(rng.randint(1, 12), 12)
        for e in zip(vs, vs[1:] + vs[:1]):
            flow[e] = flow.get(e, 0) + w
    return flow


def decompositions_op(rows, flow, max_len):
    counting = cw.Measure.counting()

    def run():
        return (cw.reversible_decomposition(cw.Kernel(rows), counting),
                cw.circulation_to_cycles(flow, max_len=max_len))

    def summarize(raw):
        rev, circ = raw
        cycles = lambda dec: [[list(c.vertices), str(w)] for c, w in dec]
        return {"reversible": cycles(rev), "circulation": cycles(circ), "exceeds_max_len": circ.exceeds_max_len}

    def check(payload):
        problems = Problems()
        parse = lambda cs: [(tuple(v), Fraction(w)) for v, w in cs]
        rev, circ = parse(payload["reversible"]), parse(payload["circulation"])
        want = {(x, y): w for x, row in rows.items() for y, w in row.items()}
        problems.expect(orc.coverage(rev) == want and all(len(v) <= 3 for v, _ in rev),
                        "decompositions: reversible two-cycles do not cover m(x)q(x,y) exactly")
        edges_ok = all(v[0] == v[-1] and len(set(zip(v, v[1:]))) == len(v) - 1 for v, _ in circ)
        problems.expect(orc.coverage(circ) == flow and edges_ok,
                        "decompositions: peeled cycles do not cover the circulation exactly")
        problems.expect(payload["exceeds_max_len"] == any(len(v) - 1 > max_len for v, _ in circ),
                        "decompositions: exceeds_max_len flag is wrong")
        return problems

    return Op("decompositions", run, summarize, check)


def zwalk_cycles(kernel):
    entries = []
    for x in sorted(kernel.window):
        cyc = (x, x + 1, x + 2, x)
        if all(v in kernel.window for v in cyc):
            entries.append((cw.Cycle(cyc), Fraction(1, 3)))
    return cw.CycleDecomposition(tuple(entries))


def sector_op(sizes, seeds):
    counting = cw.Measure.counting()
    (srw_r, srw_trials), rot_trials, (walk_r, walk_trials) = sizes["srw"], sizes["rotation"], sizes["zwalk"]

    def run():
        srw = cw.step_kernel({1: Fraction(1, 2), -1: Fraction(1, 2)}, radius=srw_r)
        walk = cw.step_kernel({1: Fraction(2, 3), -2: Fraction(1, 3)}, radius=walk_r)
        return {
            "reversible": cw.sector_ratio(srw, counting, trials=srw_trials, seed=seeds[0]),
            "rotation": cw.sector_ratio(cw.rotation_kernel(3), counting, trials=rot_trials, seed=seeds[1]),
            "zwalk": cw.sector_ratio(walk, counting, dec=zwalk_cycles(walk), trials=walk_trials, seed=seeds[2]),
        }

    def check(payload):
        problems = Problems()
        problems.expect(0 < payload["reversible"] <= 1 + 1e-9, f"sector: reversible ratio {payload['reversible']} > 1")
        problems.expect(0 < payload["rotation"] <= 2 / math.sqrt(3) * (1 + 1e-9),
                        f"sector: rotation ratio {payload['rotation']} above 2/sqrt(3)")
        sup = orc.sector_sup({1: 2 / 3, -2: 1 / 3})
        problems.expect(0 < payload["zwalk"] <= sup * (1 + 1e-6),
                        f"sector: walk ratio {payload['zwalk']} above the symbol's supremum {sup}")
        return problems

    return Op("sector", run, dict, check)


def green_payload(rep, label):
    return {"g": {label(x): v for x, v in rep.g_diag.items()}, "g0": {label(x): v for x, v in rep.g0_diag.items()},
            "sector_m": rep.sector_m, "upper": rep.holds_upper, "lower": rep.holds_lower,
            "interior": sorted(label(x) for x in rep.interior)}


def check_green(problems, label, payload, vertices, q, interior):
    problems.expect(sorted(payload["interior"]) == sorted(json.dumps(x) for x in interior),
                    f"{label}: interior points differ from the own computation")
    g, g0 = orc.green_diagonals(vertices, q, interior)
    close = lambda a, b: abs(a - b) <= 1e-9 * abs(b)
    problems.expect(all(close(payload["g"][json.dumps(x)], g[x]) and close(payload["g0"][json.dumps(x)], g0[x])
                        for x in interior), f"{label}: Green diagonals differ from the dense solve")
    m2 = payload["sector_m"] ** 2
    problems.expect(payload["upper"] and payload["lower"]
                    and all(g[x] <= g0[x] * (1 + 1e-9) and g0[x] <= m2 * g[x] * (1 + 1e-9) for x in interior),
                    f"{label}: a Green bound fails")


def green_rotation_op(trials, seed):
    counting = cw.Measure.counting()

    def run():
        rot = cw.rotation_kernel(3).with_killing(Fraction(1, 10))
        dec = cw.CycleDecomposition(((cw.Cycle((0, 1, 2, 0)), Fraction(1)),))
        return cw.green_comparison(rot, counting, dec, {0, 1, 2}, trials=trials, seed=seed)

    def check(payload):
        problems = Problems()
        q = lambda x, y: 0.9 if y == (x + 1) % 3 else 0.0
        check_green(problems, "green-rotation", payload, [0, 1, 2], q, [0, 1, 2])
        return problems

    return Op("green-rotation", run, lambda rep: green_payload(rep, json.dumps), check)


def green_lattice_op(name, d, gens, radius, ball_radius, trials, seed):
    """Green comparison on a word ball of a lattice walk whose n = 1 witness uses every generator once."""
    group = cw.IntegerLattice(d)
    counting = cw.Measure.counting()

    def run():
        kernel = cw.cayley_kernel(group, gens, radius)
        dec = cw.translated_cycle_decomposition(group, gens, cw.abelian_c1(group, gens), radius)
        ball = set(cw.word_ball(group, gens, ball_radius))
        return cw.green_comparison(kernel, counting, dec, ball, trials=trials, seed=seed)

    def check(payload):
        problems = Problems()
        add = lambda x, s: tuple(a + b for a, b in zip(x, s))
        steps = set(gens) | {tuple(-v for v in g) for g in gens}
        ball = orc.bfs([(0,) * d], lambda x: [add(x, s) for s in steps], ball_radius)
        leak = [x for x in ball if any(add(x, g) not in ball for g in gens)]
        depth = orc.bfs(leak, lambda x: [add(x, s) for s in steps if add(x, s) in ball])
        interior = [x for x in ball if depth.get(x, math.inf) >= len(gens)]
        vertices = sorted(ball)
        q = lambda x, y: 1 / len(gens) if tuple(b - a for a, b in zip(x, y)) in gens else 0.0
        check_green(problems, name, payload, vertices, q, interior)
        return problems

    return Op(name, run, lambda rep: green_payload(rep, lambda x: json.dumps(list(x))), check)


def green_partial_poincare_op(radius, horizon, target, ks):
    def run():
        walk = cw.step_kernel({1: Fraction(2, 3), -2: Fraction(1, 3)}, radius=radius)
        return cw.green_partial(walk, 0, target, horizon), [cw.poincare_constant(k) for k in ks]

    def summarize(raw):
        return {"green_partial": str(raw[0]), "poincare": raw[1]}

    def check(payload):
        problems = Problems()
        laws = orc.z_laws([1, 1, -2], horizon)
        exact = sum((Fraction(law.get(target, 0), 3 ** t) for t, law in enumerate(laws)), Fraction(0))
        problems.expect(Fraction(payload["green_partial"]) == exact,
                        f"green-partial: {payload['green_partial']} != visit series {exact}")
        problems.expect(all(abs(c - orc.poincare(k)) <= 1e-9 * orc.poincare(k) for k, c in zip(ks, payload["poincare"])),
                        "poincare: constants differ from 1/(2 - 2cos(2pi/k))")
        return problems

    return Op("green-partial-poincare", run, summarize, check)


def centering_forms(seed: int, workdir: str) -> List[Op]:
    s = SIZES["centering-forms"]
    rng = program_seeds("centering-forms", seed)
    z2_gens = tuple(rng.sample(Z2_GENS, 4))
    h_gens = tuple(rng.sample(H_GENS, 4))
    base = [i for i in range(1, 7) for _ in range(2)]
    arrangements = [tuple(p) for p in itertools.permutations(range(1, 7))]
    for _ in range(s["f2_n2_arrangements"]):
        rng.shuffle(base)
        arrangements.append(tuple(base))
    rows = random_reversible_rows(rng, s["reversible_vertices"])
    flow = random_circulation(rng, s["reversible_vertices"] // 2, s["circulation_cycles"])
    seeds = [rng.randrange(2 ** 31) for _ in range(5)]
    k_lo, k_hi = s["poincare_k"]
    radius, horizon = s["green_partial"]
    return [
        witness_z2_op(z2_gens),
        cli_witness_heisenberg_op(h_gens, os.path.join(workdir, "c1.json")),
        f2_refute_n1_op(),
        f2_refute_n2_op(s["f2_n2_budget"]),
        lattice_centering_op("z3-centering", 3, Z3_GENS, s["z3_radius"]),
        lattice_centering_op("zwalk-centering", 1, Z_GENS, s["zwalk_radius"]),
        zmod_deep_op(s["zmod_p"]),
        f2_reduce_op(arrangements),
        decompositions_op(rows, flow, max_len=4),
        sector_op(s["sector"], seeds[:3]),
        green_rotation_op(s["green_trials"]["rotation"], seeds[3]),
        green_lattice_op("green-z2", 2, Z2_TRIPOD, *s["green_z2"], s["green_trials"]["z2"], seeds[4]),
        green_partial_poincare_op(radius, horizon, rng.randint(-6, 6), range(k_lo, k_hi + 1)),
    ]


BUILDERS = {
    "exact-evolution": exact_evolution,
    "monte-carlo": monte_carlo,
    "centering-forms": centering_forms,
}
