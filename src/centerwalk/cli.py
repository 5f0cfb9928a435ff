"""Command-line surface.

Subcommands mirror the library modules::

    centering verify|reversible|from-flow
    group     c1-search|c2-check|dist
    walk      evolve|cv-fit|escape|speed|entropy|volume
    dirichlet sector|poincare
    green     compare
    f2        reduce

Reports are JSON with a deterministic ``results`` payload (identical config
and seed give byte-identical results); ``--format csv`` flattens the per-t
trace of commands that have one.  Randomized commands require an explicit
``--seed``.  No command takes a tolerance (see ``weights.vanishes``).  Every
command that builds a word ball or a Cayley window ends with ``support_overflow``
(exit 5) past ``markov_graph.MAX_SUPPORT`` elements (``--max-support`` on the law
and volume commands) or, for the kernel commands, which take no such flag,
``MAX_WINDOW`` vertices.  ``cv-fit`` and ``escape`` use the closed-form word
metric where the group has one.  Errors are structured JSON on stderr with a
machine-readable code and a distinct exit status; a command that runs out of
memory ends in ``out_of_memory`` (exit 6).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import traceback
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import dirichlet_forms as df
from . import evolution as ev
from . import group_walks as gw
from . import markov_graph as mg
from . import serialization as ser
from .errors import (
    BudgetExhaustedError,
    CenterwalkError,
    InputParseError,
    OutOfMemoryError,
    PreconditionError,
)
from .groups import group_from_spec, parse_generators
from .weights import format_weight, parse_rational


def _group_gens(args):
    group = group_from_spec(args.group)
    return group, parse_generators(group, args.gens)


def _load_kernel(args) -> Tuple[mg.Kernel, Optional[object], Optional[Tuple]]:
    """Kernel from --graph [--killing] or from --group/--gens/--radius; counting measure."""
    if args.graph is not None:
        if args.group is not None or args.gens is not None or args.radius is not None:
            raise InputParseError("--graph does not combine with --group, --gens or --radius")
        kernel = ser.kernel_from_obj(ser.load_json(args.graph))
        if args.killing is not None:
            kernel = kernel.with_killing(_fraction("--killing", args.killing))
        return kernel, None, None
    if args.killing is not None:
        raise InputParseError("--killing applies only to --graph")
    if args.group is not None:
        group, gens = _group_gens(args)
        if args.radius is None:
            raise InputParseError("--radius is required with --group")
        return gw.cayley_kernel(group, gens, args.radius), group, gens
    raise InputParseError("provide either --graph or --group/--gens")


def _fraction(flag: str, text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise InputParseError(f"{flag} must be a rational number: {exc}") from exc


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _laws(args, group, gens, t_max: int):
    """The stream of mu^0 .. mu^t_max within --prune-eps and --max-support."""
    return ev.walk_laws(group, gens, t_max, prune_eps=args.prune_eps, max_support=args.max_support)


def _word_metric(args, group, gens, radius: int):
    """Word metric over gens and inverses to ``radius``: the closed form, else a ball within --max-support."""
    exact = group.exact_metric(tuple(gw._directions(group, gens)))
    return exact if exact is not None else gw.word_ball(group, gens, radius, args.max_support)


def _label(group, x) -> str:
    if group is not None:
        return group.format_element(x)
    return json.dumps(ser.encode_vertex(x))


def _write_dec(args, dec: mg.CycleDecomposition) -> dict:
    """The decomposition as JSON, also written to --dec-out when given."""
    obj = ser.decomposition_to_obj(dec)
    if args.dec_out:
        with open(args.dec_out, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
    return obj


# -- command handlers ---------------------------------------------------------
# each returns (results_dict, optional (csv_header, csv_rows))


def cmd_centering_verify(args):
    kernel = ser.kernel_from_obj(ser.load_json(args.graph))
    dec = ser.decomposition_from_obj(ser.load_json(args.dec))
    report = mg.verify_centering(kernel, mg.Measure.counting(), dec)
    results = {
        "valid": report.valid,
        "max_abs_residual": format_weight(report.max_abs_residual),
        "interior_edges": len(report.interior_edges),
        "boundary_edges_skipped": len(report.boundary_edges_skipped),
        "zero_weight_covered": len(report.zero_weight_covered),
    }
    return results, None


def cmd_centering_reversible(args):
    kernel = ser.kernel_from_obj(ser.load_json(args.graph))
    dec = mg.reversible_decomposition(kernel, mg.Measure.counting())
    return {"cycles": len(dec), "c0": dec.max_length, "decomposition": _write_dec(args, dec)}, None


def cmd_centering_from_flow(args):
    flow = ser.flow_from_obj(ser.load_json(args.flow))
    dec = mg.circulation_to_cycles(flow, max_len=args.max_len)
    return {
        "cycles": len(dec),
        "c0": dec.max_length,
        "exceeds_max_len": dec.exceeds_max_len,
        "decomposition": _write_dec(args, dec),
    }, None


def cmd_group_c1_search(args):
    group, gens = _group_gens(args)
    res = gw.c1_search(group, gens, n_max=args.n_max, node_budget=args.budget)
    if res.status == "budget_exhausted":
        raise BudgetExhaustedError(
            f"search budget exhausted after {res.nodes} nodes "
            f"(exhaustive through n = {res.n_checked})"
        )
    results = {"status": res.status, "n_checked": res.n_checked, "nodes": res.nodes,
               "method": res.method}
    if res.witness:
        results["witness"] = {"n": res.witness.n, "sigma": list(res.witness.sigma)}
    return results, None


def cmd_group_c2_check(args):
    group, gens = _group_gens(args)
    rep = gw.c2_check(group, gens)
    return {
        "holds": rep.holds,
        "free_sums": list(rep.free_sums),
        "torsion_sums": list(rep.torsion_sums),
        "moduli": list(rep.moduli),
    }, None


def cmd_group_dist(args):
    group, gens = _group_gens(args)
    x = group.parse_element(args.element)
    d = gw.word_distance(group, gens, x, radius=args.radius)
    return {"element": group.format_element(x),
            "distance": d if d is not None else "out_of_radius"}, None


def cmd_walk_evolve(args):
    group, gens = _group_gens(args)
    trace = []
    for d in _laws(args, group, gens, args.tmax):
        trace.append({
            "t": d.t,
            "support": len(d),
            "mass": format_weight(d.total()),
            "p_id": format_weight(d.prob(group.identity)),
        })
    final = {_label(group, x): format_weight(p) for x, p in d.items()}
    results = {"trace": trace, "final": final, "approximate": d.approximate}
    rows = [(r["t"], r["support"], r["mass"], r["p_id"]) for r in trace]
    return results, (("t", "support", "mass", "p_id"), rows)


def cmd_walk_cv_fit(args):
    group, gens = _group_gens(args)
    dists = list(_laws(args, group, gens, args.tmax))
    report = ev.fit_cv_constant(dists, _word_metric(args, group, gens, args.tmax), d_exp=args.d_exp)
    rows = []
    for d in dists:
        if d.t < 1:
            continue
        for x, p in d.items():
            margin = report.margins[(d.t, x)]
            mu = float(p)
            rows.append((d.t, _label(group, x), mu, mu + margin, margin))
    rows.sort(key=lambda r: (r[0], r[1]))
    results = {
        "c_star": report.c_star,
        "d_exp": report.d_exponent,
        "violated": report.violated,
        "min_margin": report.min_margin,
        "points": len(report.margins),
        "approximate": report.approximate,
    }
    return results, (("t", "x_label", "mu", "bound", "margin"), rows)


def _parse_times(text: str) -> List[int]:
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise InputParseError(f"bad times list {text!r}") from exc
    if not values:
        raise InputParseError(f"empty times list {text!r}")
    return values


def cmd_walk_escape(args):
    group, gens = _group_gens(args)
    times = _parse_times(args.times)
    if min(times) < 0:
        raise InputParseError(f"times must be >= 0, got {args.times!r}")
    alpha = _fraction("--alpha", args.alpha)
    t_max = max(times)
    metric = _word_metric(args, group, gens, t_max)
    tails = {}
    for d in _laws(args, group, gens, t_max):
        if d.t in times:
            tails[d.t] = format_weight(ev.escape_probability(d, metric, alpha))
    rows = [(t, tails[t]) for t in times]
    results = {"alpha": format_weight(alpha), "trace": [{"t": t, "p": p} for t, p in rows],
               "approximate": d.approximate}
    return results, (("t", "escape_probability"), rows)


def cmd_walk_speed(args):
    group, gens = _group_gens(args)
    est = ev.speed_estimate(group, gens, t=args.t, n_paths=args.paths,
                            seed=args.seed, radius=args.radius)
    return {"speed": est.value, "stderr": est.stderr, "t": est.t,
            "paths": est.n_paths, "metric": est.metric_kind}, None


def cmd_walk_entropy(args):
    group, gens = _group_gens(args)
    est = ev.entropy_estimate(group, gens, t=args.t, n_paths=args.paths,
                              seed=args.seed, max_support=args.max_support)
    return {"entropy": est.value, "stderr": est.stderr, "t": est.t,
            "paths": est.n_paths, "support": est.support}, None


def cmd_walk_volume(args):
    group, gens = _group_gens(args)
    vols = ev.volume_growth(group, gens, args.tmax, args.max_support)
    rows = list(enumerate(vols))
    return {"volume": vols}, (("t", "V"), rows)


def _finite_value(v) -> float:
    if isinstance(v, bool) or not math.isfinite(x := float(v)):
        raise ValueError(f"value {v!r} is not a finite number")
    return x


def _load_test_function(path: str) -> dict:
    obj = ser.load_json(path)
    if not isinstance(obj, dict):
        raise InputParseError(f"test function file {path} must be a JSON map")
    try:
        return {ser.decode_vertex(json.loads(k)): _finite_value(v) for k, v in obj.items()}
    except (ValueError, TypeError, RecursionError) as exc:
        raise InputParseError(f"malformed test function in {path}: {exc}") from exc


def cmd_dirichlet_sector(args):
    if (args.f is None) != (args.g is None):
        raise InputParseError("supply both --f and --g or neither")
    if args.f is not None and (args.dec, args.trials, args.seed) != (None, None, None):
        raise InputParseError("--dec, --trials and --seed apply to the search, not to a supplied --f/--g pair")
    if args.f is None and args.seed is None:
        raise InputParseError("the randomized search requires --seed")
    kernel, group, gens = _load_kernel(args)
    m = mg.Measure.counting()
    if args.f:
        # single user-supplied pair instead of the randomized search
        f = _load_test_function(args.f)
        g = _load_test_function(args.g)
        eff = df.dirichlet_form(kernel, m, f, f)
        egg = df.dirichlet_form(kernel, m, g, g)
        efg = df.dirichlet_form(kernel, m, f, g)
        if not all(map(math.isfinite, (eff, egg, efg))):
            raise PreconditionError(
                f"the energies must be finite, got E(f,f) = {eff}, E(g,g) = {egg}, E(f,g) = {efg}")
        # E(f,f) < 0 is possible where the counting measure is not excessive for the kernel
        if eff <= 0 or egg <= 0:
            raise PreconditionError(f"a sector ratio needs E(f,f) > 0 and E(g,g) > 0, got {eff} and {egg}")
        # two roots, not the root of a product that overflows or underflows
        ratio = abs(float(efg)) / math.sqrt(eff) / math.sqrt(egg)
        return {"sector_ratio": ratio, "e_fg": float(efg),
                "e_ff": float(eff), "e_gg": float(egg)}, None
    dec = None
    if args.dec:
        dec = ser.decomposition_from_obj(ser.load_json(args.dec))
    trials = df.SECTOR_TRIALS if args.trials is None else args.trials
    m_hat = df.sector_ratio(kernel, m, dec=dec, trials=trials, seed=args.seed)
    results = {"sector_ratio": m_hat, "trials": trials}
    if dec is not None:
        # the certified csc(pi / L), or null when the decomposition does not verify on the kernel
        results["sector_bound"] = df.certified_sector_bound(kernel, m, dec)
    return results, None


def cmd_dirichlet_poincare(args):
    ks = _parse_times(args.k)
    rows = [(k, df.poincare_constant(k)) for k in ks]
    return {"constants": {str(k): c for k, c in rows}}, (("k", "constant"), rows)


def cmd_green_compare(args):
    if args.n_max is not None and (args.dec is not None or args.graph is not None):
        raise InputParseError("--n-max applies only to the witness search (--group without --dec)")
    kernel, group, gens = _load_kernel(args)
    if args.dec:
        dec = ser.decomposition_from_obj(ser.load_json(args.dec))
    elif group is not None:
        n_max = GREEN_N_MAX if args.n_max is None else args.n_max
        res = gw.c1_search(group, gens, n_max=n_max)
        if not res.found:
            raise PreconditionError(
                f"no reordering witness up to n = {n_max}; supply --dec"
            )
        dec = gw.translated_cycle_decomposition(group, gens, res.witness, args.radius)
    else:
        raise InputParseError("--dec is required with --graph")
    # a Cayley window's outer sphere has depth 1 and lacks in-rows, so the ball
    # is the window's part at the support margin: the ball of radius --radius - 1
    ball = kernel.window if group is None else kernel.interior_vertices(mg.SUPPORT_MARGIN)
    report = df.green_comparison(kernel, mg.Measure.counting(), dec, ball,
                                 trials=args.trials, seed=args.seed)
    rows = sorted(
        ((_label(group, x), report.g_diag[x], report.g0_diag[x]) for x in report.interior),
        key=lambda r: r[0],
    )
    results = {
        "sector_ratio": report.sector_m,
        "sector_bound": report.sector_bound,
        "mode": report.mode,
        "g_le_g0": report.holds_upper,
        "g0_le_m2_g": report.holds_lower,
        "g0_le_search_m2_g": report.holds_lower_search,
        "interior_points": len(report.interior),
    }
    return results, (("x_label", "g_diag", "g0_diag"), rows)


def cmd_f2_reduce(args):
    arrangement = _parse_times(args.arrangement)
    graph = gw.f2_reduce(arrangement)
    return {
        "n": graph.n,
        "reduced_word": gw.F2.format_element(graph.reduced_word),
        "reduced_length": len(graph.reduced_word),
        "edges": [list(e) for e in graph.edges],
        "j": len(graph.edges),
        "double_edge": graph.has_double_edge(),
        "self_loop": graph.has_self_loop(),
        "acyclic": graph.is_acyclic(),
    }, None


# -- wiring -------------------------------------------------------------------


#: witness search depth of ``green compare`` when no --dec is given
GREEN_N_MAX = 2

GROUP_HELP = "group spec: z:d, heisenberg, bs:q, wreath, f2, zmod:p"
GENS_HELP = (
    "comma-separated generator literals; lattice vectors like [1,0], "
    "Heisenberg triples [a,b,c], Baumslag-Solitar words over a b A B, "
    "wreath pairs (shift, {pos: val}), free words with uppercase inverses "
    "(ababAA), residues for zmod"
)


def _add_common(p, seed=False, graph_source=False):
    p.add_argument("--out", help="write the report to this path instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    if seed:
        p.add_argument("--seed", type=int, required=True,
                       help="explicit seed; randomized commands have no default")
    if graph_source:
        p.add_argument("--graph", help="graph JSON file")
        p.add_argument("--killing", type=str, default=None,
                       help="uniform killing rate applied to --graph")
        p.add_argument("--group", help=GROUP_HELP)
        p.add_argument("--gens", help=GENS_HELP)
        p.add_argument("--radius", type=int, default=None, help="Cayley window radius")


def _group_walk_args(p, *, tmax=False, paths=False, prune=False, budget=False):
    p.add_argument("--group", required=True, help=GROUP_HELP)
    p.add_argument("--gens", required=True, help=GENS_HELP)
    if tmax:
        p.add_argument("--tmax", type=int, required=True)
    if paths:
        p.add_argument("--paths", type=int, required=True)
        p.add_argument("--t", type=int, required=True)
    if prune:
        p.add_argument("--prune-eps", type=float, default=None,
                       help="drop atoms below this mass and renormalize exactly; the run is flagged "
                            "approximate once an atom is dropped")
    if budget:
        p.add_argument("--max-support", type=int, default=mg.MAX_SUPPORT,
                       help="stop with support_overflow (exit 5) once a law or ball passes this "
                            f"many elements (default {mg.MAX_SUPPORT})")


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a typed error instead of usage text and an exit."""

    def error(self, message):
        raise InputParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    root = _Parser(prog="centerwalk", description=__doc__,
                   formatter_class=argparse.RawDescriptionHelpFormatter)
    tops = root.add_subparsers(dest="module", required=True)

    centering = tops.add_parser("centering").add_subparsers(dest="action", required=True)
    p = centering.add_parser("verify")
    p.add_argument("--graph", required=True)
    p.add_argument("--dec", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_centering_verify)
    p = centering.add_parser("reversible")
    p.add_argument("--graph", required=True)
    p.add_argument("--dec-out")
    _add_common(p)
    p.set_defaults(func=cmd_centering_reversible)
    p = centering.add_parser("from-flow")
    p.add_argument("--flow", required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--dec-out")
    _add_common(p)
    p.set_defaults(func=cmd_centering_from_flow)

    group = tops.add_parser("group").add_subparsers(dest="action", required=True)
    p = group.add_parser("c1-search")
    _group_walk_args(p)
    p.add_argument("--n-max", type=int, default=1)
    p.add_argument("--budget", type=int, default=gw.NODE_BUDGET)
    _add_common(p)
    p.set_defaults(func=cmd_group_c1_search)
    p = group.add_parser("c2-check")
    _group_walk_args(p)
    _add_common(p)
    p.set_defaults(func=cmd_group_c2_check)
    p = group.add_parser("dist")
    _group_walk_args(p)
    p.add_argument("--element", required=True)
    p.add_argument("--radius", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_group_dist)

    walk = tops.add_parser("walk").add_subparsers(dest="action", required=True)
    p = walk.add_parser("evolve")
    _group_walk_args(p, tmax=True, prune=True, budget=True)
    _add_common(p)
    p.set_defaults(func=cmd_walk_evolve)
    p = walk.add_parser("cv-fit")
    _group_walk_args(p, tmax=True, prune=True, budget=True)
    p.add_argument("--d-exp", type=_finite_float, default=0.0)
    _add_common(p)
    p.set_defaults(func=cmd_walk_cv_fit)
    p = walk.add_parser("escape")
    _group_walk_args(p, prune=True, budget=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--times", required=True, help="comma-separated t values")
    _add_common(p)
    p.set_defaults(func=cmd_walk_escape)
    p = walk.add_parser("speed")
    _group_walk_args(p, paths=True)
    p.add_argument("--radius", type=int, default=None)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_walk_speed)
    p = walk.add_parser("entropy")
    _group_walk_args(p, paths=True, budget=True)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_walk_entropy)
    p = walk.add_parser("volume")
    _group_walk_args(p, tmax=True, budget=True)
    _add_common(p)
    p.set_defaults(func=cmd_walk_volume)

    dirichlet = tops.add_parser("dirichlet").add_subparsers(dest="action", required=True)
    p = dirichlet.add_parser("sector")
    p.add_argument("--dec", default=None)
    p.add_argument("--trials", type=int, default=None,
                   help=f"random test pairs of the search (default {df.SECTOR_TRIALS})")
    p.add_argument("--f", default=None, help="JSON map {vertex: value}: evaluate this pair")
    p.add_argument("--g", default=None)
    p.add_argument("--seed", type=int, default=None, help="seed of the search, which requires it")
    _add_common(p, graph_source=True)
    p.set_defaults(func=cmd_dirichlet_sector)
    p = dirichlet.add_parser("poincare")
    p.add_argument("--k", required=True, help="comma-separated cycle lengths")
    _add_common(p)
    p.set_defaults(func=cmd_dirichlet_poincare)

    green = tops.add_parser("green").add_subparsers(dest="action", required=True)
    p = green.add_parser("compare")
    p.add_argument("--dec", default=None)
    p.add_argument("--n-max", type=int, default=None,
                   help=f"witness search depth without --dec (default {GREEN_N_MAX})")
    p.add_argument("--trials", type=int, default=2000)
    _add_common(p, seed=True, graph_source=True)
    p.set_defaults(func=cmd_green_compare)

    f2 = tops.add_parser("f2").add_subparsers(dest="action", required=True)
    p = f2.add_parser("reduce")
    p.add_argument("--arrangement", required=True,
                   help="comma-separated generator indices 1..6")
    _add_common(p)
    p.set_defaults(func=cmd_f2_reduce)

    return root


def _emit(args, report: dict, csv_payload) -> bytes:
    if args.format == "csv":
        if csv_payload is None:
            header = ("key", "value")
            rows = sorted((k, json.dumps(v)) for k, v in report["results"].items())
        else:
            header, rows = csv_payload
        return ser.csv_bytes(header, rows)
    return json.dumps(report, indent=2, sort_keys=True).encode() + b"\n"


def _error(code: str, message: str, exit_code: int) -> int:
    payload = {"error": {"code": code, "message": message}}
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    return exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except InputParseError as exc:
        return _error(exc.code, str(exc), exc.exit_code)
    except SystemExit:  # --help
        return 0
    command = f"{args.module} {args.action}"
    config = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("func", "out", "format") and v is not None
    }
    started = time.monotonic()
    try:
        results, csv_payload = args.func(args)
        report = ser.make_report(command, config, results, round(time.monotonic() - started, 6))
        blob = _emit(args, report, csv_payload)
        if args.out:
            tmp = args.out + ".tmp"
            with open(tmp, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, args.out)
        else:
            sys.stdout.buffer.write(blob)
    except CenterwalkError as exc:
        return _error(exc.code, str(exc), exc.exit_code)
    except MemoryError as exc:
        # reported once the handler has dropped the traceback, and with it the frames that hold the data
        oom = OutOfMemoryError(f"out of memory {_where(exc)}")
    except Exception as exc:
        # the last resort: a defect, not bad input; report where it was raised
        return _error("internal_error", f"{type(exc).__name__}: {exc} {_where(exc)}", 1)
    else:
        return 0
    return _error(oom.code, str(oom), oom.exit_code)


def _where(exc: BaseException) -> str:
    """``(file:line in function)`` of the frame that raised exc."""
    where = traceback.extract_tb(exc.__traceback__)[-1]
    return f"({os.path.basename(where.filename)}:{where.lineno} in {where.name})"


if __name__ == "__main__":
    sys.exit(main())
