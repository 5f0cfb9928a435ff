#!/usr/bin/env python3
"""The centerwalk benchmark.

    python3 bench/run.py                       # every workload, each in a fresh process
    python3 bench/run.py --workload monte-carlo --seed 7 --seconds 35 --trace 0

A workload process is one single-threaded caller in a closed loop: it runs
whole rounds of its operations back to back until ``--seconds`` have passed
(at least one round), checks every output, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``wall_s``, one
round's time as the sum of each operation's median over the run's rounds;
``peak_rss_mb``; ``setup_s``, the median of five fresh interpreters from spawn
to ready).  Both timings are scaled to the development machine's speed by a
fixed piece of reference work timed just before each operation (``scaled``).
With ``--trace 1`` the first half of the run is untraced, the second half
traced, and the metrics are the per-layer ones; the spans go to ``.bench_out/``.
The line before the result holds the run metadata and one SHA-256 per
operation of its canonical results bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from tracing import PER_LAYER, GCMeter, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact-evolution", "monte-carlo", "centering-forms")
DEFAULT_SEED = 1
SETUP_SAMPLES = 5
DIGESTED_ROUNDS = 2
#: median time of ``reference_s`` on the development machine: timings are scaled to that speed
REFERENCE_S = 0.009


def reference_s() -> float:
    """Time of a fixed piece of pure-Python work of the program's own kind (dict, tuple and
    Fraction arithmetic), with the collector off so that the program's heap cannot change it.
    It measures how fast the shared host runs at that moment."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc = {}
    for i in range(2000):
        key = (i % 97, i % 89)
        acc[key] = acc.get(key, 0) + Fraction(i, 7)
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--src", default=str(ROOT / "src"), help="source tree whose centerwalk is measured")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program(src: str):
    """Import centerwalk from ``src`` (never from anywhere else) and the libraries it loads lazily."""
    pkg = Path(src).resolve() / "centerwalk"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"bench/run.py: no centerwalk package under {src}")
    sys.path.insert(0, str(pkg.parent))
    import centerwalk
    import numpy  # noqa: F401  (dirichlet_forms imports these inside its functions)
    import scipy.sparse  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    if Path(centerwalk.__file__).resolve().parent != pkg:
        sys.exit(f"bench/run.py: imported centerwalk from {centerwalk.__file__}, not {pkg}")


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args) -> dict:
    import numpy
    import scipy

    return {"git_sha": git_sha(ROOT), "src": str(Path(args.src).resolve()),
            "python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def setup_samples(args, count: int) -> list:
    """Times from spawning a fresh interpreter to its "ready" line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--src", args.src]
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - t0)
            child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            sys.exit(f"bench/run.py: set-up child failed with code {child.returncode}")
    return samples


class Round:
    """One pass over the workload's operations."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.gc_s = 0.0
        self.gc_collections = 0
        self.peak_rss_mb = 0.0
        self.op_s = {}
        self.ref_s = {}
        self.digests = {}
        self.payloads = {}
        self.errors = {}
        self.problems = []


def run_round(ops, tracer=None, gc_meter=None, keep=False, digest=True) -> Round:
    """Time each operation's program calls; CPU and GC (when metered) over the same calls.
    Without ``digest`` the results are dropped unread."""
    from centerwalk import serialization

    clock = time.perf_counter
    out = Round()
    for op in ops:
        out.ref_s[op.name] = reference_s()
        gc0 = (gc_meter.seconds, gc_meter.collections) if gc_meter else (0.0, 0)
        cpu0 = time.process_time()
        t0 = clock()
        try:
            raw = op.run()
        except Exception as exc:  # a failing operation is counted; the workload carries on
            raw = None
            out.errors[op.name] = f"{type(exc).__name__}: {str(exc)[:200]}"
        out.op_s[op.name] = clock() - t0
        out.cpu += time.process_time() - cpu0
        if gc_meter:
            out.gc_s += gc_meter.seconds - gc0[0]
            out.gc_collections += gc_meter.collections - gc0[1]
        out.wall += out.op_s[op.name]
        if tracer is not None and isinstance(raw, bytes):
            tracer.add("report_bytes", len(raw))
        if op.name in out.errors or not digest:
            raw = None  # freed before the next operation, as after a digest
            continue
        try:
            blob = serialization.canonical_json_bytes(op.summarize(raw))
            del raw
        except Exception as exc:
            out.problems.append(f"{op.name}: cannot read its result: {type(exc).__name__}: {exc}")
            continue
        out.digests[op.name] = hashlib.sha256(blob).hexdigest()
        if keep:
            # the checks read exactly the bytes that were digested
            out.payloads[op.name] = json.loads(blob)
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def run_rounds(ops, until: float, started: float, first: bool, wrap=contextlib.nullcontext):
    """Whole rounds, each inside a fresh ``wrap()`` (nothing, a ``GCMeter`` for the untraced
    rounds of a traced run, or a ``Tracer``), while the next one is expected to end within
    ``until`` seconds after ``started``; at least one.  The first ``DIGESTED_ROUNDS`` and every
    traced round (whose serialization layer includes the digest) have their results digested;
    the others skip that untimed work, so more rounds fit in the run."""
    rounds = []
    # the program's time in a round predicts the next round; the digested ones took longer
    while not rounds or time.perf_counter() - started + median([r.wall for r, _ in rounds]) <= until:
        with wrap() as ctx:
            rounds.append((run_round(ops, ctx if isinstance(ctx, Tracer) else None,
                                     ctx if isinstance(ctx, GCMeter) else None,
                                     keep=first and not rounds,
                                     digest=len(rounds) < DIGESTED_ROUNDS or wrap is Tracer), ctx))
    return rounds


def scaled(seconds: float, ref: float) -> float:
    """``seconds`` measured while ``reference_s`` took ``ref``, at the development machine's speed.
    Other tenants of a shared host slow it by up to a factor of two for seconds to minutes, and the
    reference slows with it; the program's own changes do not reach the reference."""
    return seconds * REFERENCE_S / ref


def median_reference(rounds) -> float:
    return statistics.median(t for r in rounds for t in r.ref_s.values())


def typical_round(rounds, scale=True) -> float:
    """One round's time as the sum over operations of each one's median across the rounds."""
    return sum(statistics.median(scaled(r.op_s[name], r.ref_s[name]) if scale else r.op_s[name]
                                 for r in rounds) for name in rounds[0].op_s)


def check_rounds(ops, rounds) -> list:
    """Checks on the first round's payloads; every later digested round must repeat its digests,
    and every later round must fail on the same operations."""
    first = rounds[0]
    problems = list(first.problems)
    for op in ops:
        if op.name not in first.payloads:
            continue
        try:
            problems += op.check(first.payloads[op.name])
        except Exception as exc:
            problems.append(f"{op.name}: check raised {type(exc).__name__}: {exc}")
    for i, r in enumerate(rounds[1:], start=2):
        problems += r.problems
        if (r.digests and r.digests != first.digests) or set(r.errors) != set(first.errors):
            problems.append(f"round {i} does not repeat round 1's results")
    return problems


def median(values):
    return statistics.median(values) if values else 0.0


def run_workload(args) -> int:
    import_program(args.src)
    import workloads

    workdir = ROOT / ".bench_out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.BUILDERS[args.workload](args.seed, str(workdir))
        if args.setup_only:
            print("ready", flush=True)
            return 0
        if not args.trace:
            # set-up is sampled on both sides of the rounds, so one slow spell misses some samples
            t0 = time.perf_counter()
            setup = setup_samples(args, SETUP_SAMPLES // 2)
            rounds = [r for r, _ in run_rounds(ops, args.seconds - 3 * median(setup), t0, first=True)]
            setup += setup_samples(args, SETUP_SAMPLES - SETUP_SAMPLES // 2)
            metrics = {"wall_s": (typical_round(rounds), "s"),
                       # set-up and one round in a fresh process: later rounds only add fragmentation
                       "peak_rss_mb": (rounds[0].peak_rss_mb, "MB"),
                       # too few samples to scale one by one: the run's median reference scales them
                       "setup_s": (scaled(median(setup), median_reference(rounds)), "s")}
            spans_file = None
        else:
            t0 = time.perf_counter()
            plain = run_rounds(ops, args.seconds / 2, t0, first=True, wrap=GCMeter)
            traced = run_rounds(ops, args.seconds, t0, first=False, wrap=Tracer)
            rounds = [r for r, _ in plain + traced]
            metrics, spans_file = layer_metrics(args, plain, traced)
        t_check = time.perf_counter()
        problems = check_rounds(ops, rounds)
        check_s = time.perf_counter() - t_check

        first = rounds[0]
        attempted = len(ops) * len(rounds)
        failed = sum(len(r.errors) for r in rounds)
        details = {"meta": metadata(args), "rounds": len(rounds), "round_wall_s": [r.wall for r in rounds],
                   "unscaled_wall_s": typical_round(rounds, scale=False),
                   "reference_s": median_reference(rounds),
                   "ref_s": [r.ref_s for r in rounds],
                   "op_s": [r.op_s for r in rounds], "check_s": check_s,
                   "digests": first.digests, "failed_ops": first.errors, "problems": problems[:50],
                   "spans_file": spans_file}
        print(json.dumps({"details": details}, sort_keys=True))
        result = {"correct": not problems, "attempted": attempted, "failed": failed,
                  "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
        print(json.dumps(result), flush=True)
        return 0 if not problems else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def layer_metrics(args, plain, traced):
    first_tracer = traced[0][1]
    mul_ns = first_tracer.multiply_ns()
    per_round = [tracer.metrics(mul_ns) for _, tracer in traced]
    values = {name: median([m[name] for m in per_round]) for name in per_round[0]}
    values["runtime.gc_s"] = median([r.gc_s for r, _ in plain])
    values["runtime.gc_collections"] = median([r.gc_collections for r, _ in plain])
    values["runtime.cpu_s"] = median([r.cpu for r, _ in plain])
    values["runtime.trace_overhead_s"] = (typical_round([r for r, _ in traced])
                                          - typical_round([r for r, _ in plain]))

    out_dir = ROOT / ".bench_out"
    spans_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    blob = {"meta": metadata(args), "metrics": values, "multiply_ns_by_class": mul_ns,
            "first_traced_round": first_tracer.dump()}
    spans_file.write_text(json.dumps(blob))
    return {name: (values[name], unit) for name, unit in PER_LAYER}, str(spans_file.relative_to(ROOT))


def run_all(args) -> int:
    """Each workload in its own fresh process, in a fixed order; prints a table and a summary line."""
    summary = {}
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--src", args.src]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
            details = json.loads(lines[-2])["details"]
        except (IndexError, ValueError, KeyError):
            print(f"{name}: no result (exit code {proc.returncode})")
            ok = False
            continue
        summary[name] = result
        ok = ok and result["correct"]
        shown = "  ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items())
        print(f"{name:16s} {shown}  attempted {result['attempted']} failed {result['failed']}"
              f"  correct {str(result['correct']).lower()}")
        for op, err in details["failed_ops"].items():
            print(f"{'':16s} failed: {op}: {err}")
        for problem in details["problems"]:
            print(f"{'':16s} problem: {problem}")
    print(json.dumps({"workloads": summary}), flush=True)
    return 0 if ok and len(summary) == len(WORKLOADS) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        if args.setup_only:
            sys.exit("bench/run.py: --setup-only needs a workload")
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
