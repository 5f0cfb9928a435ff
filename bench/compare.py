#!/usr/bin/env python3
"""Run the benchmark on two commits and compare their per-operation digests.

    python3 bench/compare.py HEAD~1 HEAD
    python3 bench/compare.py main my-branch --workload monte-carlo --seed 5

Each commit's ``src/`` is exported with ``git archive`` into
``.bench_out/compare/``; the benchmark code of the current checkout runs one
round of every chosen workload against it.  A speedup whose digests all
match has left every checked output byte-identical.  The digests are made
fresh on each run and never stored.  Exits 1 when any digest differs or a
run fails.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED, WORKLOADS  # noqa: E402


def export_src(rev: str, dest: Path) -> Path:
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                          check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def digests(src: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", "0", "--src", str(src)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    for line in proc.stdout.splitlines():
        if line.startswith('{"details"'):
            details = json.loads(line)["details"]
            return {**details["digests"], **{op: f"failed: {err}" for op, err in details["failed_ops"].items()}}
    raise RuntimeError(f"{workload} on {src} printed no result (exit code {proc.returncode})")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("rev_a")
    p.add_argument("rev_b")
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = p.parse_args(argv)

    base = ROOT / ".bench_out" / "compare"
    differ = 0
    try:
        srcs = [export_src(rev, base / re.sub(r"[^A-Za-z0-9_.-]", "_", rev)) for rev in (args.rev_a, args.rev_b)]
        for workload in args.workload or WORKLOADS:
            a, b = (digests(src, workload, args.seed) for src in srcs)
            for op in sorted(set(a) | set(b)):
                same = a.get(op) == b.get(op)
                differ += not same
                print(f"{workload:16s} {op:24s} {'same' if same else 'DIFFERENT'}"
                      + ("" if same else f"  {a.get(op)} vs {b.get(op)}"))
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(f"{differ} operation(s) differ between {args.rev_a} and {args.rev_b} (seed {args.seed})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
