#!/usr/bin/env python3
"""Exact-count check: the counts of a traced run must repeat exactly.

    python3 perfbench/repeat_check.py [--seed 0] [--other-seed 7]

Runs every workload traced, twice at --seed and once at --other-seed, each in
its own process.  The two runs at --seed must agree exactly on every count
metric and on the outputs digest; the run at --other-seed shows the counts
follow the inputs rather than being fixed.  Exits 1 on any mismatch or
failed run.  Counts and the digest cover a fixed prefix of calls, so the
runs are kept short (--seconds 1 still runs the whole prefix).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def traced(workload: str, seed: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed (exit code {proc.returncode})")
    result = json.loads(lines[-1])
    counts = {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}
    digest = next(line.split()[1] for line in lines if line.strip().startswith("outputs_sha256"))
    return counts, digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--other-seed", type=int, default=7)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    from run import load_library

    load_library()
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        (a, da), (b, db), (c, dc) = (
            traced(name, args.seed), traced(name, args.seed), traced(name, args.other_seed)
        )
        same = a == b and da == db
        status |= not same
        print(f"{name}: {'repeats' if same else 'DIFFERS'} at seed {args.seed}; "
              f"outputs_sha256 {da[:16]} / {db[:16]}, seed {args.other_seed}: {dc[:16]}")
        for key in a:
            print(f"  {key:<28} {a[key]:>9} {b.get(key, '?'):>9}   seed {args.other_seed}: {c[key]}")
    return status


if __name__ == "__main__":
    sys.exit(main())
