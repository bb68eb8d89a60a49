#!/usr/bin/env python3
"""Compare the fresh-process cost of two checkouts, CLI start-up included.

Each run is a new ``python -m priorshift.cli`` process (or a bare
``import priorshift.cli``), timed from spawn to exit; its peak RSS comes
from the child's own resource usage (``os.wait4``, the per-child form of
``RUSAGE_CHILDREN``).  Runs alternate between the two checkouts, and the
side that goes first alternates too.  The inputs are the world, dataset
and model that ``scripts/acceptance_pipeline.sh`` writes; without
``--inputs`` the first checkout's pipeline makes them in a temporary
directory.

    python3 scripts/fresh_process.py BASE_CHECKOUT NEW_CHECKOUT --runs 7
"""
from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Case -> child arguments after the interpreter; {in} is the inputs
# directory, {out} a per-side scratch directory.
CASES = {
    "convert_exact": ["-m", "priorshift.cli", "-q", "convert", "--world", "{in}/world.json",
                      "--model", "exact", "--data", "{in}/data.tsv",
                      "--out", "{out}/convert.tsv", "--seed", "14", "--t-start", "60",
                      "--force"],
    "sweep_model": ["-m", "priorshift.cli", "-q", "sweep", "--world", "{in}/world.json",
                    "--model", "{in}/model.txt", "--out", "{out}/sweep.csv", "--seed", "15",
                    "--n-seq", "6", "--seq-len", "20", "--force"],
    "import": ["-c", "import priorshift.cli"],
}


def run_once(checkout: Path, argv: list[str]) -> tuple[float, float]:
    """(wall seconds, peak RSS in MB) of one child process; it must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{' '.join(argv)} failed in {checkout}")
    return wall, usage.ru_maxrss / 1024.0


def summary(values: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", type=Path, help="checkout measured first in even runs")
    p.add_argument("new", type=Path, help="checkout compared against it")
    p.add_argument("--runs", type=int, default=7, help="alternating pairs per case")
    p.add_argument("--inputs", type=Path, default=None,
                   help="an output directory of scripts/acceptance_pipeline.sh")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be >= 2")
    sides = {"base": args.base.resolve(), "new": args.new.resolve()}
    with tempfile.TemporaryDirectory(prefix="fresh_process-") as tmp:
        inputs = args.inputs
        if inputs is None:
            inputs = Path(tmp) / "inputs"
            subprocess.run(["sh", str(sides["base"] / "scripts" / "acceptance_pipeline.sh"),
                            str(inputs)], check=True)
        outs = {name: Path(tmp) / name for name in sides}
        for out in outs.values():
            out.mkdir()

        def child_args(case: str, side: str) -> list[str]:
            return [a.replace("{in}", str(inputs)).replace("{out}", str(outs[side]))
                    for a in CASES[case]]

        for case in CASES:
            for side, checkout in sides.items():  # warm-up: byte-compile, fill the page cache
                run_once(checkout, child_args(case, side))
            walls = {side: [] for side in sides}
            rss = {side: [] for side in sides}
            for i in range(args.runs):
                order = list(sides) if i % 2 == 0 else list(sides)[::-1]
                for side in order:
                    wall, peak = run_once(sides[side], child_args(case, side))
                    walls[side].append(wall)
                    rss[side].append(peak)
            wins = sum(n < b for b, n in zip(walls["base"], walls["new"]))
            for side in sides:
                print(f"{case:14s} {side:4s} wall_s {summary(walls[side])}  "
                      f"peak_rss_mb {summary(rss[side])}")
            print(f"{case:14s} new faster in {wins} of {args.runs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
