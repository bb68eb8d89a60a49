#!/usr/bin/env python3
"""Compare one benchmark workload between git revision REV and this checkout.

REV is extracted with ``git archive`` into a temporary directory, and this
checkout's ``perfbench/`` and ``BENCHMARK.json`` are copied over it, so
both sides run one harness on their own ``src/``.  Pair ``i`` runs
``perfbench/run.py --workload W --seed K+i --seconds S --trace 0`` once
in each tree; the side that goes first alternates from pair to pair.
Prints each pair's gated metrics (the ``end_to_end`` list of
``BENCHMARK.json``), each side's median [quartiles], and for each metric
in how many pairs the change was better.  Exits 1 if any op failed.

    python3 scripts/bench_pairs.py HEAD~1 --workload sweep_model --pairs 10 --seconds 15 --seed 9401
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_result(stdout: str) -> dict:
    """The JSON result on the last line of a ``perfbench/run.py`` run."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("benchmark run printed nothing")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def pair_line(i: int, pair: dict[str, dict], gated: list[dict]) -> str:
    """One pair, ``{"parent": result, "change": result}``, on one line."""
    cells = [f"{m['name']} {side} {pair[side]['metrics'][m['name']]['value']:.4g}"
             for m in gated for side in SIDES]
    failed = sum(pair[side]["failed"] for side in SIDES)
    return f"pair {i}: " + ", ".join(cells) + f", failed ops {failed}"


def summarize(pairs: list[dict[str, dict]], gated: list[dict]) -> list[str]:
    """Each side's median [quartiles] of each ``gated`` metric
    (``BENCHMARK.json`` entries with ``name``, ``unit`` and ``better``), the
    pairs in which the change was better, and the median change beside the
    parent's interquartile range."""
    lines = []
    for m in gated:
        name, lower = m["name"], m["better"] == "lower"
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        for side in SIDES:
            q1, med, q3 = stats[side]
            lines.append(f"{name} {side}: {med:.4g} [{q1:.4g}, {q3:.4g}] {m['unit']}")
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        gap = stats["change"][1] - stats["parent"][1]
        iqr = stats["parent"][2] - stats["parent"][0]
        rel = gap / stats["parent"][1] if stats["parent"][1] else float("nan")
        lines.append(f"{name}: change {m['better']} in {wins} of {len(pairs)}; median change "
                     f"{gap:+.4g} ({rel:+.1%}), parent interquartile range {iqr:.4g}")
    return lines


def failed_runs(pairs: list[dict[str, dict]]) -> int:
    """Runs with a failed op or with no correct op."""
    return sum(pair[side]["failed"] > 0 or not pair[side]["correct"]
               for pair in pairs for side in SIDES)


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return parse_result(proc.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("rev", help="git revision to compare this checkout against")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seed", type=int, required=True, help="pair i runs seed SEED + i")
    args = p.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0 or args.seed < 0:
        p.error("--pairs must be >= 1, --seconds > 0 and --seed >= 0")
    gated = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        parent = Path(tmp) / "parent"
        parent.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.rev],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
        shutil.rmtree(parent / "perfbench", ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", parent / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", parent / "BENCHMARK.json")
        trees = {"parent": parent, "change": ROOT}
        pairs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {side: run_side(trees[side], args.workload, args.seed + i, args.seconds)
                    for side in order}
            pairs.append(pair)
            print(pair_line(i, pair, gated), flush=True)
    print(f"{args.workload}, {args.pairs} pairs of {args.seconds:g} s, "
          f"seeds {args.seed}-{args.seed + args.pairs - 1}")
    for line in summarize(pairs, gated):
        print(line)
    bad = failed_runs(pairs)
    if bad:
        print(f"{bad} runs had failed ops", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
