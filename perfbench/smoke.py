"""Smoke test of the benchmark itself; not part of the tier-1 suite.

    python3 perfbench/smoke.py

Runs every workload at the tiny size, untraced and traced, and checks
that each run is correct and prints every metric BENCHMARK.json names,
with its unit, on a line of its own and in the final JSON object.  The
traced runs also check the call counts that follow from the sizes.  The
FLOP count behind ``denoiser.loss_total.gflops_per_s`` is checked against
a hand count on a tiny model.  Last, a copy of the benchmark without the
program's sources must exit non-zero and print no result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import tracing
from workloads import SEQ_LEN, SIZES, SWEEP_T_STARTS, T_START, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
QUALITY = {
    "convert_exact": ("native_prob", "identity_l2"),
    "sweep_model": ("native_prob", "identity_l2"),
    "train_model": ("final_loss", "oracle_eps_mse"),
    "gen_data": (),
}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def check_run(workload: str, trace: int, spec: dict) -> list[str]:
    done = run(ROOT, workload, trace)
    where = f"{workload} trace={trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr.strip()[-500:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: not correct: {done.stderr.strip()[-500:]}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    if sorted(result["metrics"]) != sorted(m["name"] for m in wanted):
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got.get('unit')!r}, want {m['unit']!r}")
        if not any(line.strip().startswith(f"{m['name']} = ") and f" {m['unit']} (" in line
                   for line in lines):
            problems.append(f"{where}: {m['name']} not printed with its unit")
    if not trace:
        for name in ("op_s_p50", "op_s_tail", "frames_per_s"):
            if not any(line.strip().startswith(f"{name} = ") for line in lines):
                problems.append(f"{where}: {name} not printed")
        for name in QUALITY[workload]:
            if not any(line.strip().startswith(f"quality {name} = ") for line in lines):
                problems.append(f"{where}: quality metric {name} not printed")
    else:
        sizes = SIZES["tiny"]
        expect = {
            "convert_exact": {"prior.exact_eps_batch.calls": len(sizes.convert_lengths) * T_START,
                              "denoiser.forward.calls": 0},
            "sweep_model": {"denoiser.forward.calls": sizes.sweep_seq * sum(SWEEP_T_STARTS),
                            "prior.exact_eps_batch.calls": 0},
            "train_model": {"denoiser.loss_total.calls":
                            sizes.train_epochs * -(-sizes.train_seq * SEQ_LEN // 64)},
            "gen_data": {"latent.snap_frames.calls": sizes.gen_seq},
        }[workload]
        for name, count in expect.items():
            got = result["metrics"].get(name, {}).get("value")
            if got != count:
                problems.append(f"{where}: {name} = {got}, want {count}")
    return problems


def check_flops() -> list[str]:
    """FLOPs of one loss_total call on a tiny model against a hand count."""
    sys.path.insert(0, str(ROOT / "src"))
    from priorshift import denoiser

    rng = np.random.default_rng(0)
    theta = denoiser.init_denoiser(2, 3, (4,), 2, 2, rng)   # dim 2, 3 labels, hidden 4, cond 2
    phi = denoiser.init_residual(2, (), rng)                # one 2x4 output matrix
    # Over 5 rows: time_w (2x2) at 4 FLOPs per row and weight; layer0_w,
    # layer0_film_gw, layer0_film_dw (4x2 each), out_w (2x4) and the
    # head's out_w (2x4) at 6; label_emb is a gather.
    want = 4 * 5 * 4 + 6 * 5 * 8 * 5
    got = tracing.loss_total_flops(theta, phi, 5)
    return [] if got == want else [f"loss_total FLOPs {got}, hand count {want}"]


def check_bare() -> list[str]:
    """Without the program's sources the benchmark must fail and print no result."""
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, "gen_data", 0)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        print("FAIL BENCHMARK.json names a workload the benchmark lacks")
        return 1
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check_run(workload, trace, spec)
            print(f"{'FAIL' if found else 'ok  '} {workload} trace={trace}", flush=True)
            problems += found
    found = check_flops()
    print(f"{'FAIL' if found else 'ok  '} loss_total FLOP count", flush=True)
    problems += found
    found = check_bare()
    print(f"{'FAIL' if found else 'ok  '} bare directory", flush=True)
    problems += found
    for p in problems:
        print(f"  {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
