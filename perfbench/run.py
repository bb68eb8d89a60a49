"""priorshift benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload convert_exact --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``.  Set-up (imports, world and inputs, and for ``sweep_model`` the
model) is done SETUP_REPEATS times, spread evenly over a closed loop of
ops that runs for ``--seconds`` of op time.  Every op's output is
checked.  With ``--trace 1`` ops
alternate untraced and traced, and the per-layer metrics come from the
traced ones.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The full record of the
run (machine, op times, digests, quality numbers, spans) is written under
``.perfbench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import importlib
import json
import logging
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import scipy.special  # noqa: F401  priorshift's third-party imports are not set-up work

import machine
import tracing
from workloads import SIZES, WORKLOADS, sha256

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
# The tail is the highest percentile with this many ops beyond it, so a
# run goes on past --seconds until it has one more op than that, or until
# TAIL_WAIT_FACTOR * --seconds have passed.
TAIL_OPS = 10
TAIL_WAIT_FACTOR = 3
# Printed and recorded but not in BENCHMARK.json.  The host's speed swings
# between levels for seconds to minutes, and a slow level only ever adds
# time to these ops, which do the same work every time.  So the median,
# the tail and the total-time throughput move with the share of a run that
# met slow levels, and their ten-seed spreads reached the largest bound a
# metric may have.  op_s_min, the op least disturbed by the host, carries
# the program's own cost with a fraction of that spread.
UNGATED = {"op_s_p50": ("s", "lower"), "op_s_tail": ("s", "lower"),
           "frames_per_s": ("frames/s", "higher")}
PRIORSHIFT_MODULES = ("cli", "denoiser", "harness", "latent", "prior", "sampler", "schedule")


class LogCapture(logging.Handler):
    """Keeps (arrival time, message, args) of every priorshift log record."""

    def __init__(self) -> None:
        super().__init__(logging.INFO)
        self.records: list[tuple[float, str, tuple]] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append((time.perf_counter(), str(record.msg), record.args))


def import_priorshift() -> SimpleNamespace:
    """Fresh import of the program's modules from the checkout's ``src/``."""
    for key in [k for k in sys.modules if k == "priorshift" or k.startswith("priorshift.")]:
        del sys.modules[key]
    mods = {name: importlib.import_module(f"priorshift.{name}") for name in PRIORSHIFT_MODULES}
    where = Path(mods["cli"].__file__).resolve().parent
    if where != (SRC / "priorshift").resolve():
        raise RuntimeError(f"priorshift imported from {where}, not from {SRC}")
    return SimpleNamespace(**mods)


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_OPS ops beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_OPS:
        return ordered[-1], 100.0
    return ordered[n - TAIL_OPS - 1], 100.0 * (n - TAIL_OPS) / n


def parse_args(argv, workloads) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input sizes; tiny is for the smoke test")
    args = p.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        p.error("--seconds must be > 0 and --seed >= 0")
    return args


def set_up(wl, d: Path) -> tuple[SimpleNamespace, float]:
    """One timed set-up in a new directory: a fresh import, then the inputs."""
    d.mkdir()
    t0 = time.perf_counter()
    ps = import_priorshift()
    wl.setup(ps, d)
    return ps, time.perf_counter() - t0


def run_ops(wl, work: Path, seconds: float, trace: bool, capture: LogCapture, tracer):
    """Closed loop of ops, with SETUP_REPEATS set-ups spread evenly over it.

    The host's speed drifts over seconds, so set-ups done back to back
    would all see one speed; spread out, their median sees the same mix of
    speeds as the ops.  The ops after a set-up use its import and its
    inputs, so every set-up's output is checked too.  Set-up time does not
    count toward ``seconds``.  Returns per-op records, set-up times, and the
    last import and directory.
    """
    ops: list[dict] = []
    setup_s: list[float] = []
    ref = None
    op_since_setup = True     # every set-up is followed by at least one op
    begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin - sum(setup_s)
        if op_since_setup and len(setup_s) < SETUP_REPEATS and (
                elapsed >= len(setup_s) * seconds / SETUP_REPEATS):
            d = work / f"setup{len(setup_s)}"
            ps, dt = set_up(wl, d)
            setup_s.append(dt)
            op_since_setup = False
            continue
        if op_since_setup and len(setup_s) == SETUP_REPEATS and elapsed >= seconds and (
                len(ops) > TAIL_OPS or elapsed >= TAIL_WAIT_FACTOR * seconds):
            return ops, setup_s, ps, d
        traced = trace and len(ops) % 2 == 1
        (d / wl.output).unlink(missing_ok=True)
        capture.records.clear()
        error = None
        if traced:
            tracer.install(len(ops), vars(ps))
        t0 = time.perf_counter()
        try:
            obs = wl.op(ps, d, capture.records)
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            obs, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if traced:
            tracer.restore()
            tracer.finish_op(capture.records)
        digest = None
        if error is None:
            try:
                digest = sha256(d / wl.output)
                if ref is None:
                    wl.check(ps, d, obs)
                    ref = (digest, obs)
                elif (digest, obs) != ref:
                    error = "output differs from the first op's"
            except Exception as exc:  # a check that cannot run fails the op
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            print(f"op {len(ops)} failed: {error}", file=sys.stderr)
        ops.append({"seconds": dt, "traced": traced, "sha256": digest, "error": error,
                    "obs": obs, "setup": len(setup_s) - 1})
        op_since_setup = True


def main(argv=None) -> int:
    args = parse_args(argv, WORKLOADS)
    if not (SRC / "priorshift" / "__init__.py").is_file():
        print(f"error: no priorshift sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: (m["unit"], m["better"]) for m in wanted}
    wl = WORKLOADS[args.workload](SIZES[args.size], args.seed)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=ROOT / ".perfbench_work"))
    capture = LogCapture()
    logger = logging.getLogger("priorshift")
    logger.setLevel(logging.INFO)
    logger.propagate = False
    logger.addHandler(capture)
    try:
        tracer = tracing.Tracer()
        ops, setup_s, ps, d = run_ops(wl, work, args.seconds, bool(args.trace), capture, tracer)
        good = [op for op in ops if op["error"] is None]
        quality = wl.quality(ps, d, good[0]["obs"]) if good else {}
    finally:
        logger.removeHandler(capture)
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(op["error"] is not None for op in ops)
    plain = [op["seconds"] for op in ops if not op["traced"]]
    missing: list[str] = []
    if args.trace:
        traced = [op["seconds"] for op in ops if op["traced"]]
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics, missing = tracer.layer_metrics(units, overhead)
        tail_pct = None
    else:
        tail_s, tail_pct = tail(plain)
        metrics = {
            "op_s_min": min(plain),
            "op_s_p50": statistics.median(plain),
            "op_s_tail": tail_s,
            "frames_per_s": wl.frames_per_op() * len(plain) / sum(plain),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    info = machine.describe(ROOT)
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "machine": info, "setup_s": setup_s,
        "ops": [{k: v for k, v in op.items() if k != "obs"} for op in ops],
        "op_s_tail_percentile": tail_pct, "quality": quality, "missing_layer_metrics": missing,
        "metrics": metrics,
    }
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        (out_dir / f"{stem}-spans.json").write_text(
            json.dumps(tracer.span_records(tracer.spans[0][2] if tracer.spans else 0.0)) + "\n",
            encoding="utf-8")

    print(f"workload {wl.name} seed {args.seed}: {len(ops)} ops, {failed} failed, "
          f"set-up x{SETUP_REPEATS}, one closed-loop client")
    for name, value in metrics.items():
        unit, better = units[name] if name in units else UNGATED[name]
        note = "" if name in units else ", not gated"
        if name == "op_s_tail":
            note = f", p{tail_pct:.1f} of {len(plain)} ops"
        print(f"  {name} = {value:.6g} {unit} ({better} is better{note})")
    for name, (value, unit, better) in quality.items():
        print(f"  quality {name} = {value:.10g} {unit} ({better} is better)")
    if missing:
        print(f"missing layer metrics: {', '.join(missing)}", file=sys.stderr)
    print("machine " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and bool(good),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items() if name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
