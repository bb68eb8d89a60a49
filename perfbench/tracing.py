"""Spans and counters around calls into priorshift's public functions.

The tracer wraps module-level functions from the outside, so the program
itself is unchanged.  A function imported by name into another module
(``from .prior import exact_eps_batch``) is replaced in every priorshift
module that holds it, because callers look the name up in their own
module at call time.  Every replaced attribute is put back by
:meth:`Tracer.restore`.

Spans carry name, start, end and parent, are kept in memory and are
written out by the caller when the run ends.  Per-layer metrics are
computed per op from the spans of that op and then reduced to medians
over the traced ops.
"""
from __future__ import annotations

import os
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable

Measure = Callable[[tuple, dict], float]


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _rows(index: int, name: str) -> Measure:
    def measure(args, kwargs):
        shape = getattr(_arg(args, kwargs, index, name), "shape", ())
        return float(shape[0]) if len(shape) == 2 else 1.0
    return measure


def _file_bytes(index: int, name: str) -> Measure:
    def measure(args, kwargs):
        return float(os.path.getsize(_arg(args, kwargs, index, name)))
    return measure


def loss_total_flops(theta, phi, n: int) -> int:
    """Matmul FLOPs of one forward+backward pass over ``n`` rows, from shapes.

    Every 2-D weight (layer, FiLM, output and residual-head matrices)
    costs 2*n*size forward and 4*n*size backward (weight and input
    gradients); the time projection has no input gradient, and the label
    embedding is a gather, not a matmul.  Elementwise work is not counted.
    """
    flops = 0
    for params in (theta, phi):
        for key, arr in params.tensors.items():
            if arr.ndim == 2 and not (params is theta and key == "label_emb"):
                flops += (4 if params is theta and key == "time_w" else 6) * n * arr.size
    return flops


def _loss_total_flops(args, kwargs) -> float:
    n = _arg(args, kwargs, 2, "x0").shape[0]
    return float(loss_total_flops(_arg(args, kwargs, 0, "theta"), _arg(args, kwargs, 1, "phi"), n))


@dataclass(frozen=True)
class Seam:
    """One public function the tracer wraps.

    ``span=False`` only counts calls; ``measure`` turns the call's
    arguments into one extra quantity (rows, bytes or FLOPs), evaluated
    after the call returns.
    """

    module: str
    func: str
    span: bool = True
    measure: Measure | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.func}"


SEAMS = (
    Seam("cli", "main"),
    Seam("prior", "exact_eps_batch", measure=_rows(3, "x")),
    Seam("prior", "native_class_prob_batch"),
    Seam("sampler", "convert_sequences"),
    Seam("sampler", "frame_metrics"),
    Seam("schedule", "alpha_bar_at", span=False),
    Seam("denoiser", "forward", measure=_rows(1, "x_t")),
    Seam("denoiser", "loss_total", measure=_loss_total_flops),
    Seam("denoiser", "adam_step"),
    Seam("denoiser", "train"),
    Seam("denoiser", "predict_zc2"),
    Seam("denoiser", "save_model", measure=_file_bytes(0, "path")),
    Seam("denoiser", "load_model", measure=_file_bytes(0, "path")),
    Seam("latent", "load_dataset", measure=_file_bytes(0, "path")),
    Seam("latent", "save_dataset", measure=_file_bytes(1, "path")),
    Seam("latent", "snap_frames"),
    Seam("harness", "gen_dataset"),
    Seam("harness", "build_context"),
    Seam("harness", "load_world"),
    Seam("harness", "sweep"),
)

# Log message the train stage emits once per epoch; its arrival times
# give the epoch durations.
EPOCH_LOG_PREFIX = "epoch="


@dataclass
class SpanStats:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    extra: float = 0.0


# Value of ``<seam>.<measure>`` from one op's stats of that seam.
MEASURES: dict[str, Callable[[SpanStats], float]] = {
    "calls": lambda s: float(s.calls),
    "busy_s": lambda s: s.busy,
    "self_s": lambda s: s.self_time,
    "rows_per_call": lambda s: s.extra / s.calls if s.calls else 0.0,
    "mb_per_s": lambda s: s.extra / s.busy / 1e6 if s.busy > 0 else 0.0,
    "gflops_per_s": lambda s: s.extra / s.busy / 1e9 if s.busy > 0 else 0.0,
}
# Metrics that sum the measured bytes of several seams per op.
BYTE_TOTALS = {
    "denoiser.model_bytes": ("denoiser.save_model", "denoiser.load_model"),
    "latent.dataset_bytes": ("latent.load_dataset", "latent.save_dataset"),
}
# Computed apart: from the train stage's epoch log times, and from op wall times.
EPOCH_S = "denoiser.train.epoch_s"
OVERHEAD_S = "trace.overhead_s"


def _value(name: str, st: dict[str, SpanStats]) -> float:
    if name in BYTE_TOTALS:
        return sum(st[seam].extra for seam in BYTE_TOTALS[name])
    seam, measure = name.rsplit(".", 1)
    return MEASURES[measure](st[seam])


class Tracer:
    """Installs wrappers for one op at a time and keeps every span."""

    def __init__(self):
        self.missing: set[str] = set()
        # (op, name, start, end, parent index or -1, measured quantity or None)
        self.spans: list[tuple] = []
        self.counts = dict.fromkeys((s.name for s in SEAMS if not s.span), 0)
        self.op_stats: list[dict[str, SpanStats]] = []
        self.epoch_s: list[float] = []
        self.epoch_log_missing = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._op = -1
        self._op_first_span = 0

    def _wrap(self, seam: Seam, fn):
        name = seam.name
        counts, spans, stack = self.counts, self.spans, self._stack
        if not seam.span:
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            counted.perfbench_original = fn
            return counted

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            done = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = seam.measure(args, kwargs) if done and seam.measure else None
                spans[idx] = (self._op, name, start, end, parent, extra)
        traced.perfbench_original = fn
        return traced

    def install(self, op: int, modules: dict[str, object]) -> None:
        """Wrap every seam in every loaded priorshift module for one op.

        ``modules`` maps short names (``prior``) to the modules the op uses.
        """
        self.missing |= {s.name for s in SEAMS
                         if not callable(getattr(modules[s.module], s.func, None))}
        self._op = op
        self._op_first_span = len(self.spans)
        self.counts.update(dict.fromkeys(self.counts, 0))
        holders = [m for key, m in sys.modules.items()
                   if key == "priorshift" or key.startswith("priorshift.")]
        for seam in SEAMS:
            if seam.name in self.missing:
                continue
            original = getattr(modules[seam.module], seam.func)
            wrapper = self._wrap(seam, original)
            for mod in holders:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def restore(self) -> None:
        """Put back every replaced attribute; raise if any wrapper remains."""
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        left = [f"{m.__name__}.{a}" for m, a, _ in self._patched
                if hasattr(getattr(m, a), "perfbench_original")]
        self._patched.clear()
        if left:
            raise RuntimeError(f"wrappers not restored: {', '.join(left)}")

    def finish_op(self, log_records: list[tuple[float, str, tuple]]) -> None:
        """Reduce the spans of the op just traced to per-seam stats."""
        spans = self.spans[self._op_first_span:]
        base = self._op_first_span
        stats = {s.name: SpanStats() for s in SEAMS}
        child = [0.0] * len(spans)
        for _, _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent - base] += end - start
        train_start = None
        for i, (_, name, start, end, _, extra) in enumerate(spans):
            st = stats[name]
            st.calls += 1
            st.busy += end - start
            st.self_time += end - start - child[i]
            st.extra += extra or 0.0
            if name == "denoiser.train" and train_start is None:
                train_start = start
        for name, n in self.counts.items():
            stats[name].calls = n
        self.op_stats.append(stats)
        epochs = [t for t, msg, _ in log_records if msg.startswith(EPOCH_LOG_PREFIX)]
        if train_start is None:
            self.epoch_s.append(0.0)
        elif not epochs:
            self.epoch_log_missing = True
        else:
            marks = [train_start] + epochs
            self.epoch_s.append(statistics.median(b - a for a, b in zip(marks, marks[1:])))

    def layer_metrics(self, names, overhead_s: float) -> tuple[dict[str, float], list[str]]:
        """Median over traced ops of each named layer metric; plus missing names."""
        out: dict[str, float] = {}
        missing = []
        for name in names:
            seams = BYTE_TOTALS.get(name, (name.rsplit(".", 1)[0],))
            if name == OVERHEAD_S:
                out[name] = overhead_s
            elif any(s in self.missing for s in seams) or (
                    name == EPOCH_S and self.epoch_log_missing):
                missing.append(name)
            elif name == EPOCH_S:
                out[name] = statistics.median(self.epoch_s)
            else:
                out[name] = statistics.median(_value(name, st) for st in self.op_stats)
        return out, missing

    def span_records(self, t0: float) -> list[list]:
        """Spans as [op, name, start_s, end_s, parent] relative to ``t0``."""
        return [[op, name, round(s - t0, 9), round(e - t0, 9), parent]
                for op, name, s, e, parent, _ in self.spans]
