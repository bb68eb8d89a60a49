"""Synthetic experiment harness.

Builds paired native and shifted priors with a shared codebook, samples
labeled training and evaluation sequences from them, and measures how the
start-step knob trades identity preservation against nativeness across a
sweep.  Also tabulates one-dimensional clean-frame posteriors for the
likelihood-versus-prior picture.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .denoiser import ModelBundle
from .latent import Codebook, LatentSequence, Standardizer, atomic_write, check_field_ranges, \
    check_field_types, fit_standardizer, parse_field, settings_from_json, snap_frames
from .prior import (
    ConditionalGMM,
    logpdf_batch,
    marginal_1d,
    native_class_prob_batch,
    posterior_grid,
    sample_frames,
    standardized,
)
from .rng import PURPOSE_DATA, PURPOSE_WORLD, substream
from .sampler import (
    ConvertContext,
    convert_sequences,
    frame_metrics,
    model_eps_source,
    prior_eps_source,
)
from .schedule import Schedule, alpha_bar_at, check_start_steps

WORLD_MAGIC = "PRIORSHIFT-WORLD v1"

# Native and shifted samples must differ by at least this much mean
# classifier probability for a world to count as separated.
SEPARATION_MIN = 0.2
MAX_WORLD_ATTEMPTS = 64
_SEP_SAMPLE = 2048
_STD_SAMPLE = 8192
# Most lines of a posterior CSV formatted by one `%` call: a call over a
# whole million-point curve would hold ~100 MB of floats and text.
CSV_BLOCK_LINES = 2 ** 16
# Bounds on the arrays a world holds or gen_world draws.  A fresh gen-world
# peaked at ~310 MB of RSS at the prior bound with one value per (label,
# component), each a JSON list in the world file (--labels 262144 --dim 1
# --components 1), and at every bound with the widest frames (--labels 128
# --dim 1024 --codebook-size 256).
MAX_DIM = 2 ** 10  # the standardizer's sample is _STD_SAMPLE x dim
# n_components x dim: _separation scores _SEP_SAMPLE frames against every
# component at once (~230 MB at --labels 1 --components 2048 --dim 1).
MAX_COMPONENT_VALUES = 2 ** 11
MAX_PRIOR_VALUES = 2 ** 18  # n_labels x n_components x dim, per prior
MAX_CODEBOOK_VALUES = 2 ** 18  # codebook_size x dim


@dataclass(frozen=True)
class WorldSpec:
    dim: int = 8
    n_labels: int = 16
    n_components: int = 2
    codebook_size: int = 64
    h_noise: float = 0.05
    l2_shift: float = 1.5
    mean_scale: float = 2.0
    var_lo: float = 0.5
    var_hi: float = 1.5
    seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        check_field_ranges(self, (
            ("dim", self.dim >= 1, ">= 1"),
            ("n_labels", self.n_labels >= 1, ">= 1"),
            ("n_components", self.n_components >= 1, ">= 1"),
            ("codebook_size", self.codebook_size >= 1, ">= 1"),
            ("dim", self.dim <= MAX_DIM, f"<= {MAX_DIM}"),
            ("n_components", self.n_components * self.dim <= MAX_COMPONENT_VALUES,
             f"<= {MAX_COMPONENT_VALUES} / dim"),
            ("n_labels", self.n_labels * self.n_components * self.dim <= MAX_PRIOR_VALUES,
             f"<= {MAX_PRIOR_VALUES} / (n_components * dim)"),
            ("codebook_size", self.codebook_size * self.dim <= MAX_CODEBOOK_VALUES,
             f"<= {MAX_CODEBOOK_VALUES} / dim"),
            ("h_noise", self.h_noise >= 0, ">= 0"),
            ("l2_shift", self.l2_shift >= 0, ">= 0"),
            ("mean_scale", self.mean_scale >= 0, ">= 0"),
            ("var_lo", self.var_lo > 0, "positive"),
            ("var_hi", self.var_hi >= self.var_lo, ">= var_lo"),
        ))


@dataclass(frozen=True)
class World:
    spec: WorldSpec
    native: ConditionalGMM
    l2: ConditionalGMM
    codebook: Codebook
    standardizer: Standardizer
    attempts: int = 1


def _draw_world(spec: WorldSpec, rng: np.random.Generator) -> World:
    K, C, d = spec.n_labels, spec.n_components, spec.dim
    means = rng.normal(0.0, spec.mean_scale, size=(K, C, d))
    variances = rng.uniform(spec.var_lo, spec.var_hi, size=(K, C, d))
    weights = rng.dirichlet(np.full(C, 5.0), size=K)
    pooled = float(np.sqrt(variances.mean()))
    dirs = rng.standard_normal((K, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    native = ConditionalGMM(weights=weights, means=means, variances=variances)
    l2 = ConditionalGMM(
        weights=weights.copy(),
        means=means + (spec.l2_shift * pooled) * dirs[:, None, :],
        variances=variances.copy(),
    )
    cb_labels = rng.integers(0, K, size=spec.codebook_size)
    entries = sample_frames(native, cb_labels, rng)
    codebook = Codebook(entries=entries)
    std_labels = rng.integers(0, K, size=_STD_SAMPLE)
    draw = sample_frames(native, std_labels, rng)
    _, snapped = snap_frames(draw, codebook)
    return World(spec=spec, native=native, l2=l2, codebook=codebook,
                 standardizer=fit_standardizer(snapped))


def _separation(world: World, rng: np.random.Generator) -> float:
    labels = rng.integers(0, world.spec.n_labels, size=_SEP_SAMPLE)
    nat = sample_frames(world.native, labels, rng)
    shifted = sample_frames(world.l2, labels, rng)
    p_nat = native_class_prob_batch(world.native, world.l2, labels, nat).mean()
    p_l2 = native_class_prob_batch(world.native, world.l2, labels, shifted).mean()
    return float(p_nat - p_l2)


def gen_world(spec: WorldSpec) -> World:
    """Draw priors, codebook, and standardizer; retry until classes separate.

    With a zero shift the two priors coincide and no separation is asked
    for.  Otherwise redraw (counting attempts) until native and shifted
    samples differ by at least ``SEPARATION_MIN`` mean class probability.
    """
    for attempt in range(MAX_WORLD_ATTEMPTS):
        rng = substream(spec.seed, PURPOSE_WORLD, attempt)
        world = _draw_world(spec, rng)
        if spec.l2_shift == 0 or _separation(world, rng) >= SEPARATION_MIN:
            return replace(world, attempts=attempt + 1)
    raise RuntimeError(
        f"no world with class separation >= {SEPARATION_MIN} in {MAX_WORLD_ATTEMPTS} attempts"
    )


def gen_dataset(
    world: World, which: str, n_seq: int, seq_len: int, rng: np.random.Generator
) -> list[LatentSequence]:
    """Sample labeled sequences; frames are codebook-quantized draws.

    Each frame carries the quantization remainder as its zc2 target and a
    lightly noised copy of the unquantized draw as its encoder feature.
    """
    if which not in ("native", "l2"):
        raise ValueError(f"dataset source must be 'native' or 'l2', got {which!r}")
    if n_seq < 1 or seq_len < 1:
        raise ValueError("n_seq and seq_len must be >= 1")
    gmm = world.native if which == "native" else world.l2
    draws = []
    for _ in range(n_seq):
        labels = rng.integers(0, world.spec.n_labels, size=seq_len)
        c = sample_frames(gmm, labels, rng)
        draws.append((labels, c, c + world.spec.h_noise * rng.standard_normal(c.shape)))
    # Snapping draws no random numbers, so every sequence's draws are snapped
    # in one call after the stream has been read in the per-sequence order.
    _, zc1 = snap_frames(np.concatenate([c for _, c, _ in draws]), world.codebook)
    return [
        LatentSequence(id=f"{which}-{i:05d}", labels=labels, frames=q, zc2=c - q, h=h)
        for i, ((labels, c, h), q) in enumerate(zip(draws, np.split(zc1, n_seq)))
    ]


def build_context(
    world: World, sched: Schedule, bundle: ModelBundle | None, snap: bool = True
) -> ConvertContext:
    """Conversion context for either the exact predictor or a trained model.

    The exact route standardizes the native prior with the world's own
    standardizer; the model route uses the standardizer the model was
    trained with and enables its residual head.  With ``snap`` the context
    keeps the world's codebook, so conversion snaps to it.
    """
    if bundle is None:
        std = world.standardizer
        predictor = prior_eps_source(standardized(world.native, std), sched)
        residual = None
    else:
        std = bundle.standardizer
        predictor = model_eps_source(bundle.theta)
        residual = bundle.phi
    return ConvertContext(
        sched=sched, standardizer=std, predictor=predictor,
        codebook=world.codebook if snap else None, residual=residual,
    )


@dataclass(frozen=True)
class SweepRow:
    t_start: int
    identity_l2: float
    identity_cos: float
    native_prob: float
    n_frames: int


def sweep(
    world: World,
    ctx: ConvertContext,
    t_starts: list[int],
    n_seq: int,
    seq_len: int,
    seed: int,
    stratify_labels: bool = False,
) -> list[SweepRow]:
    """Convert one shifted dataset with ``ctx`` at each start step and
    aggregate metrics, one row per start step: each metric's mean over its
    frames, or with ``stratify_labels`` the mean of its per-label means.

    The evaluation set and every per-sequence noise substream are fixed by
    ``seed`` alone, so rows differ only through the start step (paired
    noise across rows) and repeated runs are identical.
    """
    check_start_steps("t_starts", t_starts, 0, ctx.sched)
    data = gen_dataset(world, "l2", n_seq, seq_len, substream(seed, PURPOSE_DATA))
    inp = np.concatenate([s.frames for s in data], axis=0)
    labels = np.concatenate([s.labels for s in data])
    groups = [np.flatnonzero(labels == k) for k in np.unique(labels)] if stratify_labels \
        else [slice(None)]
    rows = []
    for ts in t_starts:
        out = np.concatenate([seq.frames for seq in convert_sequences(data, ctx, int(ts), seed)])
        l2d, cos, prob = frame_metrics(inp, out, labels, world.native, world.l2)
        l2m, cosm, probm = (float(np.mean([v[g].mean() for g in groups])) for v in (l2d, cos, prob))
        rows.append(
            SweepRow(
                t_start=int(ts), identity_l2=l2m, identity_cos=cosm,
                native_prob=probm, n_frames=int(inp.shape[0]),
            )
        )
    return rows


def sweep_csv(rows: list[SweepRow]) -> str:
    """The sweep CSV: a header line, then one line per row."""
    lines = ["t_start,identity_l2,identity_cos,native_prob,n_frames"]
    lines += [f"{r.t_start},{r.identity_l2:.17g},{r.identity_cos:.17g},"
              f"{r.native_prob:.17g},{r.n_frames}" for r in rows]
    return "\n".join(lines) + "\n"


def posterior_curves(
    world: World,
    label: int,
    x0_l2: float,
    t_starts: list[int],
    grid: np.ndarray,
    sched: Schedule,
    dim: int = 0,
    out_dir: str | None = None,
) -> dict[int, np.ndarray]:
    """One-dimensional posterior curves over the start-step sweep, as
    ``{t_start: density on grid}``.

    The shifted frame value ``x0_l2`` is corrupted noiselessly (its exact
    mean path) to each user-scale start step, and the clean-frame posterior
    under the chosen coordinate of the native prior is tabulated on the
    grid.  When ``out_dir`` is set, prior, likelihood, and posterior curves
    land there as two-column CSV files.
    """
    grid = np.asarray(grid, dtype=np.float64)
    check_start_steps("t_starts", t_starts, 1, sched)
    gmm1 = marginal_1d(world.native, dim)
    curves: dict[int, np.ndarray] = {}
    files: list[tuple[str, np.ndarray]] = []
    for ts in t_starts:
        ts = int(ts)
        ab = alpha_bar_at(sched, ts - 1)
        x_t = float(np.sqrt(ab) * x0_l2)
        curves[ts] = posterior_grid(gmm1, label, ts - 1, x_t, grid, sched)
        lik_var = (1.0 - ab) / ab
        lik = np.exp(-0.5 * (grid - x_t / np.sqrt(ab)) ** 2 / lik_var)
        lik /= np.sqrt(2.0 * np.pi * lik_var)
        files.append((f"likelihood_t{ts:03d}.csv", lik))
        files.append((f"posterior_t{ts:03d}.csv", curves[ts]))
    # The prior curve comes last, so a grid that a posterior rejects fails
    # before the prior is computed on it.
    prior_dens = np.exp(logpdf_batch(gmm1, np.full(grid.shape[0], int(label)), grid[:, None]))
    files.insert(0, ("prior.csv", prior_dens))
    if out_dir is not None:
        root = Path(out_dir)
        root.mkdir(parents=True, exist_ok=True)
        for name, dens in files:
            with atomic_write(str(root / name)) as fh:
                fh.write("x,density\n")
                for lo in range(0, grid.size, CSV_BLOCK_LINES):
                    xy = np.column_stack((grid[lo:lo + CSV_BLOCK_LINES],
                                          dens[lo:lo + CSV_BLOCK_LINES]))
                    fh.write("%.17g,%.17g\n" * len(xy) % tuple(xy.ravel().tolist()))
    return curves


def _attempts_from_json(obj) -> int:
    if type(obj) is not int or obj < 1:
        raise ValueError(f"must be a positive integer, got {obj!r}")
    return obj


def _arrays_to_json(obj) -> dict:
    return {f.name: getattr(obj, f.name).tolist() for f in fields(obj)}


def _arrays_from_json(cls):
    """Builder of ``cls`` from a JSON object holding each field, and nothing
    else, as nested lists."""
    names = [f.name for f in fields(cls)]

    def build(obj):
        missing = [name for name in names if name not in obj]
        if missing:
            raise ValueError(f"lacks key {missing[0]!r}")
        unknown = sorted(set(obj) - set(names))
        if unknown:
            raise ValueError(f"unknown keys: {', '.join(unknown)}")
        return cls(**{name: obj[name] for name in names})
    return build


# The world file's fields, named as World's: (field, to JSON, from JSON).
# save_world and load_world both walk it; the file also holds "format".
_WORLD_FIELDS = (
    ("spec", lambda w: asdict(w.spec), lambda obj: settings_from_json(WorldSpec, obj)),
    ("native", lambda w: _arrays_to_json(w.native), _arrays_from_json(ConditionalGMM)),
    ("l2", lambda w: _arrays_to_json(w.l2), _arrays_from_json(ConditionalGMM)),
    ("codebook", lambda w: w.codebook.entries.tolist(), lambda obj: Codebook(entries=obj)),
    ("standardizer", lambda w: _arrays_to_json(w.standardizer), _arrays_from_json(Standardizer)),
    ("attempts", lambda w: w.attempts, _attempts_from_json),
)


def save_world(world: World, path: str) -> None:
    doc = {"format": WORLD_MAGIC, **{name: to_json(world) for name, to_json, _ in _WORLD_FIELDS}}
    with atomic_write(path) as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_world(path: str) -> World:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != WORLD_MAGIC:
        raise ValueError(f"{path}: not a world file (format {fmt!r})")
    unknown = sorted(set(doc) - {"format", *(name for name, _, _ in _WORLD_FIELDS)})
    if unknown:
        raise ValueError(f"{path}: unknown keys: {', '.join(unknown)}")
    for name, _, _ in _WORLD_FIELDS:
        if name not in doc:
            raise ValueError(f"{path}: missing field {name!r}")
    world = World(**{name: parse_field(path, f"field {name!r}", from_json, doc[name])
                     for name, _, from_json in _WORLD_FIELDS})
    spec = world.spec
    for name, got, want in (
        ("native", world.native.means.shape, (spec.n_labels, spec.n_components, spec.dim)),
        ("l2", world.l2.means.shape, (spec.n_labels, spec.n_components, spec.dim)),
        ("codebook", world.codebook.entries.shape, (len(world.codebook), spec.dim)),
        ("standardizer", world.standardizer.mean.shape, (spec.dim,)),
    ):
        if got != want:
            raise ValueError(f"{path}: field {name!r} has shape {got}, spec needs {want}")
    return world
