"""Deterministic reverse inference and sequence conversion.

The reverse pass is the noise-free update: reconstruct the clean frame
from the current state and a noise prediction, then re-corrupt it to the
previous step's level with the same prediction.  Conversion corrupts an
input sequence to a chosen start step and runs that update chain back to
step zero, optionally snapping to a codebook and adding a learned
second-stage residual.  Everything here takes (n, d) frame blocks.  All
sequences of one conversion run share the start step, so conversion packs
their frames into one block and runs the reverse chain once over it; each
sequence keeps its own noise substream, so packing changes only how the
work is batched.  A predictor is bound to the block's labels once per
chain, which gives the ``step(x, t)`` every reverse step calls.
Conversion returns frames only: callers score them with
:func:`frame_metrics`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .denoiser import DenoiserParams, ResidualParams, forward, predict_zc2
from .latent import Codebook, LatentSequence, Standardizer, check_labels, \
    destandardize_frames, snap_frames, standardize_frames
from .prior import ConditionalGMM, exact_eps_batch, native_class_prob_batch, noised_tables
from .rng import PURPOSE_CONVERT, substream
from .schedule import Schedule, ddim_step, forward_corrupt

# A noise prediction for an (n, d) block at one step, bound to n labels.
EpsStep = Callable[[np.ndarray, int], np.ndarray]
# Binds a predictor to a chain's labels.
Predictor = Callable[[np.ndarray], EpsStep]


@dataclass(frozen=True)
class ConvertContext:
    """Fixed machinery shared by every sequence in one conversion run.

    ``predictor`` is bound to each run's labels once.  With a ``codebook``,
    conversion snaps its first-stage frames to it; with a ``residual`` head,
    it adds the predicted second stage.  Conversion returns frames only.
    """

    sched: Schedule
    standardizer: Standardizer
    predictor: Predictor
    codebook: Codebook | None = None
    residual: ResidualParams | None = None


def denoise_from(x: np.ndarray, t_start: int, step: EpsStep, sched: Schedule) -> np.ndarray:
    """Run the reverse chain from user-scale step ``t_start`` down to clean,
    with ``step`` bound to the rows of ``x``.

    ``t_start`` = k means the input sits at schedule index k - 1 and k
    reverse steps run; 0 returns the input unchanged.
    """
    x = np.array(x, dtype=np.float64)
    if not 0 <= t_start <= sched.T:
        raise ValueError(f"t_start {t_start} outside [0, {sched.T}]")
    for t in range(t_start - 1, -1, -1):
        x = ddim_step(x, t, step(x, t), sched)
    return x


def prior_eps_source(p: ConditionalGMM, sched: Schedule) -> Predictor:
    """Exact predictor from an analytic mixture over the same frame space.
    Binding checks the labels.  Every step calls :func:`exact_eps_batch` on
    noised tables of the labels' distinct mixtures.  The first step builds
    the tables of its own step alone, so a predictor bound for one call (as
    :func:`~priorshift.denoiser.eval_loss_diff` binds one per step) builds
    one step; a step outside the tables builds that step and every step
    below it, the rest of a chain that runs down from there."""

    def bind(labels: np.ndarray) -> EpsStep:
        labels = check_labels(labels, p.n_labels)
        tables = None

        def step(x: np.ndarray, t: int) -> np.ndarray:
            nonlocal tables
            if tables is None:
                tables = noised_tables(p, labels, t, t, sched)
            elif t not in tables.steps:
                tables = noised_tables(p, labels, 0, t, sched)
            return exact_eps_batch(tables, None, t, x, sched)

        return step

    return bind


def model_eps_source(theta: DenoiserParams) -> Predictor:
    """Trained predictor, always evaluated without dropout.  Every bound
    step shares one workspace, bound to ``theta`` for the source's life: the
    FiLM label tables are built on the first step and every step of every
    chain reuses them and the row blocks.  ``theta`` must not change while
    the source is in use."""
    workspace: dict = {}

    def bind(labels: np.ndarray) -> EpsStep:
        labels = np.asarray(labels)
        return lambda x, t: forward(theta, x, t, labels, workspace=workspace)

    return bind


def frame_metrics(
    inp: np.ndarray,
    out: np.ndarray,
    labels: np.ndarray,
    native: ConditionalGMM,
    l2: ConditionalGMM,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-frame identity distance, cosine to input, and nativeness probability."""
    diff = out - inp
    l2d = np.sqrt((diff * diff).sum(axis=1))
    denom = np.linalg.norm(inp, axis=1) * np.linalg.norm(out, axis=1)
    cos = (inp * out).sum(axis=1) / np.maximum(denom, 1e-300)
    prob = native_class_prob_batch(native, l2, labels, out)
    return l2d, cos, prob


def convert_sequences(
    seqs: Sequence[LatentSequence],
    ctx: ConvertContext,
    t_start: int,
    seed: int,
) -> list[LatentSequence]:
    """Translate a batch of sequences toward the native prior, in input order.

    ``t_start`` counts corruption steps on the user scale 1..T (0 skips
    diffusion entirely).  Every sequence shares it, so the frames of all of
    them are packed into one block and go through each stage once:
    standardize, corrupt to the start step, bind the predictor to the packed
    labels and run the deterministic reverse chain (one call of the bound
    step per reverse step), destandardize, add the predicted
    second-stage residual when the context has a residual head (computed on
    the pre-snap frames), and snap the first-stage frames when the context
    has a codebook.  Sequence ``i`` draws its noise from substream ``(seed,
    PURPOSE_CONVERT, i)``, so its result depends only on its position, never
    on the other sequences in the batch.
    """
    if not 0 <= t_start <= ctx.sched.T:
        raise ValueError(f"t_start must lie in [0, {ctx.sched.T}], got {t_start}")
    if ctx.residual is not None:
        for seq in seqs:
            if seq.h is None:
                raise ValueError(f"sequence {seq.id!r} lacks the h track needed for the residual")
    if not seqs:
        return []
    labels = np.concatenate([np.asarray(seq.labels) for seq in seqs])
    z = standardize_frames(np.concatenate([seq.frames for seq in seqs]), ctx.standardizer)
    if t_start > 0:
        eps = np.concatenate([
            substream(seed, PURPOSE_CONVERT, i).standard_normal(np.shape(seq.frames))
            for i, seq in enumerate(seqs)
        ])
        x_t = forward_corrupt(z, t_start - 1, eps, ctx.sched)
        z = denoise_from(x_t, t_start, ctx.predictor(labels), ctx.sched)
    zc1 = destandardize_frames(z, ctx.standardizer)
    zc2 = 0.0
    if ctx.residual is not None:
        zc2 = predict_zc2(ctx.residual, np.concatenate([seq.h for seq in seqs]), zc1)
    if ctx.codebook is not None:
        _, zc1 = snap_frames(zc1, ctx.codebook)
    bounds = np.cumsum([len(seq) for seq in seqs])[:-1]
    return [
        LatentSequence(id=seq.id, labels=lab, frames=frames)
        for seq, lab, frames in zip(seqs, np.split(labels, bounds), np.split(zc1 + zc2, bounds))
    ]
