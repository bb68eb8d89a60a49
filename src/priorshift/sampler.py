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
work is batched.  The reverse chain resolves everything but its
arithmetic once, when it starts: it binds its predictor to the block's
labels and the steps it will run, which gives the ``step(x, t)`` every
reverse step calls, and reads the schedule's scales for those steps.
Then each step updates the chain's own frame blocks in place.  A bound
exact step works in blocks made with its noised tables, and a bound model
step in its source's workspace, so after the first step a chain allocates
little beyond each step's noise prediction.  Conversion returns frames
only: callers score them with :func:`frame_metrics`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .denoiser import MLPParams, bind_forward, predict_zc2
from .latent import Codebook, LatentSequence, Standardizer, \
    destandardize_frames, snap_frames, standardize_frames
from .prior import ConditionalGMM, exact_eps_batch, native_class_prob_batch, noised_tables
from .rng import PURPOSE_CONVERT, substream
from .schedule import Schedule, check_start_steps, ddim_update, forward_corrupt, \
    step_roots

# A noise prediction for an (n, d) block at one step, bound to n labels.
EpsStep = Callable[[np.ndarray, int], np.ndarray]
# Binds a predictor to a chain's labels and the steps it will run.
Predictor = Callable[[np.ndarray, range], EpsStep]


@dataclass(frozen=True)
class ConvertContext:
    """Fixed machinery shared by every sequence in one conversion run.

    The chain binds ``predictor`` once per run.  With a ``codebook``,
    conversion snaps its first-stage frames to it; with a ``residual`` head,
    it adds the predicted second stage.  Conversion returns frames only.
    """

    sched: Schedule
    standardizer: Standardizer
    predictor: Predictor
    codebook: Codebook | None = None
    residual: MLPParams | None = None


def denoise_from(x: np.ndarray, t_start: int, predictor: Predictor, labels: np.ndarray,
                 sched: Schedule) -> np.ndarray:
    """Run the reverse chain from user-scale step ``t_start`` down to clean,
    with ``predictor`` bound once to ``labels``, one per row of ``x``, and
    the chain's steps.

    ``t_start`` = k means the input sits at schedule index k - 1 and the k
    reverse steps k - 1, ..., 0 run; 0 binds nothing and returns a copy of
    the input.  The chain also reads the scales of its steps once, and owns
    two frame blocks: each step's update goes into one, and the other, the
    state the step started from, takes the update's temporary.  So the
    update allocates nothing, and each step gives the bits of
    :func:`ddim_step`.  No step writes to the input, so the result never
    shares memory with ``x``.
    """
    x = np.asarray(x, dtype=np.float64)
    check_start_steps("t_start", [t_start], 0, sched)
    if t_start == 0:
        return x.copy()
    step = predictor(labels, range(t_start))
    roots = step_roots(sched, t_start)
    out, spare = np.empty(x.shape), np.empty(x.shape)
    for t in range(t_start - 1, -1, -1):
        x = ddim_update(x, step(x, t), roots[t], roots[t - 1] if t else None, out, spare)
        out, spare = spare, out
    return x


def prior_eps_source(p: ConditionalGMM, sched: Schedule) -> Predictor:
    """Exact predictor from an analytic mixture over the same frame space.
    Binding builds the noised tables of the labels' distinct mixtures for
    the bound steps, with the blocks the kernel works in; every step calls
    :func:`exact_eps_batch` on them."""

    def bind(labels: np.ndarray, steps: range) -> EpsStep:
        tables = noised_tables(p, labels, steps, sched)
        return lambda x, t: exact_eps_batch(tables, None, t, x, sched)

    return bind


def model_eps_source(theta: MLPParams) -> Predictor:
    """Trained predictor, always evaluated without dropout.  Binding checks
    the labels once, and each bound step runs the network without the
    per-call checks of :func:`forward`.  Every bound step shares one
    workspace, bound to ``theta`` for the source's life: the FiLM label
    tables of ``theta`` are built on the first step, and every step of every
    chain reuses them, the row blocks and each step's time rows, whatever
    steps it was bound to.  ``theta`` must not change while the source is
    in use."""
    workspace: dict = {}

    def bind(labels: np.ndarray, steps: range) -> EpsStep:
        return bind_forward(theta, labels, workspace)

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
    standardize, corrupt to the start step, run the deterministic reverse
    chain with the predictor bound to the packed labels (one call of the
    bound step per reverse step), destandardize, add the predicted
    second-stage residual when the context has a residual head (computed on
    the pre-snap frames), and snap the first-stage frames when the context
    has a codebook.  Sequence ``i`` draws its noise from substream ``(seed,
    PURPOSE_CONVERT, i)``.  With the exact predictor its result therefore
    depends only on its position, bit for bit, never on the other sequences
    in the batch; with a trained model it does so to rounding level, as the
    batch's row count can change how BLAS blocks the model's matrix products.
    """
    check_start_steps("t_start", [t_start], 0, ctx.sched)
    if ctx.residual is not None:
        for seq in seqs:
            if seq.h is None:
                raise ValueError(f"sequence {seq.id!r} lacks the h track needed for the residual")
    if not seqs:
        return []
    labels = np.concatenate([seq.labels for seq in seqs])

    def standardized() -> np.ndarray:
        return standardize_frames(np.concatenate([seq.frames for seq in seqs]), ctx.standardizer)

    if t_start == 0:
        z = standardized()
    else:
        # No name here holds the clean block, the noise or x_t, so each dies
        # once used: the first two with the corruption, x_t at the chain's
        # first reverse step.
        z = denoise_from(forward_corrupt(standardized(), t_start - 1, np.concatenate([
            substream(seed, PURPOSE_CONVERT, i).standard_normal(np.shape(seq.frames))
            for i, seq in enumerate(seqs)
        ]), ctx.sched), t_start, ctx.predictor, labels, ctx.sched)
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
