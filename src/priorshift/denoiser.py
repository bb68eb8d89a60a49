"""Learned noise predictor and residual head, with self-contained backprop.

The denoiser is a feed-forward SiLU network over single frames.  A
conditioning vector (sinusoidal time embedding through a linear layer,
plus an additive label embedding) modulates every hidden layer through a
FiLM transform gamma * a + delta, whose scale and shift are linear in the
conditioning vector and initialized to the identity.  That vector is a
time part plus a label part, so gamma and delta are the time part's
projection plus a row gathered from an (n_labels, width) label table, the
projection of the label embedding.  The residual head maps concatenated
encoder features and the reconstructed clean frame to a second-stage
correction.  Both are one MLP core with one parameter record, the head
without FiLM.  The record keeps its tensors as named views into one flat
float64 buffer, so Adam updates it with whole-buffer operations, and
beside them each layer's transposed weight, bias and FiLM keys, built
once; every writer writes the buffer in place, so these stay current.
Training and eval run the core alike through a workspace, which holds only
what it derives from the parameters or reuses: the FiLM label tables,
built on its first call, with their fold blocks; row blocks, five per
FiLM layer for a training batch, kept for the backward pass, and three
for eval; each integer step's time rows; and the gradients.  Kept across
reverse chains, as a sweep's are, it builds the tables once and each
step's time rows once.  When the frames share a step, the one time row is
added to the small table before the gather.  A training run keeps one
workspace across its batches, and each batch drops only the denoiser's
label tables, which Adam just made stale.  All gradients are derived by
hand; the only array machinery used is numpy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .latent import LatentSequence, Standardizer, atomic_write, check_field_ranges, \
    check_field_types, check_labels, destandardize_frames, fit_standardizer, frame_block, \
    parse_field, standardize_frames
from .schedule import Schedule, forward_corrupt, linear_schedule, reconstruct_x0

MODEL_MAGIC = "PRIORSHIFT-MODEL v1"
# Most training epochs: with the default config an epoch takes ~0.09 s on
# gen-data's default 5,000 frames and ~0.6 s on 32,750 (2-vCPU host), so a
# run at the bound lasts ~15 min to ~1.7 h.
MAX_EPOCHS = 10_000


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 150
    batch_size: int = 64
    lr: float = 5e-5
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    lam: float = 0.5
    dropout: float = 0.1
    hidden: tuple[int, ...] = (128, 128)
    residual_hidden: tuple[int, ...] = ()
    cond_dim: int = 32
    time_dim: int = 32

    def __post_init__(self) -> None:
        check_field_types(self)
        check_field_ranges(self, (
            ("epochs", self.epochs >= 0, ">= 0"),
            ("epochs", self.epochs <= MAX_EPOCHS, f"<= {MAX_EPOCHS}"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("lr", self.lr > 0, "positive"),
            ("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
            ("beta2", 0 <= self.beta2 < 1, "in [0, 1)"),
            ("adam_eps", self.adam_eps > 0, "positive"),
            ("lam", self.lam >= 0, ">= 0"),
            ("dropout", 0 <= self.dropout < 1, "in [0, 1)"),
            ("hidden", all(w >= 1 for w in self.hidden), "all positive"),
            ("residual_hidden", all(w >= 1 for w in self.residual_hidden), "all positive"),
            ("cond_dim", self.cond_dim >= 1, ">= 1"),
            ("time_dim", self.time_dim >= 1 and self.time_dim % 2 == 0, "positive and even"),
        ))


class FlatTensors(dict):
    """Zero-filled named tensors stored as views into one contiguous float64
    buffer.

    ``flat`` holds every value in key order; each entry is a reshaped slice
    of it, so an in-place change to either is seen by the other.  Assigning
    a new array to a key would detach it, so update entries in place.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]]):
        super().__init__()
        sizes = [math.prod(shape) for shape in shapes.values()]
        self.flat = np.zeros(sum(sizes))
        offset = 0
        for (name, shape), size in zip(shapes.items(), sizes):
            self[name] = self.flat[offset:offset + size].reshape(shape)
            offset += size

    def zeros_like(self) -> "FlatTensors":
        return FlatTensors({name: arr.shape for name, arr in self.items()})


@dataclass
class MLPParams:
    """One MLP core: its architecture and its zero-filled tensors.

    ``cond_dim > 0`` makes the FiLM denoiser over ``dim`` inputs, with a
    ``time_dim`` embedding and ``n_labels`` labels; ``cond_dim = 0`` makes the
    residual head, a plain SiLU MLP over ``2 * dim`` inputs.  The tensors'
    key order is the order of the init draws and of the model file.
    ``layers`` holds each hidden layer's ``(w.T, b, film)`` and ``out`` the
    output layer's ``(w.T, b)``: views built once into ``tensors.flat``, with
    ``film`` the keys of the layer's FiLM scale and shift (None without
    FiLM).  Every writer (``_init``, Adam, ``load_model``, a gradient
    check) writes the tensors in place, so the views stay current.
    """

    dim: int
    hidden: tuple[int, ...]
    n_labels: int = 0
    cond_dim: int = 0
    time_dim: int = 0
    tensors: FlatTensors = field(init=False, repr=False)
    layers: list[tuple] = field(init=False, repr=False)
    out: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.hidden = tuple(self.hidden)
        c = self.cond_dim
        shapes: dict[str, tuple[int, ...]] = {}
        if c:
            shapes.update(label_emb=(self.n_labels, c), time_w=(c, self.time_dim), time_b=(c,))
        n_in = self.dim if c else 2 * self.dim
        for i, n_out in enumerate(self.hidden):
            shapes[f"layer{i}_w"] = (n_out, n_in)
            shapes[f"layer{i}_b"] = (n_out,)
            if c:
                for part in "gd":
                    shapes[f"layer{i}_film_{part}w"] = (n_out, c)
                    shapes[f"layer{i}_film_{part}b"] = (n_out,)
            n_in = n_out
        shapes["out_w"] = (self.dim, n_in)
        shapes["out_b"] = (self.dim,)
        T = self.tensors = FlatTensors(shapes)
        self.layers = [(T[f"layer{i}_w"].T, T[f"layer{i}_b"],
                        (f"layer{i}_film_g", f"layer{i}_film_d") if c else None)
                       for i in range(len(self.hidden))]
        self.out = (T["out_w"].T, T["out_b"])


@dataclass
class ModelBundle:
    """Everything inference needs: both parameter sets and the training standardizer."""

    theta: MLPParams
    phi: MLPParams
    standardizer: Standardizer


def _init(params: MLPParams, rng: np.random.Generator) -> MLPParams:
    """Draw in key order: scaled-normal weight matrices, small label
    embeddings, zero biases, and FiLM gains of one (identity modulation)."""
    for name, arr in params.tensors.items():
        if name == "label_emb":
            arr[...] = 0.1 * rng.standard_normal(arr.shape)
        elif name.endswith("_w"):
            arr[...] = rng.standard_normal(arr.shape) / np.sqrt(arr.shape[1])
        elif name.endswith("_film_gb"):
            arr[...] = 1.0
    return params


def init_denoiser(
    dim: int,
    n_labels: int,
    hidden: tuple[int, ...],
    cond_dim: int,
    time_dim: int,
    rng: np.random.Generator,
) -> MLPParams:
    """Scaled-normal weights, zero biases; FiLM starts as the identity map."""
    return _init(MLPParams(dim, hidden, n_labels, cond_dim, time_dim), rng)


def init_residual(dim: int, hidden: tuple[int, ...], rng: np.random.Generator) -> MLPParams:
    return _init(MLPParams(dim, hidden), rng)


def time_embedding(t, dim: int) -> np.ndarray:
    """Sinusoidal embedding of timestep indices; even slots sine, odd cosine."""
    if dim % 2:
        raise ValueError(f"time embedding dimension must be even, got {dim}")
    t = np.asarray(t, dtype=np.float64)
    half = dim // 2
    freqs = 10000.0 ** (-2.0 * np.arange(half) / dim)
    ang = t[..., None] * freqs
    out = np.empty(t.shape + (dim,), dtype=np.float64)
    out[..., 0::2] = np.sin(ang)
    out[..., 1::2] = np.cos(ang)
    return out


def _silu(x: np.ndarray, s: np.ndarray | None = None, z: np.ndarray | None = None):
    """``x * sigmoid(x)`` and the sigmoid, into ``z`` and ``s`` when given; for
    very negative x, exp(-x) overflows to inf and the sigmoid to its limit 0.
    The caller ignores that overflow (and underflow) in ``np.errstate``."""
    s = np.exp(np.negative(x, out=s), out=s)
    np.reciprocal(np.add(s, 1.0, out=s), out=s)
    return np.multiply(x, s, out=z), s


def _silu_grad(m: np.ndarray, s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``s * (1 + m * (1 - s))``, the SiLU derivative at ``m`` given its
    sigmoid ``s``, into ``out``."""
    np.subtract(1.0, s, out=out)
    out *= m
    out += 1.0
    out *= s
    return out


def dropout_masks(params: MLPParams, n: int, dropout: float,
                  rng: np.random.Generator) -> list[np.ndarray] | None:
    """Inverted-dropout multipliers, one per hidden layer, scaling baked in."""
    if dropout == 0.0:
        return None
    return [(rng.random((n, width)) >= dropout) / (1.0 - dropout) for width in params.hidden]


def _check_inputs(params: MLPParams, x, labels) -> tuple[np.ndarray, np.ndarray]:
    """An (n, d) float64 frame block and its n in-range labels, as arrays."""
    x = frame_block(x, params.dim, "model")
    labels = check_labels(labels, params.n_labels)
    if labels.shape != (x.shape[0],):
        raise ValueError(f"labels shape {labels.shape} does not match batch {x.shape[0]}")
    return x, labels


def _label_tables(params: MLPParams, ws: dict) -> list[tuple]:
    """The workspace's FiLM label tables, ``(gamma, delta, folded)`` per
    hidden layer: ``label_emb @ w.T`` for the scale and the shift, and an
    (n_labels, width) block for a table plus one time row.  Built on the
    workspace's first call and kept."""
    tables = ws.get("tables")
    if tables is None:
        T = params.tensors
        tables = ws["tables"] = [
            tuple(T["label_emb"] @ T[key + "w"].T for key in film)
            + (np.empty((params.n_labels, width)),)
            for (_, _, film), width in zip(params.layers, params.hidden)]
    return tables


def _row_blocks(params: MLPParams, ws: dict, n: int, keep: bool) -> list[tuple]:
    """The workspace's row blocks for ``n`` rows, ``(a, s, gamma, m, z)`` per
    hidden layer: ``gamma`` for a FiLM layer only, ``z`` with ``keep`` only,
    and ``m`` for both.  Made again when the row count or ``keep`` changes.
    Reusing them across a chain's steps pays: with fresh arrays on every
    step, ``perfbench`` ``sweep_model`` ``op_s_min`` went from 0.115 to
    0.203 s (2-vCPU host)."""
    if "rows" not in ws or ws["rows"][0] != (n, keep):
        ws.pop("rows", None)  # the old set goes first, so the two never coexist
        film = bool(params.cond_dim)
        ws["rows"] = ((n, keep), [tuple(np.empty((n, width)) if made else None
                                        for made in (True, True, film, keep and film, keep))
                                  for width in params.hidden])
    return ws["rows"][1]


def _time_rows(params: MLPParams, t, kept: dict):
    """``(temb, tc, rows)``: the time embedding of the steps ``t``, its
    projection ``tc`` and, by coefficient key, each FiLM coefficient's time
    part ``tc @ w.T + b``.  One integer step's rows are kept in ``kept`` on
    its first use; a later use returns them with ``temb`` and ``tc`` None."""
    T = params.tensors
    steps = kept.setdefault("time_rows", {})
    step = int(t) if isinstance(t, (int, np.integer)) else None
    if step in steps:
        return None, None, steps[step]
    temb = time_embedding(np.atleast_1d(t), params.time_dim)
    tc = temb @ T["time_w"].T + T["time_b"]
    rows = {key: tc @ T[key + "w"].T + T[key + "b"]
            for _, _, film in params.layers for key in film}
    if step is not None:
        steps[step] = rows
    return temb, tc, rows


def _film(table: np.ndarray, folded: np.ndarray, time_rows: np.ndarray, labels: np.ndarray,
          out: np.ndarray) -> np.ndarray:
    """``cond @ w.T + b`` for the block, where ``cond`` is the time part plus
    the label embedding (callers check ``labels``): a row of the label table
    ``label_emb @ w.T`` plus ``time_rows``, the time part's projection.  One
    time row (one step for the block) is added to the small table, into
    ``folded``, before the gather; one per row after it.  Each entry is the
    same sum either way."""
    if time_rows.shape[0] == 1:
        return np.add(table, time_rows, out=folded).take(labels, axis=0, out=out, mode="clip")
    table.take(labels, axis=0, out=out, mode="clip")
    out += time_rows
    return out


def _forward_cached(
    params: MLPParams,
    x: np.ndarray,
    ws: dict,
    t=None,
    labels: np.ndarray | None = None,
    masks: list[np.ndarray] | None = None,
    keep: bool = False,
):
    """The MLP core of the denoiser and the residual head, in training and eval.

    A parameter set with a label embedding is FiLM-conditioned on the
    timesteps ``t`` (a scalar or one per row) and ``labels``; one without it
    is a plain SiLU MLP.  Each layer's weight, bias and FiLM keys are the
    views ``params.layers`` holds; the workspace ``ws`` holds the label
    tables, the row blocks and each integer step's time rows.  A layer
    computes ``a = h @ W.T + b``, ``m = delta + gamma * a`` and ``z = m *
    sigmoid(m)``.  With ``keep`` (training) a FiLM layer writes five
    blocks, ``a``, ``gamma``, ``m``, ``z`` and ``s`` (``gamma * a``, then
    the sigmoid), and the cache :func:`_backward` reads holds ``ws`` and
    views of them that the next call on ``ws`` overwrites.  Without it the
    cache is None and a FiLM layer reuses three: ``a``, which then holds
    ``delta``, ``m`` and ``z``; the scale block, which becomes ``gamma *
    a``; and ``s``.
    """
    temb = tc = rows = None
    if params.cond_dim:
        temb, tc, rows = _time_rows(params, t, ws)
        tables = _label_tables(params, ws)
    h = x
    kept = []
    # One errstate for every layer's SiLU: each enter and exit costs ~1.7 us.
    with np.errstate(over="ignore", under="ignore"):
        for i, ((w, b, film), (a, s, gamma, m, z)) in enumerate(
                zip(params.layers, _row_blocks(params, ws, x.shape[0], keep))):
            a = np.matmul(h, w, out=a)
            a += b
            if rows is None:
                m = a
            else:
                table_g, table_d, folded = tables[i]
                gamma = _film(table_g, folded, rows[film[0]], labels, gamma)
                scaled = np.multiply(gamma, a, out=s if keep else gamma)
                m = _film(table_d, folded, rows[film[1]], labels, m if keep else a)
                m += scaled
            z, s = _silu(m, s, z if keep else m)
            if keep:
                kept.append((h, a, gamma, m, s))
            h = z if masks is None else np.multiply(z, masks[i], out=z)
    out_w, out_b = params.out
    out = h @ out_w
    out += out_b
    return out, (temb, tc, labels, kept, h, masks, ws) if keep else None


def _backward(params: MLPParams, cache, g_out: np.ndarray) -> FlatTensors:
    """Gradients of a scalar loss given its gradient w.r.t. the network output,
    in the same flat layout as the parameters.

    The gradients fill the workspace's ``grads`` buffer in place, made on
    its first use, so the next backward pass on that workspace overwrites
    them.  The pass consumes the cache: a layer's SiLU gradient goes into
    its output block, and its FiLM scale and input gradients into ``a`` and
    ``gamma``, each read for the last time by then.  No gradient with
    respect to the network input is formed.
    """
    T = params.tensors
    temb, tc, labels, layers, h_last, masks, ws = cache
    grads = ws.get("grads")
    if grads is None:
        grads = ws["grads"] = T.zeros_like()
    grads["out_w"][...] = g_out.T @ h_last
    grads["out_b"][...] = g_out.sum(axis=0)
    if layers:
        g_h = g_out @ T["out_w"]
    cond = g_cond = None
    if tc is not None:
        cond = tc + T["label_emb"][labels]
        g_cond = np.zeros_like(cond)
    z = h_last
    for i in reversed(range(len(params.hidden))):
        h_in, a, gamma, m, s = layers[i]
        if masks is not None:
            g_h *= masks[i]
        g_m = np.multiply(g_h, _silu_grad(m, s, out=z), out=g_h)
        g_a = g_m
        if cond is not None:
            g_gamma = np.multiply(g_m, a, out=a)
            g_a = np.multiply(g_m, gamma, out=gamma)
            grads[f"layer{i}_film_gw"][...] = g_gamma.T @ cond
            grads[f"layer{i}_film_gb"][...] = g_gamma.sum(axis=0)
            grads[f"layer{i}_film_dw"][...] = g_m.T @ cond
            grads[f"layer{i}_film_db"][...] = g_m.sum(axis=0)
            g_cond += g_gamma @ T[f"layer{i}_film_gw"] + g_m @ T[f"layer{i}_film_dw"]
        grads[f"layer{i}_w"][...] = g_a.T @ h_in
        grads[f"layer{i}_b"][...] = g_a.sum(axis=0)
        if i:
            g_h = g_a @ T[f"layer{i}_w"]
        z = h_in
    if cond is not None:
        grads["time_w"][...] = g_cond.T @ np.broadcast_to(temb, (cond.shape[0], params.time_dim))
        grads["time_b"][...] = g_cond.sum(axis=0)
        grads["label_emb"][...] = 0.0
        np.add.at(grads["label_emb"], labels, g_cond)
    return grads


def forward(params: MLPParams, x_t: np.ndarray, t, labels) -> np.ndarray:
    """Predict the injected noise for an (n, d) block of frames ``x_t`` at
    step ``t``, a scalar or one per row; deterministic, no dropout (training
    draws its masks in :func:`draw_batch_noise`).  Each call runs on a fresh
    workspace; :func:`bind_forward` keeps one across calls.
    """
    x, labels = _check_inputs(params, x_t, labels)
    if np.ndim(t) and np.shape(t) != labels.shape:
        raise ValueError(f"t shape {np.shape(t)} does not match batch {x.shape[0]}")
    return _forward_cached(params, x, {}, t, labels)[0]


def bind_forward(params: MLPParams, labels, workspace: dict):
    """:func:`forward` bound to ``labels`` and ``workspace``, with the labels
    checked here, once.  The returned ``step(x_t, t)`` runs the core with no
    per-call checks, so it takes what a reverse chain passes: an (n, d)
    float64 block, n the number of labels, and one step ``t``.

    ``workspace``, a dict kept across calls such as the steps of a sweep's
    chains, holds the FiLM label tables ``label_emb @ w.T`` per
    coefficient, built on its first call, three row blocks per hidden layer
    for reuse, and each integer step's FiLM time rows (``tc @ w.T + b`` per
    coefficient) built on that step's first call: 2 * sum(hidden) floats
    per step, 4 KB at the default widths, 400 KB over T = 100 and ~41 MB
    over ``MAX_T`` steps, the order of an exact chain's noised tables.  A
    workspace is bound to the parameter values of the calls that filled it
    for as long as it is kept: use a fresh one for other or changed
    parameters.  Bound that way, a step gives the bits of :func:`forward`,
    and its result is never a view of the workspace."""
    labels = check_labels(labels, params.n_labels)
    return lambda x_t, t: _forward_cached(params, x_t, workspace, t, labels)[0]


def predict_zc2(phi: MLPParams, h: np.ndarray, zc1: np.ndarray) -> np.ndarray:
    """Second-stage residual from (n, d) blocks of encoder features and
    first-stage frames."""
    h = frame_block(h, phi.dim, "residual head")
    zc1 = frame_block(zc1, phi.dim, "residual head")
    if h.shape != zc1.shape:
        raise ValueError(f"feature shape {h.shape} does not match frame shape {zc1.shape}")
    return _forward_cached(phi, np.concatenate([h, zc1], axis=1), {})[0]


def draw_batch_noise(
    theta: MLPParams,
    n: int,
    sched: Schedule,
    rng: np.random.Generator,
    dropout: float,
):
    """Per-batch stochastic inputs, always in the order t, eps, masks."""
    t = rng.integers(0, sched.T, size=n)
    eps = rng.standard_normal((n, theta.dim))
    masks = dropout_masks(theta, n, dropout, rng)
    return t, eps, masks


def loss_total(
    theta: MLPParams,
    phi: MLPParams,
    x0: np.ndarray,
    zc2: np.ndarray,
    h: np.ndarray,
    labels: np.ndarray,
    t: np.ndarray,
    eps: np.ndarray,
    masks: list[np.ndarray] | None,
    lam: float,
    sched: Schedule,
    destd: Standardizer | None = None,
    workspace: dict | None = None,
) -> tuple[float, FlatTensors, FlatTensors]:
    """Joint loss on one batch: denoising term plus ``lam`` times the residual
    regression, with the gradients of both parameter sets.

    ``t``, ``eps`` and ``masks`` are the batch's draws from
    :func:`draw_batch_noise`.  ``destd`` maps the reconstructed clean frame
    back to raw scale before the residual head, so the head sees the same
    inputs it gets at conversion time.  With ``lam=0`` the total is exactly
    the denoising term.

    ``workspace``, a dict kept across the batches of a training run, holds
    each parameter set's row blocks and gradient buffer (under ``"theta"``
    and ``"phi"``), reused while the batch shape holds.  The returned
    gradients are those buffers, so the next call on the workspace
    overwrites them.  Each call first drops the denoiser's label tables,
    the one thing the workspace derives from values that Adam or a
    gradient check's perturbations change between calls; the residual head
    has none.  A call without a workspace runs on a fresh dict.
    """
    x0, labels = _check_inputs(theta, x0, labels)
    zc2 = np.asarray(zc2, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if zc2.shape != x0.shape or h.shape != x0.shape:
        raise ValueError("zc2 and h tracks must match the frame block shape")
    t = np.asarray(t)
    if t.shape != labels.shape or np.shape(eps) != x0.shape:
        raise ValueError("t and eps must give one step and one noise row per frame")
    ws = {} if workspace is None else workspace
    theta_ws, phi_ws = ws.setdefault("theta", {}), ws.setdefault("phi", {})
    theta_ws.pop("tables", None)
    x_t = forward_corrupt(x0, t, eps, sched)
    eps_hat, cache = _forward_cached(theta, x_t, theta_ws, t, labels, masks, keep=True)
    r = eps_hat - eps
    dloss = float((r * r).mean())
    tgrads = _backward(theta, cache, (2.0 / r.size) * r)
    # The reconstruction enters the residual branch as data: no gradient
    # flows from the residual loss back into the denoiser.
    xhat0 = reconstruct_x0(x_t, t, eps_hat, sched)
    if destd is not None:
        xhat0 = destandardize_frames(xhat0, destd)
    zhat, rcache = _forward_cached(phi, np.concatenate([h, xhat0], axis=1), phi_ws, keep=True)
    rr = zhat - zc2
    rloss = float((rr * rr).mean())
    rgrads = _backward(phi, rcache, (2.0 * lam / rr.size) * rr)
    return dloss + lam * rloss, tgrads, rgrads


@dataclass
class AdamState:
    """Moment estimates for one flat parameter buffer, and two scratch
    buffers of its size for the update's temporaries."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    scratch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.scratch = np.empty((2,) + self.m.shape)

    @classmethod
    def for_buffer(cls, flat: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(flat), v=np.zeros_like(flat))


def adam_step(
    flat: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update of a flat parameter buffer, in place:
    ``flat -= lr * (m / c1) / (np.sqrt(v / c2) + eps)``, each temporary
    written into the state's scratch buffers in that order."""
    state.step += 1
    c1 = 1.0 - beta1 ** state.step
    c2 = 1.0 - beta2 ** state.step
    m, v = state.m, state.v
    tmp, den = state.scratch
    m *= beta1
    m += np.multiply(grads, 1.0 - beta1, out=tmp)
    v *= beta2
    v += np.multiply(np.multiply(grads, grads, out=tmp), 1.0 - beta2, out=tmp)
    np.multiply(np.divide(m, c1, out=tmp), lr, out=tmp)
    np.sqrt(np.divide(v, c2, out=den), out=den)
    den += eps
    tmp /= den
    flat -= tmp


def train(
    cfg: TrainConfig,
    dataset: list[LatentSequence],
    sched: Schedule,
    rng: np.random.Generator,
    n_labels: int,
    progress=None,
) -> tuple[ModelBundle, list[float]]:
    """Shuffled-minibatch Adam on the total loss.

    One generator drives initialization, epoch shuffles, per-batch timestep
    and noise draws, and dropout masks, in a fixed order, so a fixed seed
    reproduces parameters bit for bit.  One workspace serves the whole run:
    every batch writes its row blocks and gradients into the same buffers
    while the batch shape holds.  Raises if the loss goes non-finite.
    """
    if not dataset:
        raise ValueError("training dataset is empty")
    if any(seq.zc2 is None or seq.h is None for seq in dataset):
        raise ValueError("training requires datasets with zc2 and h tracks")
    x0_raw = np.concatenate([seq.frames for seq in dataset], axis=0)
    zc2 = np.concatenate([seq.zc2 for seq in dataset], axis=0)
    h = np.concatenate([seq.h for seq in dataset], axis=0)
    labels = check_labels(np.concatenate([seq.labels for seq in dataset]), n_labels)
    std = fit_standardizer(x0_raw)
    x0 = standardize_frames(x0_raw, std)
    dim = x0.shape[1]
    theta = init_denoiser(dim, n_labels, cfg.hidden, cfg.cond_dim, cfg.time_dim, rng)
    phi = init_residual(dim, cfg.residual_hidden, rng)
    st_theta = AdamState.for_buffer(theta.tensors.flat)
    st_phi = AdamState.for_buffer(phi.tensors.flat)
    n = x0.shape[0]
    ws: dict = {}
    curve: list[float] = []
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            t, eps, masks = draw_batch_noise(theta, idx.size, sched, rng, cfg.dropout)
            loss, tg, rg = loss_total(
                theta, phi, x0[idx], zc2[idx], h[idx], labels[idx], t, eps, masks,
                cfg.lam, sched, destd=std, workspace=ws,
            )
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"training diverged: non-finite loss at epoch {epoch}, "
                    f"batch offset {start}"
                )
            adam_step(theta.tensors.flat, tg.flat, st_theta, cfg.lr, cfg.beta1, cfg.beta2,
                      cfg.adam_eps)
            adam_step(phi.tensors.flat, rg.flat, st_phi, cfg.lr, cfg.beta1, cfg.beta2,
                      cfg.adam_eps)
            total += loss * idx.size
        curve.append(total / n)
        if progress is not None:
            progress(epoch, curve[-1])
    return ModelBundle(theta=theta, phi=phi, standardizer=std), curve


def eval_loss_diff(predictor, x0, labels, t, eps, sched: Schedule) -> float:
    """Denoising loss of an arbitrary predictor on fixed (x0, t, eps) triples.
    ``predictor(labels, steps)`` gives ``step(x, t)``, as the sampler's
    sources do; it is bound once per distinct step, to that step's rows and
    that step alone."""
    t = np.asarray(t)
    eps = np.asarray(eps, dtype=np.float64)
    labels = np.asarray(labels)
    x_t = forward_corrupt(x0, t, eps, sched)
    out = np.empty_like(eps)
    for tv in np.unique(t):
        sel = t == tv
        tv = int(tv)
        out[sel] = predictor(labels[sel], range(tv, tv + 1))(x_t[sel], tv)
    r = out - eps
    return float((r * r).mean())


def _fmt_hidden(hidden: tuple[int, ...]) -> str:
    return ",".join(str(w) for w in hidden) if hidden else "-"


def _decode_values(text: str) -> np.ndarray:
    return np.array(text.split(), dtype=np.float64)


def _parse_width(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"must be a positive integer, got {value}")
    return value


def _parse_time_dim(text: str) -> int:
    value = _parse_width(text)
    if value % 2:
        raise ValueError(f"must be even, got {value}")
    return value


def _parse_hidden(text: str) -> tuple[int, ...]:
    if text == "-":
        return ()
    return tuple(_parse_width(v) for v in text.split(","))


def _parse_schedule(text: str) -> Schedule:
    bmin, bmax, t_steps = text.split()
    return linear_schedule(float(bmin), float(bmax), int(t_steps))


# The model file's header, in file order: (key, its text from the bundle
# and schedule, its parser).  save_model and load_model both walk it.
_HEADER = (
    ("schedule", lambda b, s: f"{s.beta[0]:.17g} {s.beta[-1]:.17g} {s.T}", _parse_schedule),
    ("dim", lambda b, s: str(b.theta.dim), _parse_width),
    ("labels", lambda b, s: str(b.theta.n_labels), _parse_width),
    ("cond_dim", lambda b, s: str(b.theta.cond_dim), _parse_width),
    ("time_dim", lambda b, s: str(b.theta.time_dim), _parse_time_dim),
    ("hidden", lambda b, s: _fmt_hidden(b.theta.hidden), _parse_hidden),
    ("residual_hidden", lambda b, s: _fmt_hidden(b.phi.hidden), _parse_hidden),
)


def _blocks(theta: MLPParams, phi: MLPParams, mean: np.ndarray,
            scale: np.ndarray) -> list[tuple[str, np.ndarray]]:
    """The model file's tensor blocks, in file order."""
    return ([(f"den.{k}", v) for k, v in theta.tensors.items()]
            + [(f"res.{k}", v) for k, v in phi.tensors.items()]
            + [("std.mean", mean), ("std.scale", scale)])


def save_model(path: str, bundle: ModelBundle, sched: Schedule) -> None:
    """Plain-text model file: header, named tensor blocks, trailing ``end``."""
    std = bundle.standardizer
    with atomic_write(path) as fh:
        fh.write(MODEL_MAGIC + "\n")
        for key, text, _ in _HEADER:
            fh.write(f"{key} {text(bundle, sched)}\n")
        for name, arr in _blocks(bundle.theta, bundle.phi, std.mean, std.std):
            fh.write(f"tensor {name} {arr.size}\n")
            fh.write(" ".join(["%.17g"] * arr.size) % tuple(np.ravel(arr).tolist()) + "\n")
        fh.write("end\n")


def _read_line(fh, path: str, key: str) -> str:
    """The rest of the next line, which must start with ``key``."""
    line = fh.readline().rstrip("\n")
    if not line.startswith(key + " "):
        raise ValueError(f"{path}: expected {key!r} line, got {line!r}")
    return line[len(key) + 1:]


def load_model(path: str) -> tuple[ModelBundle, Schedule]:
    """Read a model file, which must hold the header and tensor blocks in the
    order ``save_model`` writes them, and nothing after the ``end`` line."""
    with open(path, "r", encoding="utf-8") as fh:
        magic = fh.readline().rstrip("\n")
        if magic != MODEL_MAGIC:
            raise ValueError(f"{path}: not a model file (header {magic!r})")
        head = {key: parse_field(path, key, parse, _read_line(fh, path, key))
                for key, _, parse in _HEADER}
        dim = head["dim"]
        theta = MLPParams(dim, head["hidden"], head["labels"], head["cond_dim"], head["time_dim"])
        phi = MLPParams(dim, head["residual_hidden"])
        mean, scale = np.empty(dim), np.empty(dim)
        for name, target in _blocks(theta, phi, mean, scale):
            size = parse_field(path, f"tensor {name!r} size", int,
                               _read_line(fh, path, f"tensor {name}"))
            values = parse_field(path, f"tensor {name!r}", _decode_values, fh.readline())
            if size != values.size or values.size != target.size:
                raise ValueError(
                    f"{path}: tensor {name!r} has {values.size} values, expected {target.shape}"
                )
            if not np.isfinite(values).all():
                raise ValueError(f"{path}: tensor {name!r} has non-finite values")
            target[...] = values.reshape(target.shape)
        line = fh.readline().rstrip("\n")
        if line != "end":
            raise ValueError(f"{path}: expected 'end' line, got {line!r}")
        if fh.readline():
            raise ValueError(f"{path}: content after the 'end' line")
    standardizer = parse_field(path, "tensor 'std.scale'", Standardizer, mean, scale)
    return ModelBundle(theta=theta, phi=phi, standardizer=standardizer), head["schedule"]
