"""Analytic conditional Gaussian-mixture priors.

Everything the corruption process does to a diagonal mixture stays in
closed form: the mixture noised to a step is again a mixture, with means
sqrt(ab) mean and variances ab var + 1 - ab, so :func:`logpdf_batch` is
the one density kernel for both; its score (and hence the exact noise
prediction) is a responsibility-weighted sum, and a single Gaussian
component admits a conjugate clean-frame posterior.  A gridded posterior
covers the general mixture case in one dimension, and a Bayes two-class
rule turns a pair of priors into a nativeness probability.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .latent import BLOCK_VALUES, Standardizer, check_labels, frame_block
from .schedule import Schedule, alpha_bar_at

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class ConditionalGMM:
    """Per-label diagonal Gaussian mixtures with a shared component count.

    weights: (L, C) rows summing to 1; zero entries mark unused slots.
    means: (L, C, d); variances: (L, C, d) strictly positive.  Each is
    stored as the float64 array it is checked as.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        m = np.asarray(self.means, dtype=np.float64)
        v = np.asarray(self.variances, dtype=np.float64)
        if w.ndim != 2 or m.ndim != 3 or v.shape != m.shape or m.shape[:2] != w.shape:
            raise ValueError(
                f"inconsistent shapes: weights {w.shape}, means {m.shape}, variances {v.shape}"
            )
        if (w < 0).any() or not (np.abs(w.sum(axis=1) - 1.0) <= 1e-12).all():
            raise ValueError("mixture weights must be nonnegative and sum to 1 per label")
        if not (v > 0).all():
            raise ValueError("component variances must be strictly positive")
        if not (np.isfinite(m).all() and np.isfinite(v).all()):
            raise ValueError("component means and variances must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)

    @property
    def n_labels(self) -> int:
        return int(self.weights.shape[0])

    @property
    def n_components(self) -> int:
        return int(self.weights.shape[1])

    @property
    def dim(self) -> int:
        return int(self.means.shape[2])

    @classmethod
    def from_components(cls, weights, means, variances) -> "ConditionalGMM":
        """Single-label mixture from per-component parameter lists."""
        w = np.atleast_1d(np.asarray(weights, dtype=np.float64))
        m = np.asarray(means, dtype=np.float64)
        v = np.asarray(variances, dtype=np.float64)
        if m.ndim == 1:
            m = m[:, None]
            v = v[:, None]
        return cls(weights=w[None, :], means=m[None, :, :], variances=v[None, :, :])


def logsumexp(a: np.ndarray) -> np.ndarray:
    """Row-wise log Σ exp of an (n, C) block, in scipy 1.17's order of
    operations, so the bits are scipy's: the entries equal to the row's max
    leave the sum, which is divided by their count m, and the result is
    log1p(s) + log(m) + max.  A row whose result is not finite (all -inf,
    or holding +inf or nan) takes log Σ exp directly, so all -inf gives
    -inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        top = a.max(axis=1, keepdims=True)
        ties = a == top
        shifted = a - top
        shifted[ties] = -np.inf
        s = np.exp(shifted, out=shifted).sum(axis=1)
        m = np.count_nonzero(ties, axis=1)
        out = np.log1p(s / m) + np.log(m) + top[:, 0]
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.exp(a[bad]).sum(axis=1))
    return out


def _expit_one(v: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:
        return 0.0


def expit(z: np.ndarray) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-z)) of a 1-D block, one value at a
    time on the C library's ``exp`` as scipy's ``expit`` computes it, so the
    bits are scipy's (numpy's ``exp`` differs in the last bit on ~2% of
    values); where exp(-z) overflows the result is 0."""
    return np.array([_expit_one(v) for v in np.asarray(z, dtype=np.float64).tolist()])


class _Views(NamedTuple):
    """The work blocks of :class:`_ExactWork` cut to the rows of one block,
    and the views of them that the kernel writes and reads."""

    gathered: np.ndarray  # (n, C, 2d + 1) table rows
    terms: np.ndarray  # their P and sμP
    feats: np.ndarray  # (n, 2d + 1) features
    half_sq: np.ndarray  # their -x²/2
    frames: np.ndarray  # their x
    lj: np.ndarray  # (n, C) log joint
    lj_cols: tuple  # its columns
    resp: np.ndarray  # (n, C) responsibilities
    resp_cols: tuple  # their columns
    acc: np.ndarray  # (n, 2d) weighted sums
    acc_p: np.ndarray  # of P
    acc_smp: np.ndarray  # of sμP
    diff: np.ndarray  # (n, d) x·ΣrP - ΣrsμP


class _ExactWork:
    """The blocks :func:`exact_eps_batch` works in on ``n`` rows of C
    components in d dimensions, one row block at a time (at most
    ``BLOCK_VALUES`` gathered table values, at least one row): the features
    (-x²/2, x, 1), whose ones column is set here, once; the gathered table
    rows; the log joint; the responsibilities; their weighted sums of P
    and sμP; and x·ΣrP - ΣrsμP.  Each is contiguous in its rows, so a cut
    to fewer rows is too.  The max and the normalizer, one column each,
    are fresh."""

    def __init__(self, n: int, C: int, d: int):
        self.rows = rows = min(max(n, 1), max(1, BLOCK_VALUES // (C * (2 * d + 1))))
        self.feats = np.empty((rows, 2 * d + 1))
        self.feats[:, 2 * d] = 1.0
        self.gathered = np.empty((rows, C, 2 * d + 1))
        self.lj = np.empty((rows, C))
        self.resp = np.empty((rows, C))
        self.acc = np.empty((rows, 2 * d))
        self.diff = np.empty((rows, d))

    def cut(self, n: int) -> _Views:
        """The blocks' first ``n`` rows."""
        d = self.diff.shape[1]
        gathered, feats, lj, resp, acc = (a[:n] for a in (self.gathered, self.feats, self.lj,
                                                          self.resp, self.acc))
        return _Views(gathered=gathered, terms=gathered[:, :, :2 * d], feats=feats,
                      half_sq=feats[:, :d], frames=feats[:, d:2 * d], lj=lj,
                      lj_cols=tuple(lj.T), resp=resp, resp_cols=tuple(resp.T), acc=acc,
                      acc_p=acc[:, :d], acc_smp=acc[:, d:], diff=self.diff[:n])


@dataclass(frozen=True)
class NoisedTables:
    """The terms of a mixture corrupted to each step of ``steps`` that do not
    depend on the frames, for the distinct labels of a block of rows.

    With v = ab_t var + 1 - ab_t, P = 1/v and sμP = sqrt(ab_t) mean P,
    ``table[steps.index(t)]`` holds, per label and component, P and sμP
    (d values each) and K = log w - (Σ sμ²P + Σ log v + d log 2π)/2: the
    log joint of a frame x is then -x²/2·P + x·sμP + K.  ``rows`` holds
    each row's entry in the table, and ``sched`` the schedule the tables
    were built on.  What each :func:`exact_eps_batch` call on the tables
    looks up is resolved with them: ``shape``, the (n, d) shape of the
    frames they are bound to; ``at``, by step, that step's table and
    sqrt(1 - ab_t); and ``blocks``, per row block of the frames, its
    slice of the rows, their entries in the table, and the views of work
    blocks made with the tables, cut to its row count (every full block
    shares one cut, and a tail block is a shorter cut of the same blocks).
    Each call overwrites the work blocks, so the tables serve one call at
    a time.
    """

    steps: range
    table: np.ndarray
    rows: np.ndarray
    sched: Schedule = field(repr=False, compare=False)
    shape: tuple[int, int] = field(repr=False, compare=False)
    at: dict = field(repr=False, compare=False)
    blocks: tuple[tuple[slice, np.ndarray, _Views], ...] = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return (self.table.shape[-1] - 1) // 2


def noised_tables(p: ConditionalGMM, labels, steps: range, sched: Schedule) -> NoisedTables:
    """The tables of ``p`` noised to each step of ``steps``, for the rows of
    ``labels``: built once for a reverse chain, they hold the x-independent
    work of :func:`exact_eps_batch` for its steps, and what its calls look
    up.  Only the labels' distinct mixtures get an entry.  Steps are built
    in blocks of at most ``BLOCK_VALUES`` noised values, so that with many
    labels the temporaries stay in cache; every entry's bits are those of
    a one-block build.  P and sμP are written straight into the table:
    glibc hands blocks of their size back between chains, so copies of
    them made a long-lived process fault ~270 pages in again per chain."""
    keep, rows = np.unique(check_labels(labels, p.n_labels), return_inverse=True)
    mean, var = p.means[keep], p.variances[keep]
    with np.errstate(divide="ignore"):
        lw = np.log(p.weights[keep])
    ab_all = alpha_bar_at(sched, np.array(steps, dtype=np.int64))
    d = p.dim
    table = np.empty(ab_all.shape[:1] + mean.shape[:2] + (2 * d + 1,))
    block = max(1, BLOCK_VALUES // mean.size)
    for lo in range(0, table.shape[0], block):
        ab = ab_all[lo:lo + block, :, None, None]
        out = table[lo:lo + block]
        prec, smp = out[..., :d], out[..., d:2 * d]
        v = ab * var + (1.0 - ab)
        np.divide(1.0, v, out=prec)
        smu = np.sqrt(ab) * mean
        np.multiply(smu, prec, out=smp)
        out[..., 2 * d] = lw - 0.5 * (np.einsum("slcd,slcd->slc", smu, smp)
                                      + np.einsum("slcd->slc", np.log(v, out=v)) + d * _LOG_2PI)
    n = rows.shape[0]
    work = _ExactWork(n, p.n_components, d)
    size = work.rows
    full = work.cut(size)
    blocks = tuple((slice(lo, lo + size), rows[lo:lo + size],
                    full if n - lo >= size else work.cut(n - lo)) for lo in range(0, n, size))
    at = dict(zip(steps, zip(table, np.sqrt(1.0 - ab_all[:, 0]).tolist())))
    return NoisedTables(steps=steps, table=table, rows=rows, sched=sched, shape=(n, d), at=at,
                        blocks=blocks)


def _alpha_bar_one(sched: Schedule, t) -> float:
    """Cumulative product at one step.  An array of steps would broadcast
    against the components when its length matched their count, so it is
    refused."""
    if type(t) is not int and np.ndim(t):
        raise TypeError(f"one step per call, got steps of shape {np.shape(t)}")
    return alpha_bar_at(sched, t)


def sample_frames(p: ConditionalGMM, labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one frame per entry of ``labels``, in order, from a single stream."""
    labels = check_labels(labels, p.n_labels)
    n = labels.shape[0]
    cum = np.cumsum(p.weights, axis=1)
    u = rng.random(n)
    # Column by column: an (n, components) block grows with both.
    comp = np.zeros(n, dtype=np.intp)
    for c in range(p.n_components):
        comp += u > cum[labels, c]
    comp = np.minimum(comp, p.n_components - 1)
    eps = rng.standard_normal((n, p.dim))
    return p.means[labels, comp] + np.sqrt(p.variances[labels, comp]) * eps


def logpdf_batch(p: ConditionalGMM, labels: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-frame mixture log density, clean or noised (a noised mixture is
    again a mixture): the :func:`logsumexp` over components of the log
    joint, log weight plus log density.  Direct form: squares of the
    frames' offsets, so values far from the mass overflow to a density of
    zero rather than to inf - inf.  Rows go through in blocks of at most
    ``BLOCK_VALUES`` (row, component, dim) values; each row's result
    depends on that row alone."""
    x = frame_block(x, p.dim, "prior")
    labels = check_labels(labels, p.n_labels)
    if labels.shape != x.shape[:1]:
        raise ValueError(f"{x.shape[0]} frames for {labels.size} labeled rows")
    with np.errstate(divide="ignore"):
        lw = np.log(p.weights)
    out = np.empty(x.shape[0])
    rows = max(1, BLOCK_VALUES // (p.n_components * p.dim))
    for lo in range(0, x.shape[0], rows):
        k = labels[lo:lo + rows]
        vk = p.variances[k]
        diff = x[lo:lo + rows, None, :] - p.means[k]
        out[lo:lo + rows] = logsumexp(
            lw[k] - 0.5 * (diff * diff / vk + np.log(vk) + _LOG_2PI).sum(axis=2))
    return out


_F64 = np.dtype(np.float64)


def exact_eps_batch(
    p: ConditionalGMM | NoisedTables, labels, t: int, x: np.ndarray, sched: Schedule
) -> np.ndarray:
    """Noise prediction that exactly matches the corrupted-marginal score.

    Returns -sqrt(1 - alpha_bar_t) times the gradient of the log marginal,
    sqrt(1 - ab_t) Σ_c r_c (x P_c - sμP_c), with responsibilities r from a
    max-shifted softmax of the log joint.  ``p`` is a mixture with one
    label per row of ``x``, or the :class:`NoisedTables` of one bound to
    the rows of ``x`` and built on ``sched``, with ``labels`` None; either
    way one kernel runs, so the two give the same bits.  A call on tables
    whose ``x`` is the bound (n, d) float64 block and whose ``t`` is one
    of their steps as an int checks nothing more and looks nothing up:
    the tables resolved the rest when they were built.  Any other call
    is checked as a whole, and a frame block that is not float64 is
    coerced.  Each row's result depends on that row alone: the
    contractions are ``np.einsum`` loops over one row, never BLAS, and the
    max and the normalizer loop over components.  So rows go through in
    blocks of at most ``BLOCK_VALUES`` gathered table values, in the work
    blocks made with the tables, and the memory a call takes beyond its
    result stays bounded for any frame count.  The result is a fresh
    array.
    """
    if type(p) is NoisedTables and labels is None and sched is p.sched and type(t) is int \
            and type(x) is np.ndarray and x.dtype is _F64 and x.shape == p.shape:
        step = p.at.get(t)
        if step is not None:
            return _exact_kernel(p.blocks, *step, x)
    _alpha_bar_one(sched, t)  # checks t
    x = frame_block(x, p.dim, "prior")
    if isinstance(p, NoisedTables):
        if labels is not None:
            raise ValueError("noised tables are bound to their rows; pass labels=None")
        if sched is not p.sched and not np.array_equal(sched.alpha_bar, p.sched.alpha_bar):
            raise ValueError("noised tables were built on another schedule")
        tables = p
    else:
        tables = noised_tables(p, labels, range(t, t + 1), sched)
    if x.shape[0] != tables.rows.shape[0]:
        raise ValueError(f"{x.shape[0]} frames for {tables.rows.shape[0]} labeled rows")
    if t not in tables.steps:
        raise ValueError(f"step {t} outside the tables' steps "
                         f"[{tables.steps.start}, {tables.steps.stop - 1}]")
    return _exact_kernel(tables.blocks, *tables.at[int(t)], x)


def _exact_kernel(blocks: tuple, table: np.ndarray, scale: float, x: np.ndarray) -> np.ndarray:
    """:func:`exact_eps_batch` on checked (n, d) float64 frames ``x``, given
    one step's ``table`` and sqrt(1 - ab_t), row block by row block."""
    out = np.empty(x.shape)
    for rows, entries, (gathered, terms, feats, half_sq, frames, lj, lj_cols, resp, resp_cols,
                        acc, acc_p, acc_smp, diff) in blocks:
        xb = x[rows]
        table.take(entries, axis=0, out=gathered, mode="clip")
        np.multiply(-0.5 * xb, xb, out=half_sq)
        frames[...] = xb
        np.einsum("nk,nck->nc", feats, gathered, out=lj)
        top = lj_cols[0]
        for col in lj_cols[1:]:
            top = np.maximum(top, col)
        np.exp(np.subtract(lj, top[:, None], out=resp), out=resp)
        norm = resp_cols[0]
        for col in resp_cols[1:]:
            norm = norm + col
        resp /= norm[:, None]
        # K stays out: an unused slot's K is -inf, and its zero weight times it nan.
        np.einsum("nc,nck->nk", resp, terms, out=acc)
        np.subtract(np.multiply(xb, acc_p, out=diff), acc_smp, out=diff)
        np.multiply(scale, diff, out=out[rows])
    return out


def gaussian_posterior_moments(
    mu_p: float, var_p: float, t: int, x_t: float, sched: Schedule
) -> tuple[float, float]:
    """Conjugate clean-frame posterior under a single-Gaussian prior.

    Observation model: x_t ~ N(sqrt(ab) x_0, 1 - ab) with ab the cumulative
    product at step ``t``.
    """
    if var_p <= 0:
        raise ValueError(f"prior variance must be positive, got {var_p}")
    ab = _alpha_bar_one(sched, t)
    precision = 1.0 / var_p + ab / (1.0 - ab)
    mean = (mu_p / var_p + np.sqrt(ab) * x_t / (1.0 - ab)) / precision
    return float(mean), float(1.0 / precision)


# A grid resolves a posterior with this many points above this fraction of
# its peak.
_RESOLVE_POINTS, _RESOLVE_FLOOR = 3, 1e-6


def resolving_points(p: ConditionalGMM, t: int, span: float, sched: Schedule) -> float:
    """Fewest points of an even grid over ``span`` that resolve, as
    :func:`posterior_grid` requires, the narrowest clean-frame posterior of
    the 1-D ``p`` at step ``t``.  That is the conjugate posterior of its
    slimmest component, which lies above 1e-6 of its peak over
    2 sqrt(2 ln 1e6) standard deviations.  The count is a whole-valued
    float: past float range it is inf rather than an OverflowError."""
    sd = np.sqrt(gaussian_posterior_moments(0.0, p.variances.min(), t, 0.0, sched)[1])
    width = float(2.0 * np.sqrt(-2.0 * np.log(_RESOLVE_FLOOR)) * sd)
    return float(np.ceil(_RESOLVE_POINTS * span / width)) + 1.0


def posterior_grid(
    p: ConditionalGMM,
    label: int,
    t: int,
    x_t: float,
    grid: np.ndarray,
    sched: Schedule,
) -> np.ndarray:
    """Normalized clean-frame posterior density of the state ``x_t`` at
    step ``t`` under a one-dimensional mixture prior, tabulated on ``grid``.

    The grid must be wide enough that the truncated tails carry no mass;
    edge density above 1e-6 of the total is rejected as a too-narrow grid.
    It must also resolve the posterior: fewer than 3 points above 1e-6 of
    the peak density are rejected as a too-coarse grid
    (:func:`resolving_points` sizes a grid that passes).
    """
    if p.dim != 1:
        raise ValueError(f"gridded posterior requires a 1-D prior, got dim {p.dim}")
    check_labels([label], p.n_labels)
    ab = _alpha_bar_one(sched, t)
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.shape[0] < 8:
        raise ValueError("grid must be a 1-D array with at least 8 points")
    if not (np.diff(grid) > 0).all():
        raise ValueError("grid must be strictly ascending")
    # Far from the mass the squares overflow to a zero density; the checks
    # below reject a grid where too few points are left.
    with np.errstate(over="ignore", invalid="ignore"):
        log_prior = logpdf_batch(p, np.full(grid.shape[0], label), grid[:, None])
        log_lik = -0.5 * ((x_t - np.sqrt(ab) * grid) ** 2 / (1.0 - ab))
        log_post = log_prior + log_lik
        log_post -= log_post.max()
    dens = np.exp(log_post)
    z = np.trapezoid(dens, grid)
    if not np.isfinite(z) or z <= 0:
        raise ValueError("posterior mass on the grid underflowed; widen or refine the grid")
    covered = int(np.count_nonzero(dens > _RESOLVE_FLOOR))
    if covered < _RESOLVE_POINTS:
        raise ValueError(f"grid too coarse: {covered} of {grid.shape[0]} points lie above "
                         f"{_RESOLVE_FLOOR:g} of the posterior's peak (need {_RESOLVE_POINTS}); "
                         f"narrow or refine the grid")
    dens /= z
    edge_mass = 0.5 * (dens[0] * (grid[1] - grid[0]) + dens[-1] * (grid[-1] - grid[-2]))
    if edge_mass > 1e-6:
        raise ValueError(
            f"grid too narrow: boundary cells carry mass {edge_mass:.3g} (> 1e-06)"
        )
    return dens


def grid_moments(grid: np.ndarray, density: np.ndarray) -> tuple[float, float]:
    """Mean and variance of a density tabulated on ``grid``, by trapezoidal
    quadrature."""
    mean = np.trapezoid(grid * density, grid)
    var = np.trapezoid((grid - mean) ** 2 * density, grid)
    return float(mean), float(var)


def native_class_prob_batch(
    native: ConditionalGMM, l2: ConditionalGMM, labels: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Posterior probability of the native class under equal class priors."""
    if native.dim != l2.dim or native.n_labels != l2.n_labels:
        raise ValueError("the two priors must share dimension and label vocabulary")
    return expit(logpdf_batch(native, labels, x) - logpdf_batch(l2, labels, x))


def marginal_1d(p: ConditionalGMM, dim: int) -> ConditionalGMM:
    """Marginal of one coordinate; diagonal components marginalize slotwise."""
    if not 0 <= dim < p.dim:
        raise ValueError(f"dimension {dim} outside [0, {p.dim})")
    return ConditionalGMM(
        weights=p.weights.copy(),
        means=p.means[:, :, dim:dim + 1].copy(),
        variances=p.variances[:, :, dim:dim + 1].copy(),
    )


def standardized(p: ConditionalGMM, s: Standardizer) -> ConditionalGMM:
    """The prior after frames pass through the standardizer's affine map."""
    if s.mean.shape[0] != p.dim:
        raise ValueError(f"standardizer dim {s.mean.shape[0]} does not match prior dim {p.dim}")
    return ConditionalGMM(
        weights=p.weights.copy(),
        means=(p.means - s.mean) / s.std,
        variances=p.variances / (s.std * s.std),
    )
