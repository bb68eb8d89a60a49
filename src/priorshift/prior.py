"""Analytic conditional Gaussian-mixture priors.

Everything the corruption process does to a diagonal mixture stays in
closed form: the noised marginal is again a mixture, its score (and hence
the exact noise prediction) is a responsibility-weighted sum, and a single
Gaussian component admits a conjugate clean-frame posterior.  A gridded
posterior covers the general mixture case in one dimension, and a Bayes
two-class rule turns a pair of priors into a nativeness probability.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logsumexp

from .latent import Standardizer, check_labels, frame_block
from .schedule import Schedule, alpha_bar_at

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class ConditionalGMM:
    """Per-label diagonal Gaussian mixtures with a shared component count.

    weights: (L, C) rows summing to 1; zero entries mark unused slots.
    means: (L, C, d); variances: (L, C, d) strictly positive.
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
        if (w < 0).any() or not np.allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12):
            raise ValueError("mixture weights must be nonnegative and sum to 1 per label")
        if not (v > 0).all():
            raise ValueError("component variances must be strictly positive")
        if not (np.isfinite(m).all() and np.isfinite(v).all()):
            raise ValueError("component means and variances must be finite")

    @property
    def n_labels(self) -> int:
        return int(self.weights.shape[0])

    @property
    def n_components(self) -> int:
        return int(self.weights.shape[1])

    @property
    def dim(self) -> int:
        return int(self.means.shape[2])

    def per_row(self, labels) -> "ConditionalGMM":
        """The mixture of each entry of ``labels``, one per row; the batch
        functions take it with ``labels=None``."""
        labels = check_labels(labels, self.n_labels)
        return ConditionalGMM(weights=self.weights[labels], means=self.means[labels],
                              variances=self.variances[labels])

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


@dataclass(frozen=True)
class PosteriorGrid:
    """Normalized clean-frame posterior density tabulated on an ascending grid,
    for the state ``x_t`` at schedule index ``t``."""

    grid: np.ndarray
    density: np.ndarray
    t: int
    x_t: float


def _log_joint(p: ConditionalGMM, labels, x, ab: float = 1.0):
    """Per-frame, per-component log weight plus log density, (n, C), under
    the mixture corrupted to cumulative level ``ab`` (1 is clean); also the
    frames' offsets from the gathered means, and the gathered variances.
    ``labels`` None means ``p`` holds one mixture per frame
    (:meth:`ConditionalGMM.per_row`), so nothing is gathered."""
    x = frame_block(x, p.dim, "prior")
    if labels is None:
        if x.shape[0] != p.n_labels:
            raise ValueError(f"{x.shape[0]} frames for {p.n_labels} per-row mixtures")
        labels = slice(None)
    else:
        labels = check_labels(labels, p.n_labels)
    m = (np.sqrt(ab) * p.means)[labels]
    v = (ab * p.variances + (1.0 - ab))[labels]
    with np.errstate(divide="ignore"):
        lw = np.log(p.weights)[labels]
    diff = x[:, None, :] - m
    return lw - 0.5 * (diff * diff / v + np.log(v) + _LOG_2PI).sum(axis=2), diff, v


def sample_frames(p: ConditionalGMM, labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one frame per entry of ``labels``, in order, from a single stream."""
    labels = check_labels(labels, p.n_labels)
    n = labels.shape[0]
    cum = np.cumsum(p.weights, axis=1)[labels]
    comp = np.minimum((rng.random(n)[:, None] > cum).sum(axis=1), p.n_components - 1)
    eps = rng.standard_normal((n, p.dim))
    return p.means[labels, comp] + np.sqrt(p.variances[labels, comp]) * eps


def logpdf_batch(p: ConditionalGMM, labels: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Uncorrupted mixture log density per frame."""
    return logsumexp(_log_joint(p, labels, x)[0], axis=1)


def noised_marginal_logpdf_batch(
    p: ConditionalGMM, labels: np.ndarray, t: int, x: np.ndarray, sched: Schedule
) -> np.ndarray:
    """Log density of the corrupted marginal at step ``t``, one value per frame."""
    ab = alpha_bar_at(sched, int(t))
    return logsumexp(_log_joint(p, labels, x, ab)[0], axis=1)


def exact_eps_batch(
    p: ConditionalGMM, labels: np.ndarray, t: int, x: np.ndarray, sched: Schedule
) -> np.ndarray:
    """Noise prediction that exactly matches the corrupted-marginal score.

    Returns -sqrt(1 - alpha_bar_t) times the gradient of the log marginal,
    computed from component responsibilities (a max-shifted softmax).  With
    ``labels=None``, ``p`` holds one mixture per row of ``x``.
    """
    ab = alpha_bar_at(sched, int(t))
    lj, diff, v = _log_joint(p, labels, x, ab)
    resp = np.exp(lj - lj.max(axis=1, keepdims=True))
    resp /= resp.sum(axis=1, keepdims=True)
    grad = -(resp[:, :, None] * diff / v).sum(axis=1)
    return -np.sqrt(1.0 - ab) * grad


def gaussian_posterior_moments(
    mu_p: float, var_p: float, t: int, x_t: float, sched: Schedule
) -> tuple[float, float]:
    """Conjugate clean-frame posterior under a single-Gaussian prior.

    Observation model: x_t ~ N(sqrt(ab) x_0, 1 - ab) with ab the cumulative
    product at step ``t``.
    """
    if var_p <= 0:
        raise ValueError(f"prior variance must be positive, got {var_p}")
    ab = alpha_bar_at(sched, int(t))
    precision = 1.0 / var_p + ab / (1.0 - ab)
    mean = (mu_p / var_p + np.sqrt(ab) * x_t / (1.0 - ab)) / precision
    return float(mean), float(1.0 / precision)


def posterior_grid(
    p: ConditionalGMM,
    label: int,
    t: int,
    x_t: float,
    grid: np.ndarray,
    sched: Schedule,
) -> PosteriorGrid:
    """Gridded clean-frame posterior for a one-dimensional mixture prior.

    The grid must be wide enough that the truncated tails carry no mass;
    edge density above 1e-6 of the total is rejected as a too-narrow grid.
    It must also resolve the posterior: fewer than 3 points above 1e-6 of
    the peak density are rejected as a too-coarse grid.
    """
    if p.dim != 1:
        raise ValueError(f"gridded posterior requires a 1-D prior, got dim {p.dim}")
    check_labels([label], p.n_labels)
    ab = alpha_bar_at(sched, int(t))
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
    covered = int(np.count_nonzero(dens > 1e-6))
    if covered < 3:
        raise ValueError(f"grid too coarse: {covered} of {grid.shape[0]} points lie above "
                         f"1e-06 of the posterior's peak (need 3); narrow or refine the grid")
    dens /= z
    edge_mass = 0.5 * (dens[0] * (grid[1] - grid[0]) + dens[-1] * (grid[-1] - grid[-2]))
    if edge_mass > 1e-6:
        raise ValueError(
            f"grid too narrow: boundary cells carry mass {edge_mass:.3g} (> 1e-06)"
        )
    return PosteriorGrid(grid=grid, density=dens, t=int(t), x_t=float(x_t))


def grid_moments(pg: PosteriorGrid) -> tuple[float, float]:
    """Mean and variance of a gridded posterior by trapezoidal quadrature."""
    mean = np.trapezoid(pg.grid * pg.density, pg.grid)
    var = np.trapezoid((pg.grid - mean) ** 2 * pg.density, pg.grid)
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
