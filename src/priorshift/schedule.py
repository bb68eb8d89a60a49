"""Discrete corruption schedule: per-step noise rates, their running products,
the corruption x_t = sqrt(ab_t) x0 + sqrt(1 - ab_t) eps with its inverse, and
the deterministic reverse step made of the two.  Every step argument lies on
[0, T-1]: one step, or a 1-D array of one per row."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_BETA_MIN = 1e-4
DEFAULT_BETA_MAX = 2e-2
DEFAULT_T = 100
# The most steps a schedule may have, so that a step count from a flag or a
# model file fails here rather than in an allocation.  DDPM uses 1,000; an
# exact chain's noised tables over 10,000 steps of the default world take ~44 MB.
MAX_T = 10_000


@dataclass(frozen=True)
class Schedule:
    """Noise schedule over ``T`` discrete steps, indexed t = 0 .. T-1.

    ``alpha_bar`` stores the cumulative products prod_{s<=t} (1 - beta[s])
    as float64, accumulated in extended precision and rounded once, so
    lookups carry no compounding error.
    """

    T: int
    beta: np.ndarray
    alpha_bar: np.ndarray


def linear_schedule(beta_min: float, beta_max: float, T: int) -> Schedule:
    """Evenly spaced rates from ``beta_min`` to ``beta_max`` inclusive."""
    if not isinstance(T, (int, np.integer)) or T < 2:
        raise ValueError(f"T: must be an integer >= 2, got {T!r}")
    if T > MAX_T:
        raise ValueError(f"T: must be at most {MAX_T}, got {T}")
    if not 0.0 < beta_min < 1.0:
        raise ValueError(f"beta_min: must lie in (0, 1), got {beta_min}")
    if not beta_min <= beta_max < 1.0:
        raise ValueError(f"beta_max: must lie in [beta_min, 1), got {beta_max}")
    beta = np.linspace(beta_min, beta_max, T)
    alpha_bar = np.cumprod((1.0 - beta).astype(np.longdouble)).astype(np.float64)
    return Schedule(T=int(T), beta=beta, alpha_bar=alpha_bar)


def check_start_steps(field: str, steps, lo: int, sched: Schedule) -> None:
    """Require user-scale start steps to be non-empty, distinct, ascending
    and each in [``lo``, T]; a failure reads ``<field>: <why>``."""
    steps = list(steps)
    if not steps or steps != sorted(set(steps)):
        raise ValueError(f"{field}: must be distinct and ascending, got {steps}")
    for t in steps:
        if not lo <= t <= sched.T:
            raise ValueError(f"{field}: must lie in [{lo}, {sched.T}], got {t}")


def default_schedule() -> Schedule:
    return linear_schedule(DEFAULT_BETA_MIN, DEFAULT_BETA_MAX, DEFAULT_T)


def alpha_bar_at(sched: Schedule, t: int | np.ndarray) -> float | np.ndarray:
    """Cumulative product at step ``t``: a float for one step, an (n, 1)
    float64 column for a 1-D integer array of steps.  A step that is not an
    integer (a float, a bool) is refused rather than truncated."""
    if type(t) is int:
        # The common case, a plain step, checked without numpy.
        if not 0 <= t < sched.T:
            raise ValueError(f"timestep {t} outside [0, {sched.T - 1}]")
        return float(sched.alpha_bar[t])
    if not isinstance(t, np.ndarray) or t.ndim == 0:
        if np.asarray(t).dtype.kind not in "iu":
            raise ValueError(f"timestep {t!r} is not an integer")
        if not 0 <= t <= sched.T - 1:
            raise ValueError(f"timestep {t} outside [0, {sched.T - 1}]")
        return float(sched.alpha_bar[t])
    if t.dtype.kind not in "iu":
        raise ValueError(f"timesteps must be integers, got dtype {t.dtype}")
    if t.size and (t.min() < 0 or t.max() > sched.T - 1):
        raise ValueError(f"timesteps outside [0, {sched.T - 1}]")
    return sched.alpha_bar[t][:, None]


def _frames_noise_ab(x, noise, t, sched: Schedule):
    """Frames and noise as float64 of one shape, and the cumulative product at ``t``."""
    x = np.asarray(x, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != x.shape:
        raise ValueError(f"noise shape {noise.shape} does not match frames {x.shape}")
    ab = alpha_bar_at(sched, t)
    if isinstance(ab, np.ndarray) and ab.shape[0] != x.shape[0]:
        raise ValueError(f"{ab.shape[0]} timesteps for {x.shape[0]} frames")
    return x, noise, ab


def _roots(ab):
    """The signal and noise scales sqrt(ab) and sqrt(1 - ab) at cumulative level ``ab``."""
    return np.sqrt(ab), np.sqrt(1.0 - ab)


def step_roots(sched: Schedule, stop: int) -> list[tuple[float, float]]:
    """``(sqrt(ab_t), sqrt(1 - ab_t))`` for each step t in [0, ``stop``), read
    from ``alpha_bar`` in one go: a reverse chain's scales, bound once.  Each
    pair has the bits of :func:`alpha_bar_at` at that step through the
    same square roots."""
    if not 0 <= stop <= sched.T:
        raise ValueError(f"steps [0, {stop}) outside [0, {sched.T})")
    ab = sched.alpha_bar[:stop]
    return list(zip(*(np.sqrt(v).tolist() for v in (ab, 1.0 - ab))))


def _corrupt(x0, eps, root_ab, root_1m, out=None, spare=None):
    out = np.multiply(x0, root_ab, out=out)
    out += np.multiply(root_1m, eps, out=spare)
    return out


def _reconstruct(x_t, eps_hat, root_ab, root_1m, out=None):
    out = np.multiply(root_1m, eps_hat, out=out)
    np.subtract(x_t, out, out=out)
    out /= root_ab
    return out


def forward_corrupt(x0: np.ndarray, t, eps: np.ndarray, sched: Schedule) -> np.ndarray:
    """Corrupt clean frames to step ``t`` with the given unit noise."""
    x0, eps, ab = _frames_noise_ab(x0, eps, t, sched)
    return _corrupt(x0, eps, *_roots(ab))


def reconstruct_x0(x_t: np.ndarray, t, eps_hat: np.ndarray, sched: Schedule) -> np.ndarray:
    """Invert the corruption at step ``t`` given a noise estimate."""
    x_t, eps_hat, ab = _frames_noise_ab(x_t, eps_hat, t, sched)
    return _reconstruct(x_t, eps_hat, *_roots(ab))


def ddim_update(x_t: np.ndarray, eps_hat: np.ndarray, roots: tuple[float, float],
                prev_roots: tuple[float, float] | None, out: np.ndarray | None = None,
                spare: np.ndarray | None = None) -> np.ndarray:
    """The arithmetic of :func:`ddim_step` on (n, d) float64 blocks it does
    not check, given the scales of the step's :func:`step_roots` and of the
    step before (None at step 0).  The reconstruction goes into ``out`` and
    the corruption works in place on it, its temporary in ``spare``; either
    is a fresh block when None.  ``out`` must not share memory with
    ``x_t``, nor ``spare`` with ``out`` or ``eps_hat``."""
    out = _reconstruct(x_t, eps_hat, *roots, out)
    return out if prev_roots is None else _corrupt(out, eps_hat, *prev_roots, out, spare)


def ddim_step(x_t: np.ndarray, t: int, eps_hat: np.ndarray, sched: Schedule) -> np.ndarray:
    """One deterministic reverse step from ``t`` to ``t - 1``, or to clean
    from 0: :func:`reconstruct_x0`, then :func:`forward_corrupt` to ``t - 1``
    with the same estimate, on blocks checked once.  The corruption works
    in place on the reconstruction, so a step holds at most two blocks
    beside its inputs."""
    x_t, eps_hat, ab = _frames_noise_ab(x_t, eps_hat, t, sched)
    return ddim_update(x_t, eps_hat, _roots(ab),
                       _roots(alpha_bar_at(sched, t - 1)) if t else None)
