"""Built-in oracle suites behind the ``verify`` subcommand.

Each suite checks one analytic backbone of the engine against an
independent route: backprop against central finite differences, the
conjugate posterior against grid quadrature, and the corruption and
reverse-step algebra against their closed-form inverses.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoiser import draw_batch_noise, init_denoiser, init_residual, loss_total
from .prior import ConditionalGMM, gaussian_posterior_moments, grid_moments, posterior_grid
from .rng import PURPOSE_VERIFY, substream
from .schedule import ddim_step, default_schedule, forward_corrupt, reconstruct_x0

GRAD_TOL = 1e-4
MOMENT_TOL = 1e-6
IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class SuiteResult:
    name: str
    ok: bool
    detail: str


def gradient_check(loss_fn, tensors: dict[str, np.ndarray],
                   step: float = 1e-4) -> dict[str, float]:
    """Worst relative error per tensor between the analytic gradients that
    ``loss_fn()`` returns as ``(loss, {name: grad})`` and central finite
    differences over every entry, measured against the larger of the two
    gradients' peak magnitudes.  ``loss_fn`` must be deterministic and read
    the tensors in place."""
    _, analytic = loss_fn()
    worst: dict[str, float] = {}
    for name, arr in tensors.items():
        fd = np.empty_like(arr)
        flat = arr.ravel()
        fd_flat = fd.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            lp = loss_fn()[0]
            flat[j] = orig - step
            lm = loss_fn()[0]
            flat[j] = orig
            fd_flat[j] = (lp - lm) / (2.0 * step)
        scale = max(np.abs(fd).max(), np.abs(analytic[name]).max(), 1e-12)
        worst[name] = float(np.abs(fd - analytic[name]).max() / scale)
    return worst


def _randomized_params(rng: np.random.Generator):
    theta = init_denoiser(dim=2, n_labels=3, hidden=(8,), cond_dim=6, time_dim=6, rng=rng)
    phi = init_residual(dim=2, hidden=(8,), rng=rng)
    # Move every tensor off its special initial value so the check covers
    # generic positions, not just the identity-FiLM start.
    for t in (theta.tensors, phi.tensors):
        for name in t:
            t[name] += 0.3 * rng.standard_normal(t[name].shape)
    return theta, phi


def gradient_suite(seed: int = 0) -> SuiteResult:
    rng = substream(seed, PURPOSE_VERIFY, 1)
    theta, phi = _randomized_params(rng)
    sched = default_schedule()
    n = 12
    x0 = rng.standard_normal((n, 2))
    zc2 = rng.standard_normal((n, 2))
    h = rng.standard_normal((n, 2))
    labels = rng.integers(0, 3, size=n)
    t, eps, masks = draw_batch_noise(theta, n, sched, rng, 0.25)

    # The reconstruction feeding the residual head is detached, so the
    # denoiser's analytic gradient is the diffusion term's alone; check it
    # against that term, which is the total at lam=0.  The head has no
    # other path, so the total works.
    def loss_theta():
        loss, tg, _ = loss_total(theta, phi, x0, zc2, h, labels, t, eps, masks, 0.0, sched)
        return loss, tg

    def loss_phi():
        loss, _, rg = loss_total(theta, phi, x0, zc2, h, labels, t, eps, masks, 0.5, sched)
        return loss, rg

    worst = gradient_check(loss_theta, theta.tensors)
    worst.update({f"res.{k}": v for k, v in gradient_check(loss_phi, phi.tensors).items()})
    peak = max(worst.values())
    ok = peak < GRAD_TOL
    return SuiteResult(
        name="gradient-check",
        ok=ok,
        detail=f"{len(worst)} tensors, worst relative error {peak:.3g} (tol {GRAD_TOL:g})",
    )


def posterior_suite(seed: int = 0) -> SuiteResult:
    rng = substream(seed, PURPOSE_VERIFY, 2)
    sched = default_schedule()
    cases = 50
    worst = 0.0
    for _ in range(cases):
        mu_p = float(rng.normal(0.0, 2.0))
        var_p = float(rng.uniform(0.5, 3.0))
        t = int(rng.integers(0, sched.T))
        x0 = float(rng.normal(mu_p, np.sqrt(var_p)))
        x_t = float(forward_corrupt(np.array([[x0]]), t, rng.standard_normal((1, 1)), sched)[0, 0])
        mean, var = gaussian_posterior_moments(mu_p, var_p, t, x_t, sched)
        sd = np.sqrt(var)
        grid = np.linspace(mean - 9 * sd, mean + 9 * sd, 1201)
        p = ConditionalGMM.from_components([1.0], [[mu_p]], [[var_p]])
        gm, gv = grid_moments(grid, posterior_grid(p, 0, t, x_t, grid, sched))
        scale = max(abs(mean), sd)
        worst = max(worst, abs(gm - mean) / scale, abs(gv - var) / var)
    ok = worst < MOMENT_TOL
    return SuiteResult(
        name="posterior-grid",
        ok=ok,
        detail=f"{cases} conjugate cases, worst relative error {worst:.3g} (tol {MOMENT_TOL:g})",
    )


def identity_suite(seed: int = 0) -> SuiteResult:
    rng = substream(seed, PURPOSE_VERIFY, 3)
    sched = default_schedule()
    cases = 1000
    worst = 0.0
    for _ in range(cases):
        d = int(rng.integers(1, 9))
        t = int(rng.integers(0, sched.T))
        x0 = rng.standard_normal((1, d))
        eps = rng.standard_normal((1, d))
        x_t = forward_corrupt(x0, t, eps, sched)
        back = reconstruct_x0(x_t, t, eps, sched)
        worst = max(worst, float(np.abs(back - x0).max()))
        stepped = ddim_step(x_t, t, eps, sched)
        target = x0 if t == 0 else forward_corrupt(x0, t - 1, eps, sched)
        worst = max(worst, float(np.abs(stepped - target).max()))
    ok = worst < IDENTITY_TOL
    return SuiteResult(
        name="sampler-identities",
        ok=ok,
        detail=f"{cases} cases, worst absolute error {worst:.3g} (tol {IDENTITY_TOL:g})",
    )


def run_suites(seed: int = 0) -> list[SuiteResult]:
    return [gradient_suite(seed), posterior_suite(seed), identity_suite(seed)]
