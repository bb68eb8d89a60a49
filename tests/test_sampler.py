"""Corruption, deterministic reverse updates, and sequence conversion."""
import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from priorshift import denoiser as denoiser_mod
from priorshift import sampler as sampler_mod
from priorshift.denoiser import eval_loss_diff, forward, init_denoiser, init_residual, \
    predict_zc2
from priorshift.harness import WorldSpec, build_context, gen_dataset, gen_world
from priorshift.latent import (
    Codebook,
    LatentSequence,
    Standardizer,
    destandardize_frames,
    snap_frames,
    standardize_frames,
)
from priorshift.prior import (
    ConditionalGMM,
    exact_eps_batch,
    gaussian_posterior_moments,
    noised_tables,
    sample_frames,
)
from priorshift.rng import PURPOSE_CONVERT, PURPOSE_DATA, substream
from priorshift.sampler import (
    ConvertContext,
    convert_sequences,
    denoise_from,
    forward_corrupt,
    frame_metrics,
    model_eps_source,
    prior_eps_source,
)
from priorshift.schedule import Schedule, alpha_bar_at, ddim_step, default_schedule, \
    reconstruct_x0

SCHED = default_schedule()


def _plateau_schedule(ab: float, T: int = 4) -> Schedule:
    beta = np.concatenate([[1 - ab], np.zeros(T - 1)])
    return Schedule(T=T, beta=beta, alpha_bar=np.full(T, ab))


def _identity_standardizer(d: int) -> Standardizer:
    return Standardizer(mean=np.zeros(d), std=np.ones(d))


class TestForwardCorrupt:
    def test_first_step_coefficients(self):
        x0 = np.array([[1.0, -2.0]])
        eps = np.array([[0.5, 1.0]])
        got = forward_corrupt(x0, 0, eps, SCHED)
        ab = 0.9999
        assert_allclose(got, np.sqrt(ab) * x0 + np.sqrt(1 - ab) * eps, rtol=1e-15)

    def test_terminal_step_frozen_value(self):
        got = forward_corrupt(np.array([[1.0]]), 99, np.array([[1.0]]), SCHED)
        assert_allclose(got[0, 0], 1.4007319233875881, atol=1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            forward_corrupt(np.zeros((2, 3)), 5, np.zeros((2, 2)), SCHED)

    def test_step_range_checked(self):
        x = np.zeros((1, 1))
        with pytest.raises(ValueError):
            forward_corrupt(x, -1, x, SCHED)
        with pytest.raises(ValueError):
            forward_corrupt(x, SCHED.T, x, SCHED)

    def test_one_step_per_row_matches_rowwise_calls(self):
        rng = np.random.default_rng(30)
        x0 = rng.standard_normal((6, 3))
        eps = rng.standard_normal((6, 3))
        t = np.array([0, 99, 13, 13, 57, 1])
        rows = [forward_corrupt(x0[i:i + 1], int(t[i]), eps[i:i + 1], SCHED) for i in range(6)]
        assert np.array_equal(forward_corrupt(x0, t, eps, SCHED), np.concatenate(rows))

    def test_row_steps_must_match_row_count(self):
        x = np.zeros((3, 2))
        with pytest.raises(ValueError, match="2 timesteps for 3 frames"):
            forward_corrupt(x, np.array([1, 2]), x, SCHED)
        with pytest.raises(ValueError, match="1 timesteps for 3 frames"):
            reconstruct_x0(x, np.array([1]), x, SCHED)


class TestReconstruct:
    def test_inverts_corruption_with_true_noise(self):
        rng = np.random.default_rng(0)
        for t in (0, 13, 57, 99):
            x0 = rng.standard_normal((5, 3))
            eps = rng.standard_normal((5, 3))
            x_t = forward_corrupt(x0, t, eps, SCHED)
            assert_allclose(reconstruct_x0(x_t, t, eps, SCHED), x0, rtol=0, atol=1e-12)

    def test_one_step_per_row_matches_rowwise_calls(self):
        rng = np.random.default_rng(31)
        x_t = rng.standard_normal((6, 3))
        eps_hat = rng.standard_normal((6, 3))
        t = np.array([99, 0, 42, 42, 7, 64])
        rows = [reconstruct_x0(x_t[i:i + 1], int(t[i]), eps_hat[i:i + 1], SCHED)
                for i in range(6)]
        assert np.array_equal(reconstruct_x0(x_t, t, eps_hat, SCHED), np.concatenate(rows))

    def test_equals_posterior_mean_under_gaussian_prior(self):
        """With the exact predictor the reconstruction is the conjugate
        posterior mean, computed here by an unrelated closed form."""
        mu, var = 1.3, 0.7
        p = ConditionalGMM.from_components([1.0], [[mu]], [[var]])
        step = prior_eps_source(p, SCHED)(np.zeros(8, dtype=int), range(SCHED.T))
        rng = np.random.default_rng(1)
        for t in (0, 7, 33, 60, 99):
            x_t = rng.normal(0, 2, (8, 1))
            xhat = reconstruct_x0(x_t, t, step(x_t, t), SCHED)
            for i in range(8):
                mean, _ = gaussian_posterior_moments(mu, var, t, float(x_t[i, 0]), SCHED)
                assert_allclose(xhat[i, 0], mean, atol=1e-16 + 1e-14 * abs(mean))


class TestDdimStep:
    def test_final_step_returns_reconstruction(self):
        rng = np.random.default_rng(2)
        x_t = rng.standard_normal((4, 2))
        eps_hat = rng.standard_normal((4, 2))
        got = ddim_step(x_t, 0, eps_hat, SCHED)
        assert np.array_equal(got, reconstruct_x0(x_t, 0, eps_hat, SCHED))

    def test_true_noise_walks_the_corruption_path(self):
        """Feeding the actual corruption noise back in must land exactly on
        the previous step of the forward path."""
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal((6, 2))
        eps = rng.standard_normal((6, 2))
        for t in (1, 25, 70, 99):
            x_t = forward_corrupt(x0, t, eps, SCHED)
            want = forward_corrupt(x0, t - 1, eps, SCHED)
            assert_allclose(ddim_step(x_t, t, eps, SCHED), want, rtol=0, atol=1e-12)

    def test_bitwise_equal_to_reconstruct_then_corrupt(self):
        rng = np.random.default_rng(63)
        for t in (0, 1, 17, 50, SCHED.T - 1):
            x_t = rng.standard_normal((135, 8))
            eps_hat = rng.standard_normal((135, 8))
            want = reconstruct_x0(x_t, t, eps_hat, SCHED)
            if t:
                want = forward_corrupt(want, t - 1, eps_hat, SCHED)
            assert ddim_step(x_t, t, eps_hat, SCHED).tobytes() == want.tobytes()

    @pytest.mark.parametrize("t", [0, 1, 60])
    def test_inputs_are_left_alone(self, t):
        """The step works in place on its own blocks only: its inputs keep
        their values and the result shares memory with neither."""
        rng = np.random.default_rng(64)
        x_t, eps_hat = rng.standard_normal((2, 12, 3))
        keep = x_t.copy(), eps_hat.copy()
        got = ddim_step(x_t, t, eps_hat, SCHED)
        assert np.array_equal(x_t, keep[0]) and np.array_equal(eps_hat, keep[1])
        assert not np.shares_memory(got, x_t) and not np.shares_memory(got, eps_hat)

    def test_mismatched_estimate_rejected(self):
        with pytest.raises(ValueError, match="noise shape"):
            ddim_step(np.zeros((3, 2)), 5, np.zeros((3, 1)), SCHED)

    def test_constant_noise_level_is_a_fixed_point(self):
        """If the cumulative signal fraction does not change between steps,
        the update must return its input for any noise estimate."""
        sched = _plateau_schedule(0.37)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 2))
        eps_hat = rng.standard_normal((3, 2))
        assert_allclose(ddim_step(x, 2, eps_hat, sched), x, rtol=0, atol=1e-15)


class TestBoundSteps:
    """A predictor bound to a chain's labels and steps gives the bits of the
    unbound per-step calls."""

    @pytest.mark.parametrize("t", [0, 50, SCHED.T - 1])
    def test_exact_step_bitwise_equal_to_exact_eps_batch(self, t):
        rng = np.random.default_rng(61)
        w = rng.dirichlet(np.ones(3), size=4)
        w[2, 0] = 0.0
        w[2] /= w[2].sum()
        p = ConditionalGMM(weights=w, means=rng.normal(0, 2, (4, 3, 5)),
                           variances=rng.uniform(0.3, 2.0, (4, 3, 5)))
        labels = rng.integers(0, 4, 33)
        labels[0] = 2
        x = rng.normal(0, 2, (33, 5))
        got = prior_eps_source(p, SCHED)(labels, range(t, t + 1))(x, t)
        assert got.tobytes() == exact_eps_batch(p, labels, t, x, SCHED).tobytes()

    @pytest.mark.parametrize("L", [4, 256])
    def test_exact_chain_builds_tables_once(self, L, monkeypatch):
        """A chain from start step 61 makes one table build, for exactly its
        steps 0..60 and the chain's labels; every step gives the bits of an
        unbound call, and a step outside the bound steps is refused, not
        rebuilt."""
        rng = np.random.default_rng(63)
        p = ConditionalGMM(weights=rng.dirichlet(np.ones(2), size=L),
                           means=rng.normal(0, 2, (L, 2, 8)),
                           variances=rng.uniform(0.5, 1.5, (L, 2, 8)))
        labels = rng.integers(0, L, 135)
        builds = []

        def counting(*args):
            builds.append(args[2])
            return noised_tables(*args)

        monkeypatch.setattr(sampler_mod, "noised_tables", counting)
        bound, seen = [], []

        def predictor(lab, steps):
            bound.append(prior_eps_source(p, SCHED)(lab, steps))

            def checked(x, t):
                got = bound[0](x, t)
                assert got.tobytes() == exact_eps_batch(p, labels, t, x, SCHED).tobytes()
                seen.append(t)
                return got

            return checked

        x = rng.normal(0, 2, (135, 8))
        denoise_from(x, 61, predictor, labels, SCHED)
        assert builds == [range(61)] and len(bound) == 1
        assert seen == list(range(60, -1, -1))
        for t in (61, SCHED.T - 1):
            with pytest.raises(ValueError, match=rf"step {t} outside the tables' steps \[0, 60\]"):
                bound[0](x, t)
        assert builds == [range(61)]

    def test_exact_conversion_builds_tables_once(self, monkeypatch):
        """A conversion binds its exact predictor once, for the steps of its
        chain; start step 0 binds nothing."""
        ctx, seqs = _packing_fixture(model=False)
        builds = []

        def counting(*args):
            builds.append(args[2])
            return noised_tables(*args)

        monkeypatch.setattr(sampler_mod, "noised_tables", counting)
        convert_sequences(seqs, ctx, 100, 3)
        assert builds == [range(100)]
        convert_sequences(seqs, ctx, 0, 3)
        assert builds == [range(100)]

    def test_one_step_per_binding_builds_that_step_alone(self, monkeypatch):
        """``eval_loss_diff`` binds once per distinct step, to that step's
        range alone: 100 distinct steps make 100 one-step builds."""
        rng = np.random.default_rng(64)
        p = ConditionalGMM(weights=rng.dirichlet(np.ones(2), size=3),
                           means=rng.normal(0, 2, (3, 2, 4)),
                           variances=rng.uniform(0.5, 1.5, (3, 2, 4)))
        builds = []

        def counting(*args):
            builds.append(args[2])
            return noised_tables(*args)

        monkeypatch.setattr(sampler_mod, "noised_tables", counting)
        t = np.repeat(np.arange(100), 3)
        labels = rng.integers(0, 3, t.size)
        x0 = rng.normal(0, 1, (t.size, 4))
        eps = rng.standard_normal((t.size, 4))
        got = eval_loss_diff(prior_eps_source(p, SCHED), x0, labels, t, eps, SCHED)
        assert builds == [range(tv, tv + 1) for tv in range(100)]
        want = eval_loss_diff(
            lambda lab, steps: lambda x, tv: exact_eps_batch(p, lab, tv, x, SCHED),
            x0, labels, t, eps, SCHED,
        )
        assert got == want

    def test_model_bind_checks_the_labels_once(self, monkeypatch):
        """Binding checks the labels, and fails on one out of range as
        ``forward`` does; the bound steps check nothing more."""
        rng = np.random.default_rng(63)
        theta = init_denoiser(3, 4, (8,), 4, 4, rng)
        with pytest.raises(ValueError, match=r"labels outside \[0, 4\)"):
            model_eps_source(theta)(np.array([0, 4]), range(SCHED.T))
        checks = []
        real_check = denoiser_mod.check_labels
        monkeypatch.setattr(denoiser_mod, "check_labels",
                            lambda labels, k: checks.append(k) or real_check(labels, k))
        denoise_from(rng.standard_normal((6, 3)), 40, model_eps_source(theta),
                     rng.integers(0, 4, 6), SCHED)
        assert checks == [4]

    def test_model_step_bitwise_equal_to_forward(self):
        rng = np.random.default_rng(62)
        theta = init_denoiser(3, 4, (16, 12), 6, 8, rng)
        for arr in theta.tensors.values():
            arr += 0.2 * rng.standard_normal(arr.shape)
        labels = rng.integers(0, 4, 21)
        step = model_eps_source(theta)(labels, range(SCHED.T))
        ws: dict = {}
        for t in (99, 50, 0):
            x = rng.normal(0, 1, (21, 3))
            got = step(x, t)
            assert got.tobytes() == forward(theta, x, t, labels).tobytes()
            assert got.tobytes() == forward(theta, x, t, labels, workspace=ws).tobytes()


class TestDenoiseFrom:
    def test_zero_start_is_identity(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 2))
        p = ConditionalGMM.from_components([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
        out = denoise_from(x, 0, prior_eps_source(p, SCHED), np.zeros(4, dtype=int), SCHED)
        assert np.array_equal(out, x)

    @pytest.mark.parametrize("t_start", [0, 1, 30])
    def test_result_never_aliases_the_input(self, t_start):
        p = ConditionalGMM.from_components([1.0], [[0.5, -0.5]], [[1.0, 0.7]])
        rng = np.random.default_rng(12)
        x = rng.standard_normal((6, 2))
        keep = x.copy()
        out = denoise_from(x, t_start, prior_eps_source(p, SCHED), np.zeros(6, dtype=int), SCHED)
        assert np.array_equal(x, keep) and not np.shares_memory(out, x)

    def test_single_step_equals_ddim_step(self):
        p = ConditionalGMM.from_components([1.0], [[0.5]], [[1.0]])
        predictor = prior_eps_source(p, SCHED)
        labels = np.zeros(5, dtype=int)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, 1))
        want = ddim_step(x, 0, predictor(labels, range(1))(x, 0), SCHED)
        assert np.array_equal(denoise_from(x, 1, predictor, labels, SCHED), want)

    def test_start_range_checked(self):
        p = ConditionalGMM.from_components([1.0], [[0.0]], [[1.0]])
        predictor = prior_eps_source(p, SCHED)
        labels = np.zeros(1, dtype=int)
        with pytest.raises(ValueError):
            denoise_from(np.zeros((1, 1)), SCHED.T + 1, predictor, labels, SCHED)
        with pytest.raises(ValueError):
            denoise_from(np.zeros((1, 1)), -1, predictor, labels, SCHED)

    def test_transports_terminal_marginal_onto_prior(self):
        """Corrupt prior draws to the last step, then run the full reverse
        chain: outputs must be distributed like fresh prior draws up to
        discretization (the spread contracts by well under a percent)."""
        mu, var = 1.3, 0.7
        p = ConditionalGMM.from_components([1.0], [[mu]], [[var]])
        n = 20_000
        rng = substream(1, PURPOSE_DATA)
        x0 = sample_frames(p, np.zeros(n, dtype=int), rng)
        eps = rng.standard_normal((n, 1))
        x_T = forward_corrupt(x0, SCHED.T - 1, eps, SCHED)
        out = denoise_from(x_T, SCHED.T, prior_eps_source(p, SCHED), np.zeros(n, dtype=int),
                           SCHED)
        assert abs(out.mean() - mu) < 4 * np.sqrt(var / n)
        assert 0.98 < out.std() / np.sqrt(var) < 1.005

    def test_rows_are_independent_for_exact_predictor(self):
        p = ConditionalGMM.from_components(
            [0.4, 0.6], [[-1.0, 0.5], [1.0, -0.5]], [[1.0, 0.8], [0.6, 1.2]]
        )
        predictor = prior_eps_source(p, SCHED)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((6, 2))
        labels = np.zeros(6, dtype=int)
        batch = denoise_from(x, 40, predictor, labels, SCHED)
        for i in range(6):
            row = denoise_from(x[i:i + 1], 40, predictor, labels[i:i + 1], SCHED)
            assert np.array_equal(batch[i], row[0])

    def test_rows_nearly_independent_for_network_predictor(self):
        """Matrix-matrix and matrix-vector products may round differently,
        so the network path is only required to agree to float precision."""
        rng = np.random.default_rng(8)
        theta = init_denoiser(2, 1, (8,), 4, 4, rng)
        for arr in theta.tensors.values():
            arr += 0.2 * rng.standard_normal(arr.shape)
        predictor = model_eps_source(theta)
        x = rng.standard_normal((5, 2))
        labels = np.zeros(5, dtype=int)
        batch = denoise_from(x, 30, predictor, labels, SCHED)
        for i in range(5):
            row = denoise_from(x[i:i + 1], 30, predictor, labels[i:i + 1], SCHED)
            assert_allclose(batch[i], row[0], atol=1e-12)

    def test_network_predictor_reuses_one_workspace_over_the_chain(self, monkeypatch):
        """Every step of a chain hands the network core the predictor's one
        workspace, whose arrays keep their identity from step to step."""
        seen = []
        real_core = denoiser_mod._forward_cached

        def spy(theta, x_t, workspace, t, labels):
            out = real_core(theta, x_t, workspace, t, labels)
            seen.append((workspace, {k: id(v) for k, v in workspace.items()}))
            return out

        rng = np.random.default_rng(9)
        theta = init_denoiser(2, 3, (8, 8), 4, 4, rng)
        predictor = model_eps_source(theta)
        x = rng.standard_normal((7, 2))
        labels = rng.integers(0, 3, 7)
        want = denoise_from(x, 25, predictor, labels, SCHED)
        monkeypatch.setattr(denoiser_mod, "_forward_cached", spy)
        got = denoise_from(x, 25, predictor, labels, SCHED)
        assert np.array_equal(got, want)
        assert len(seen) == 25 and seen[0][1]
        assert all(ws is seen[0][0] and ids == seen[0][1] for ws, ids in seen)

    def test_network_chain_matches_stateless_forward_bitwise(self):
        """A 100-step chain through the source's workspace (bound label
        tables, reused row blocks) equals calling ``forward`` afresh at
        every step."""
        rng = np.random.default_rng(10)
        theta = init_denoiser(3, 4, (16, 12), 6, 8, rng)
        for arr in theta.tensors.values():
            arr += 0.2 * rng.standard_normal(arr.shape)
        x = rng.standard_normal((45, 3))
        labels = rng.integers(0, 4, 45)
        got = denoise_from(x, 100, model_eps_source(theta), labels, SCHED)
        want = denoise_from(x, 100, lambda lab, steps: lambda xt, t: forward(theta, xt, t, lab),
                            labels, SCHED)
        assert np.array_equal(got, want)

    def test_chain_on_time_rows_of_an_earlier_chain_matches_a_fresh_workspace(self):
        """A 30-step chain on a block of another row count, after a 60-step
        chain through the same source built the time rows of its steps,
        gives the bits of the same chain through a fresh source."""
        rng = np.random.default_rng(13)
        theta = init_denoiser(3, 4, (16, 12), 6, 8, rng)
        for arr in theta.tensors.values():
            arr += 0.2 * rng.standard_normal(arr.shape)
        predictor = model_eps_source(theta)
        denoise_from(rng.standard_normal((50, 3)), 60, predictor, rng.integers(0, 4, 50), SCHED)
        x = rng.standard_normal((21, 3))
        labels = rng.integers(0, 4, 21)
        got = denoise_from(x, 30, predictor, labels, SCHED)
        want = denoise_from(x, 30, model_eps_source(theta), labels, SCHED)
        assert got.tobytes() == want.tobytes()

    def test_label_tables_are_built_once_per_source(self):
        """Each FiLM coefficient's label table ``label_emb @ w.T`` is built on
        a source's first step only: 2 layers x 2 coefficients per source."""
        products = []

        class CountingMatmul(np.ndarray):
            def __matmul__(self, other):
                products.append(other.shape)
                return np.matmul(np.asarray(self), other)

        rng = np.random.default_rng(11)
        theta = init_denoiser(2, 3, (8, 8), 4, 4, rng)
        theta.tensors["label_emb"] = theta.tensors["label_emb"].view(CountingMatmul)
        x = rng.standard_normal((7, 2))
        labels = rng.integers(0, 3, 7)
        predictor = model_eps_source(theta)
        denoise_from(x, 25, predictor, labels, SCHED)
        assert len(products) == 4
        denoise_from(x, 25, predictor, labels, SCHED)
        assert len(products) == 4
        denoise_from(x, 25, model_eps_source(theta), labels, SCHED)
        assert len(products) == 8


class TestFrameMetrics:
    def test_identical_frames(self):
        p = ConditionalGMM.from_components([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
        x = np.array([[1.0, 2.0], [-1.0, 0.5]])
        l2d, cos, prob = frame_metrics(x, x, np.zeros(2, dtype=int), p, p)
        assert_allclose(l2d, 0.0)
        assert_allclose(cos, 1.0)
        assert_allclose(prob, 0.5)

    def test_zero_vector_does_not_blow_up(self):
        p = ConditionalGMM.from_components([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
        x = np.zeros((1, 2))
        y = np.array([[1.0, 0.0]])
        l2d, cos, prob = frame_metrics(x, y, np.zeros(1, dtype=int), p, p)
        assert np.isfinite(cos).all()
        assert_allclose(l2d, 1.0)


def _priors(d=2):
    """Native and shifted priors of the conversion fixture."""
    native = ConditionalGMM.from_components([1.0], [[0.0] * d], [[1.0] * d])
    shifted = ConditionalGMM.from_components([1.0], [[2.0] * d], [[1.0] * d])
    return native, shifted


def _metrics(inp: LatentSequence, out: LatentSequence):
    return frame_metrics(inp.frames, out.frames, inp.labels, *_priors(inp.dim))


def _convert_fixture(d=2, snap=True):
    native, _ = _priors(d)
    rng = np.random.default_rng(9)
    entries = rng.normal(0, 1, (32, d))
    ctx = ConvertContext(
        sched=SCHED,
        standardizer=_identity_standardizer(d),
        predictor=prior_eps_source(native, SCHED),
        codebook=Codebook(entries=entries) if snap else None,
    )
    frames = rng.normal(1.5, 1.0, (20, d))
    seq = LatentSequence(id="case", labels=rng.integers(0, 1, 20), frames=frames)
    return ctx, seq


class TestConvert:
    def test_zero_start_without_snap_is_identity(self):
        ctx, seq = _convert_fixture(snap=False)
        [out] = convert_sequences([seq], ctx, 0, 0)
        assert_allclose(out.frames, seq.frames, atol=1e-12)
        l2d, cos, _ = _metrics(seq, out)
        assert l2d.mean() < 1e-12
        assert_allclose(cos.mean(), 1.0, atol=1e-12)
        assert len(out) == 20

    def test_snapped_output_lands_on_codebook(self):
        ctx, seq = _convert_fixture(snap=True)
        [out] = convert_sequences([seq], ctx, 30, 1)
        for row in out.frames:
            assert any(np.array_equal(row, e) for e in ctx.codebook.entries)

    def test_no_noise_single_step_matches_posterior_mean(self):
        """With zero corruption noise and one reverse step the pipeline
        collapses to the conjugate posterior mean at step zero, computed
        here by the closed form instead of the update rule."""
        d = 1
        ctx, _ = _convert_fixture(d=d, snap=False)
        frames = np.array([[0.8], [-0.4], [2.2]])
        labels = np.zeros(3, dtype=int)
        x_t = forward_corrupt(frames, 0, np.zeros_like(frames), SCHED)
        out = denoise_from(x_t, 1, ctx.predictor, labels, SCHED)
        ab = alpha_bar_at(SCHED, 0)
        for i in range(3):
            mean, _ = gaussian_posterior_moments(0.0, 1.0, 0, np.sqrt(ab) * frames[i, 0], SCHED)
            assert_allclose(out[i, 0], mean, rtol=1e-12)

    def test_standardizer_round_trip_preserved(self):
        ctx, seq = _convert_fixture(snap=False)
        std = Standardizer(mean=np.array([0.7, -0.3]), std=np.array([1.4, 0.6]))
        ctx2 = ConvertContext(sched=ctx.sched, standardizer=std, predictor=ctx.predictor)
        [out] = convert_sequences([seq], ctx2, 0, 2)
        assert_allclose(out.frames, seq.frames, atol=1e-9)

    def test_residual_head_adds_to_snapped_frames(self):
        ctx, seq = _convert_fixture(snap=True)
        phi = init_residual(2, (), np.random.default_rng(3))
        phi.tensors["out_w"][:] = 0
        phi.tensors["out_b"][:] = [0.25, -0.5]
        h = np.random.default_rng(4).normal(0, 1, seq.frames.shape)
        seq2 = LatentSequence(id=seq.id, labels=seq.labels, frames=seq.frames, h=h)
        ctx2 = ConvertContext(sched=ctx.sched, standardizer=ctx.standardizer,
                              predictor=ctx.predictor, codebook=ctx.codebook, residual=phi)
        [base] = convert_sequences([seq2], ctx, 15, 5)
        [res] = convert_sequences([seq2], ctx2, 15, 5)
        assert_allclose(res.frames - base.frames,
                        np.tile([0.25, -0.5], (20, 1)), atol=1e-12)

    def test_missing_pieces_raise(self):
        ctx, seq = _convert_fixture(snap=False)
        phi = init_residual(2, (), np.random.default_rng(1))
        ctx3 = ConvertContext(sched=ctx.sched, standardizer=ctx.standardizer,
                              predictor=ctx.predictor, residual=phi)
        with pytest.raises(ValueError, match="sequence 'case' lacks the h track"):
            convert_sequences([seq], ctx3, 5, 0)

    @pytest.mark.parametrize("t_start", [-1, SCHED.T + 1])
    def test_start_beyond_schedule_rejected(self, t_start):
        ctx, seq = _convert_fixture(snap=False)
        with pytest.raises(ValueError, match="t_start"):
            convert_sequences([seq], ctx, t_start, 0)


def _packing_fixture(model: bool):
    """Sequences of unequal lengths and a context with a non-identity
    standardizer and a codebook; the exact two-component predictor, or a
    small untrained denoiser with a residual head."""
    d = 2
    rng = np.random.default_rng(12)
    std = Standardizer(mean=np.array([0.3, -0.2]), std=np.array([1.3, 0.8]))
    if model:
        predictor = model_eps_source(init_denoiser(d, 3, (16, 16), 8, 8, rng))
        phi = init_residual(d, (8,), rng)
    else:
        p = ConditionalGMM(
            weights=np.array([[0.4, 0.6], [0.7, 0.3], [0.5, 0.5]]),
            means=rng.normal(0.0, 1.5, (3, 2, d)),
            variances=rng.uniform(0.4, 1.2, (3, 2, d)),
        )
        predictor, phi = prior_eps_source(p, SCHED), None
    ctx = ConvertContext(sched=SCHED, standardizer=std, predictor=predictor,
                         codebook=Codebook(entries=rng.normal(0, 1, (24, d))), residual=phi)
    seqs = []
    for i, n in enumerate((1, 7, 3, 12, 5)):
        seqs.append(LatentSequence(
            id=f"p-{i}", labels=rng.integers(0, 3, n), frames=rng.normal(0.5, 1.0, (n, d)),
            h=rng.normal(0.0, 1.0, (n, d)) if model else None,
        ))
    return ctx, seqs


def _convert_alone(seq: LatentSequence, ctx: ConvertContext, t_start: int, seed: int, i: int):
    """Frames of one sequence converted on its own, noise from substream ``i``."""
    xs = standardize_frames(seq.frames, ctx.standardizer)
    eps = substream(seed, PURPOSE_CONVERT, i).standard_normal(xs.shape)
    x_t = forward_corrupt(xs, t_start - 1, eps, ctx.sched)
    zc1 = destandardize_frames(
        denoise_from(x_t, t_start, ctx.predictor, seq.labels, ctx.sched), ctx.standardizer
    )
    zc2 = predict_zc2(ctx.residual, seq.h, zc1) if ctx.residual is not None else 0.0
    if ctx.codebook is not None:
        _, zc1 = snap_frames(zc1, ctx.codebook)
    return zc1 + zc2


class TestConvertSequences:
    def _many(self, n=6):
        ctx, _ = _convert_fixture(snap=False)
        rng = np.random.default_rng(10)
        seqs = [
            LatentSequence(id=f"s-{i:05d}", labels=np.zeros(8, dtype=int),
                           frames=rng.normal(1.0, 1.0, (8, 2)))
            for i in range(n)
        ]
        return ctx, seqs

    def test_order_and_ids_preserved(self):
        ctx, seqs = self._many()
        results = convert_sequences(seqs, ctx, 20, 3)
        assert [r.id for r in results] == [s.id for s in seqs]

    def test_each_sequence_uses_its_position_substream(self):
        """Packed exact conversion gives each sequence the bits of converting
        it alone, from the lower-level pieces, on its position's substream."""
        ctx, seqs = _packing_fixture(model=False)
        results = convert_sequences(seqs, ctx, 20, 3)
        for i, out in enumerate(results):
            alone = _convert_alone(seqs[i], ctx, 20, 3, i)
            assert np.array_equal(out.frames, alone)
            assert np.array_equal(out.labels, seqs[i].labels)

    def test_model_path_packs_to_rounding_level(self):
        """Batched matrix products may round differently from one-sequence
        blocks, so the model path matches lone conversion to rounding level;
        a rerun of the same batch is bitwise identical."""
        ctx, seqs = _packing_fixture(model=True)
        ctx = dataclasses.replace(ctx, codebook=None)
        results = convert_sequences(seqs, ctx, 30, 8)
        rerun = convert_sequences(seqs, ctx, 30, 8)
        for i, out in enumerate(results):
            assert np.array_equal(out.frames, rerun[i].frames)
            assert_allclose(out.frames, _convert_alone(seqs[i], ctx, 30, 8, i),
                            rtol=1e-12, atol=1e-12)

    def test_empty_batch(self):
        ctx, _ = self._many(1)
        assert convert_sequences([], ctx, 20, 0) == []

    def test_reruns_identical(self):
        ctx, seqs = self._many(3)
        r1 = convert_sequences(seqs, ctx, 40, 11)
        r2 = convert_sequences(seqs, ctx, 40, 11)
        for a, b in zip(r1, r2):
            assert np.array_equal(a.frames, b.frames)

    def test_chain_holds_no_spare_frame_block(self):
        """An exact conversion of 40 x 50 frames of dimension 512 (8.2 MB a
        block) at start step 10 peaks at ~33 MB of traced allocations: the
        clean block and the noise die with the corruption, the corrupted
        block at the chain's first reverse step, the chain does not copy its
        input, and a reverse step works in place on its own blocks.  With
        the corrupted block held through the chain the peak was ~41 MB."""
        world = gen_world(WorldSpec(seed=3, n_labels=2, n_components=2, dim=512))
        seqs = gen_dataset(world, "l2", 40, 50, substream(0, PURPOSE_DATA))
        ctx = build_context(world, SCHED, None)
        tracemalloc.start()
        try:
            convert_sequences(seqs, ctx, 10, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 37e6

    def test_noise_differs_per_sequence(self):
        ctx, seqs = self._many(2)
        clone = LatentSequence(id="twin", labels=seqs[0].labels.copy(),
                               frames=seqs[0].frames.copy())
        results = convert_sequences([seqs[0], clone], ctx, 60, 0)
        assert not np.array_equal(results[0].frames, results[1].frames)
