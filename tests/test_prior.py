"""Closed-form mixture math against sampling, quadrature, and difference oracles."""
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import special

from priorshift import prior
from priorshift.harness import WorldSpec, gen_world
from priorshift.latent import Standardizer
from priorshift.prior import (
    ConditionalGMM,
    exact_eps_batch,
    gaussian_posterior_moments,
    grid_moments,
    logpdf_batch,
    marginal_1d,
    native_class_prob_batch,
    noised_marginal_logpdf_batch,
    noised_tables,
    posterior_grid,
    sample_frames,
    standardized,
)
from priorshift.schedule import Schedule, alpha_bar_at, default_schedule

SCHED = default_schedule()


def _plateau_schedule(ab: float) -> Schedule:
    """Synthetic two-step schedule whose cumulative product is exactly ``ab``."""
    beta = np.array([1 - ab, 0.0])
    return Schedule(T=2, beta=beta, alpha_bar=np.array([ab, ab]))


def _gauss_logpdf(x, mean, var):
    return -0.5 * ((x - mean) ** 2 / var + np.log(2 * np.pi * var))


# Label 0 for a one-frame batch, and a single frame as that batch.
L0 = np.zeros(1, dtype=int)


def _one(x):
    return np.asarray(x, dtype=np.float64)[None, :]


def _draw(p, n, rng):
    """n frames of label 0."""
    return sample_frames(p, np.zeros(n, dtype=int), rng)


class TestConstruction:
    def test_weight_rows_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ConditionalGMM(weights=np.array([[0.5, 0.4]]),
                           means=np.zeros((1, 2, 1)), variances=np.ones((1, 2, 1)))

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            ConditionalGMM.from_components([1.0], [[0.0]], [[0.0]])

    def test_zero_weight_components_allowed(self):
        p = ConditionalGMM.from_components([1.0, 0.0], [[0.0], [50.0]], [[1.0], [1.0]])
        assert p.n_components == 2
        # the dead component contributes nothing anywhere
        got = logpdf_batch(p, L0, np.array([[0.0]]))[0]
        assert_allclose(got, _gauss_logpdf(0.0, 0.0, 1.0))


class TestSampling:
    def test_tiny_variance_concentrates_at_mean(self):
        p = ConditionalGMM.from_components([1.0], [[2.0, -1.0]], [[1e-20, 1e-20]])
        x = _draw(p, 100, np.random.default_rng(0))
        assert np.abs(x - [2.0, -1.0]).max() < 1e-8

    def test_degenerate_weights_route_all_draws(self):
        p = ConditionalGMM.from_components([1.0, 0.0], [[0.0], [100.0]], [[1.0], [1.0]])
        x = _draw(p, 500, np.random.default_rng(1))
        assert np.abs(x).max() < 10

    def test_component_frequencies(self):
        p = ConditionalGMM.from_components([0.3, 0.7], [[-20.0], [20.0]], [[1.0], [1.0]])
        x = _draw(p, 100_000, np.random.default_rng(2))
        freq = (x[:, 0] > 0).mean()
        assert abs(freq - 0.7) < 0.01

    def test_moments_match_mixture(self):
        rng = np.random.default_rng(3)
        p = ConditionalGMM.from_components([0.4, 0.6], [[1.0], [-2.0]], [[0.5], [2.0]])
        x = _draw(p, 200_000, rng)[:, 0]
        mean = 0.4 * 1.0 + 0.6 * -2.0
        second = 0.4 * (0.5 + 1.0) + 0.6 * (2.0 + 4.0)
        var = second - mean ** 2
        assert abs(x.mean() - mean) < 4 * np.sqrt(var / x.size)
        assert abs(x.var() - var) < 0.05

    def test_sample_frames_routes_by_label(self):
        p = ConditionalGMM(weights=np.ones((2, 1)),
                           means=np.array([[[-30.0]], [[30.0]]]),
                           variances=np.ones((2, 1, 1)))
        labels = np.array([0, 1, 0, 1, 1])
        x = sample_frames(p, labels, np.random.default_rng(4))[:, 0]
        assert ((x < 0) == (labels == 0)).all()

    def test_sample_frames_matches_the_block_draw(self):
        """Components picked column by column are the ones an (n, components)
        block comparison picks, so the frames are bitwise equal."""
        rng = np.random.default_rng(6)
        weights = rng.dirichlet(np.full(5, 0.3), size=4)
        weights[1, 2:] = 0.0
        weights[1] /= weights[1].sum()
        p = ConditionalGMM(weights=weights, means=rng.normal(0, 3, (4, 5, 2)),
                           variances=rng.uniform(0.5, 2, (4, 5, 2)))
        labels = rng.integers(0, 4, size=500)
        draw = np.random.default_rng(7)
        cum = np.cumsum(p.weights, axis=1)[labels]
        comp = np.minimum((draw.random(500)[:, None] > cum).sum(axis=1), 4)
        want = p.means[labels, comp] + np.sqrt(p.variances[labels, comp]) * \
            draw.standard_normal((500, 2))
        assert_array_equal(sample_frames(p, labels, np.random.default_rng(7)), want)

    def test_label_range_checked(self):
        p = ConditionalGMM.from_components([1.0], [[0.0]], [[1.0]])
        with pytest.raises(ValueError):
            sample_frames(p, np.ones(5, dtype=int), np.random.default_rng(0))


class TestNoisedMarginal:
    def test_single_standard_gaussian_is_invariant(self):
        """Corrupting N(0, 1) yields N(0, ab + (1-ab)) = N(0, 1) at every step."""
        p = ConditionalGMM.from_components([1.0], [[0.0]], [[1.0]])
        for t in (0, 17, 50, 99):
            for x in (-1.3, 0.0, 2.4):
                got = noised_marginal_logpdf_batch(p, L0, t, np.array([[x]]), SCHED)[0]
                assert_allclose(got, _gauss_logpdf(x, 0.0, 1.0), rtol=1e-12)

    def test_single_component_closed_form(self):
        p = ConditionalGMM.from_components([1.0], [[1.5, -0.5]], [[0.7, 2.0]])
        t = 60
        ab = alpha_bar_at(SCHED, t)
        x = np.array([0.3, -1.1])
        want = (_gauss_logpdf(x[0], np.sqrt(ab) * 1.5, ab * 0.7 + 1 - ab)
                + _gauss_logpdf(x[1], np.sqrt(ab) * -0.5, ab * 2.0 + 1 - ab))
        got = noised_marginal_logpdf_batch(p, L0, t, _one(x), SCHED)[0]
        assert_allclose(got, want, rtol=1e-12)

    def test_matches_monte_carlo_marginalization(self):
        """Independent oracle: average the corruption kernel over prior draws."""
        p = ConditionalGMM.from_components([0.35, 0.65], [[-1.0], [1.5]], [[0.6], [1.1]])
        t = 65
        ab = alpha_bar_at(SCHED, t)
        rng = np.random.default_rng(9)
        x0 = _draw(p, 1_000_000, rng)[:, 0]
        for x_t in (-0.8, 0.4, 1.9):
            kern = np.exp(-0.5 * (x_t - np.sqrt(ab) * x0) ** 2 / (1 - ab))
            kern /= np.sqrt(2 * np.pi * (1 - ab))
            est = kern.mean()
            se = kern.std() / np.sqrt(kern.size)
            got = np.exp(noised_marginal_logpdf_batch(p, L0, t, np.array([[x_t]]), SCHED)[0])
            assert abs(got - est) < 4 * se

    def test_zero_step_approaches_prior(self):
        p = ConditionalGMM.from_components([0.5, 0.5], [[-2.0], [2.0]], [[1.0], [1.0]])
        x = np.array([0.7])
        got = noised_marginal_logpdf_batch(p, L0, 0, _one(x), SCHED)[0]
        assert_allclose(got, logpdf_batch(p, L0, _one(x))[0], atol=1e-3)

    def test_timestep_range_checked(self):
        p = ConditionalGMM.from_components([1.0], [[0.0]], [[1.0]])
        with pytest.raises(ValueError):
            noised_marginal_logpdf_batch(p, L0, -1, np.array([[0.0]]), SCHED)[0]
        with pytest.raises(ValueError):
            noised_marginal_logpdf_batch(p, L0, SCHED.T, np.array([[0.0]]), SCHED)[0]


class TestExactEps:
    def test_standard_gaussian_closed_form(self):
        """For an N(0, I) prior the prediction is sqrt(1 - ab) * x."""
        p = ConditionalGMM.from_components([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
        for t in (0, 42, 99):
            ab = alpha_bar_at(SCHED, t)
            x = np.array([1.2, -0.4])
            got = exact_eps_batch(p, L0, t, _one(x), SCHED)[0]
            assert_allclose(got, np.sqrt(1 - ab) * x, rtol=1e-12)

    def test_symmetric_midpoint_is_zero(self):
        p = ConditionalGMM.from_components([0.5, 0.5], [[-3.0], [3.0]], [[1.0], [1.0]])
        assert_allclose(exact_eps_batch(p, L0, 50, np.array([[0.0]]), SCHED)[0], 0.0, atol=1e-15)

    def test_matches_finite_difference_score(self):
        """eps must equal -sqrt(1-ab) times the numerical marginal score."""
        rng = np.random.default_rng(13)
        h = 1e-6
        for _ in range(30):
            d = int(rng.choice([1, 2, 8]))
            C = int(rng.integers(1, 4))
            p = ConditionalGMM(
                weights=rng.dirichlet(np.ones(C))[None],
                means=rng.normal(0, 2, (1, C, d)),
                variances=rng.uniform(0.3, 2.5, (1, C, d)),
            )
            t = int(rng.integers(0, SCHED.T))
            ab = alpha_bar_at(SCHED, t)
            x = rng.normal(0, 2, d)
            grad = np.empty(d)
            for j in range(d):
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                grad[j] = (noised_marginal_logpdf_batch(p, L0, t, _one(xp), SCHED)[0]
                           - noised_marginal_logpdf_batch(p, L0, t, _one(xm), SCHED)[0]) / (2 * h)
            want = -np.sqrt(1 - ab) * grad
            got = exact_eps_batch(p, L0, t, _one(x), SCHED)[0]
            assert np.linalg.norm(got - want) <= 1e-6 * max(np.linalg.norm(want), 1e-9)

    def test_far_tail_follows_dominant_component(self):
        p = ConditionalGMM.from_components([0.5, 0.5], [[-4.0], [4.0]], [[1.0], [1.0]])
        single = ConditionalGMM.from_components([1.0], [[4.0]], [[1.0]])
        t = 30
        x = np.array([6.0])
        assert_allclose(exact_eps_batch(p, L0, t, _one(x), SCHED)[0],
                        exact_eps_batch(single, L0, t, _one(x), SCHED)[0], atol=1e-6)

    def test_one_step_per_call(self):
        """An array of steps would broadcast against the components when its
        length matched their count, so it is refused outright."""
        p = ConditionalGMM.from_components([0.5, 0.5], [[-1.0], [1.0]], [[1.0], [1.0]])
        x = np.array([[0.3], [-0.2]])
        with pytest.raises(TypeError):
            exact_eps_batch(p, np.zeros(2, dtype=int), np.array([10, 20]), x, SCHED)

    def test_batch_matches_scalar_api(self):
        rng = np.random.default_rng(14)
        p = ConditionalGMM(
            weights=np.tile(np.array([[0.2, 0.8]]), (3, 1)),
            means=rng.normal(0, 2, (3, 2, 4)),
            variances=rng.uniform(0.5, 1.5, (3, 2, 4)),
        )
        xs = rng.normal(0, 1.5, (6, 4))
        labels = rng.integers(0, 3, 6)
        batch = exact_eps_batch(p, labels, 40, xs, SCHED)
        for i in range(6):
            row = exact_eps_batch(p, labels[i:i + 1], 40, xs[i:i + 1], SCHED)[0]
            assert_allclose(batch[i], row, rtol=0, atol=0)


    def test_softmax_matches_logsumexp_reference(self):
        """Responsibilities from the max-shifted softmax agree with ones
        normalized by scipy's logsumexp, on random mixtures with unused slots."""
        rng = np.random.default_rng(15)
        for _ in range(20):
            d, C, L, n = int(rng.choice([1, 3, 8])), int(rng.integers(1, 5)), 3, 12
            w = rng.dirichlet(np.ones(C), size=L)
            if C > 1:
                w[0, -1] = 0.0
                w[0] /= w[0].sum()
            p = ConditionalGMM(weights=w, means=rng.normal(0, 2, (L, C, d)),
                               variances=rng.uniform(0.3, 2.5, (L, C, d)))
            t = int(rng.integers(0, SCHED.T))
            labels = rng.integers(0, L, n)
            x = rng.normal(0, 3, (n, d))
            ab = alpha_bar_at(SCHED, t)
            m = np.sqrt(ab) * p.means[labels]
            v = ab * p.variances[labels] + (1 - ab)
            with np.errstate(divide="ignore"):
                lj = np.log(p.weights[labels]) + _gauss_logpdf(x[:, None, :], m, v).sum(axis=2)
            resp = np.exp(lj - special.logsumexp(lj, axis=1, keepdims=True))
            want = np.sqrt(1 - ab) * (resp[:, :, None] * (x[:, None, :] - m) / v).sum(axis=1)
            got = exact_eps_batch(p, labels, t, x, SCHED)
            assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_frame_far_from_every_component_is_finite(self):
        """1e3 standard deviations out every log-joint underflows exp(), but
        the shifted softmax still gives all weight to the nearest component."""
        p = ConditionalGMM.from_components(
            [0.3, 0.7], [[-4.0, 0.0], [4.0, 1.0]], [[0.5, 1.0], [0.5, 1.0]]
        )
        t = 20
        ab = alpha_bar_at(SCHED, t)
        m = np.sqrt(ab) * np.array([4.0, 1.0])
        v = ab * np.array([0.5, 1.0]) + (1 - ab)
        x = m + 1e3 * np.sqrt(v)
        got = exact_eps_batch(p, L0, t, _one(x), SCHED)[0]
        assert np.isfinite(got).all()
        assert_allclose(got, np.sqrt(1 - ab) * (x - m) / v, rtol=1e-12)


def _direct_eps(p, labels, t, x):
    """Exact noise prediction one row and one component at a time, in the
    direct form: offsets from the noised means over the noised variances."""
    ab = alpha_bar_at(SCHED, t)
    out = np.zeros_like(x)
    for i, lab in enumerate(labels):
        lj, terms = [], []
        for c in range(p.n_components):
            m = np.sqrt(ab) * p.means[lab, c]
            v = ab * p.variances[lab, c] + (1 - ab)
            w = p.weights[lab, c]
            lj.append(np.log(w) + _gauss_logpdf(x[i], m, v).sum() if w > 0 else -np.inf)
            terms.append((x[i] - m) / v)
        r = np.exp(np.array(lj) - max(lj))
        r /= r.sum()
        out[i] = np.sqrt(1 - ab) * sum(rc * term for rc, term in zip(r, terms))
    return out


def _random_mixture(rng, L, C, d) -> ConditionalGMM:
    """Random mixture; with C > 1, label 0 leaves its last slot at weight 0."""
    w = rng.dirichlet(np.ones(C), size=L)
    if C > 1:
        w[0, -1] = 0.0
        w[0] /= w[0].sum()
    return ConditionalGMM(weights=w, means=rng.normal(0, 2, (L, C, d)),
                          variances=rng.uniform(0.3, 2.5, (L, C, d)))


class TestNoisedTableKernel:
    """``exact_eps_batch`` runs one kernel on noised tables: built per call
    from a mixture and its labels, or once per chain by ``noised_tables``."""

    @pytest.mark.parametrize("d", [1, 3, 8])
    @pytest.mark.parametrize("C", [1, 2, 3, 8, 9])
    def test_matches_direct_reference(self, C, d):
        """C >= 8 crosses the length at which numpy's sums switch to
        pairwise order; rows 0-3 lie 1e3 standard deviations out."""
        rng = np.random.default_rng(100 + 10 * C + d)
        p = _random_mixture(rng, 5, C, d)
        labels = rng.integers(0, 5, 24)
        labels[:2] = 0
        x = rng.normal(0, 3, (24, d))
        x[:4] += 1e3 * np.sqrt(p.variances.max())
        for t in (0, 37, SCHED.T - 1):
            got = exact_eps_batch(p, labels, t, x, SCHED)
            want = _direct_eps(p, labels, t, x)
            assert np.isfinite(got).all()
            scale = np.abs(want).max(axis=1, keepdims=True)
            assert (np.abs(got - want) <= 1e-12 * (np.abs(want) + scale)).all()

    @pytest.mark.parametrize("L, C, d", [(4, 3, 5), (256, 2, 8)], ids=["C3", "256-labels"])
    def test_rows_independent_and_packing_invariant(self, L, C, d):
        """A row's bits depend on its frame and label alone: not on the other
        rows of the block, their order, or which labels the tables hold."""
        rng = np.random.default_rng(101 + L)
        p = _random_mixture(rng, L, C, d)
        n = 135
        labels = rng.integers(0, L, n)
        x = rng.normal(0, 2, (n, d))
        for t in (0, 60, SCHED.T - 1):
            batch = exact_eps_batch(p, labels, t, x, SCHED)
            for i in range(0, n, 7):
                one = exact_eps_batch(p, labels[i:i + 1], t, x[i:i + 1], SCHED)
                assert one.tobytes() == batch[i:i + 1].tobytes()
            perm = rng.permutation(n)
            shuffled = exact_eps_batch(p, labels[perm], t, x[perm], SCHED)
            assert shuffled.tobytes() == batch[perm].tobytes()
            halves = [exact_eps_batch(p, labels[sl], t, x[sl], SCHED)
                      for sl in (slice(0, 50), slice(50, n))]
            assert np.concatenate(halves).tobytes() == batch.tobytes()

    def test_tables_hold_distinct_labels_and_the_chains_steps(self):
        rng = np.random.default_rng(102)
        p = _random_mixture(rng, 16, 2, 3)
        labels = np.array([5, 3, 5, 9, 3])
        tables = noised_tables(p, labels, range(20), SCHED)
        assert tables.table.shape == (20, 3, 2, 7)
        assert tables.steps == range(0, 20)
        assert np.array_equal(tables.rows, [1, 0, 1, 2, 0])
        x = rng.normal(0, 1, (5, 3))
        for t in (19, 0):
            assert (exact_eps_batch(tables, None, t, x, SCHED).tobytes()
                    == exact_eps_batch(p, labels, t, x, SCHED).tobytes())
        with pytest.raises(ValueError, match=r"step 20 outside the tables' steps \[0, 19\]"):
            exact_eps_batch(tables, None, 20, x, SCHED)
        with pytest.raises(ValueError, match="labels=None"):
            exact_eps_batch(tables, labels, 5, x, SCHED)

    def test_blocked_build_gives_the_bits_of_one_block(self, monkeypatch):
        rng = np.random.default_rng(103)
        p = _random_mixture(rng, 40, 3, 5)
        labels = rng.integers(0, 40, 90)
        whole = noised_tables(p, labels, range(SCHED.T), SCHED).table
        for values in (1, 600, 7000):
            monkeypatch.setattr(prior, "BLOCK_VALUES", values)
            again = noised_tables(p, labels, range(SCHED.T), SCHED).table
            assert again.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("C, d", [(1, 1), (3, 5), (9, 8)])
    def test_table_holds_the_bits_of_contiguous_terms(self, C, d):
        """P and sμP are written into strided slices of the table, and K's
        contraction reads them there; every entry keeps the bits of the
        terms computed on contiguous arrays, zero-weight slots included."""
        rng = np.random.default_rng(104 + C)
        p = _random_mixture(rng, 6, C, d)
        tables = noised_tables(p, np.arange(6), range(SCHED.T), SCHED)
        ab = alpha_bar_at(SCHED, np.arange(SCHED.T))[:, :, None, None]
        v = ab * p.variances + (1.0 - ab)
        prec = 1.0 / v
        smu = np.sqrt(ab) * p.means
        smp = smu * prec
        with np.errstate(divide="ignore"):
            k = np.log(p.weights) - 0.5 * (np.einsum("slcd,slcd->slc", smu, smp)
                                           + np.einsum("slcd->slc", np.log(v)) + d * prior._LOG_2PI)
        want = np.concatenate((prec, smp, k[..., None]), axis=3)
        assert tables.table.tobytes() == want.tobytes()

    def test_row_count_must_match(self):
        rng = np.random.default_rng(54)
        tables = noised_tables(_random_mixture(rng, 5, 3, 4), np.zeros(3, dtype=int), range(11),
                               SCHED)
        with pytest.raises(ValueError, match="4 frames for 3 labeled rows"):
            exact_eps_batch(tables, None, 10, rng.normal(0, 1, (4, 4)), SCHED)


class TestRowBlocks:
    """``exact_eps_batch`` and the mixture log density under ``logpdf_batch``,
    ``noised_marginal_logpdf_batch`` and ``native_class_prob_batch`` walk
    their rows in blocks of at most ``BLOCK_VALUES`` values."""

    @pytest.mark.parametrize("values", [1, 50, 700])
    def test_blocks_give_the_bits_of_one_block(self, monkeypatch, values):
        rng = np.random.default_rng(105)
        p, q = _random_mixture(rng, 7, 3, 4), _random_mixture(rng, 7, 3, 4)
        labels = rng.integers(0, 7, 61)
        x = rng.normal(0, 2, (61, 4))

        def run():
            # Tables size their work blocks when built, so each run builds its own.
            tables = noised_tables(p, labels, range(30), SCHED)
            return [exact_eps_batch(tables, None, 17, x, SCHED),
                    exact_eps_batch(p, labels, 29, x, SCHED),
                    noised_marginal_logpdf_batch(p, labels, 12, x, SCHED),
                    native_class_prob_batch(p, q, labels, x)]
        whole = run()
        monkeypatch.setattr(prior, "BLOCK_VALUES", values)
        for want, got in zip(whole, run()):
            assert got.tobytes() == want.tobytes()

    def test_memory_per_call_stays_bounded(self):
        """2,000 frames of a world with 2 components of dim 512: the exact
        call's result alone is 8 MB, and an unblocked call peaked at ~78 MB."""
        world = gen_world(WorldSpec(dim=512, n_labels=2, n_components=2, seed=3))
        rng = np.random.default_rng(106)
        labels = rng.integers(0, 2, 2000)
        x = sample_frames(world.l2, labels, rng)
        tables = noised_tables(world.native, labels, range(100), SCHED)
        for call in (lambda: exact_eps_batch(tables, None, 99, x, SCHED),
                     lambda: native_class_prob_batch(world.native, world.l2, labels, x)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16e6

    def test_label_count_must_match(self):
        p = _random_mixture(np.random.default_rng(107), 3, 2, 2)
        with pytest.raises(ValueError, match="4 frames for 1 labeled rows"):
            logpdf_batch(p, np.zeros(1, dtype=int), np.zeros((4, 2)))


class TestStepRule:
    """A step is one integer on the schedule: a float or a bool is refused,
    not truncated, with one error naming it."""

    @pytest.mark.parametrize("bad", [3.7, 99.9, 3.0, True, np.float64(2.0)])
    def test_non_integer_step_refused(self, bad):
        p = ConditionalGMM.from_components([1.0], [[0.0]], [[1.0]])
        x = np.zeros((1, 1))
        for call in (lambda: exact_eps_batch(p, L0, bad, x, SCHED),
                     lambda: noised_marginal_logpdf_batch(p, L0, bad, x, SCHED),
                     lambda: gaussian_posterior_moments(0.0, 1.0, bad, 0.5, SCHED),
                     lambda: alpha_bar_at(SCHED, bad)):
            with pytest.raises(ValueError, match=re.escape(f"timestep {bad!r} is not an integer")):
                call()

    def test_integer_steps_of_any_width_accepted(self):
        p = ConditionalGMM.from_components([1.0], [[0.0]], [[1.0]])
        x = np.array([[0.4]])
        want = exact_eps_batch(p, L0, 7, x, SCHED)
        for t in (np.int64(7), np.uint8(7), np.asarray(7)):
            assert exact_eps_batch(p, L0, t, x, SCHED).tobytes() == want.tobytes()


class TestGaussianPosterior:
    def test_exact_values_at_half_signal(self):
        sched = _plateau_schedule(0.5)
        mean, var = gaussian_posterior_moments(0.0, 1.0, 1, 1.0, sched)
        assert_allclose(mean, np.sqrt(0.5), rtol=1e-15)
        assert_allclose(var, 0.5, rtol=1e-15)

    def test_flat_prior_recovers_likelihood(self):
        t = 70
        ab = alpha_bar_at(SCHED, t)
        mean, var = gaussian_posterior_moments(0.0, 1e12, t, 0.9, SCHED)
        assert_allclose(mean, 0.9 / np.sqrt(ab), rtol=1e-9)
        assert_allclose(var, (1 - ab) / ab, rtol=1e-9)

    def test_low_noise_trusts_observation(self):
        mean, var = gaussian_posterior_moments(5.0, 4.0, 0, 1.0, SCHED)
        ab = alpha_bar_at(SCHED, 0)
        assert abs(mean - 1.0 / np.sqrt(ab)) < 1e-3
        assert var < 2e-4

    def test_posterior_mean_between_prior_and_observation(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            mu = float(rng.normal(0, 2))
            var_p = float(rng.uniform(0.2, 4))
            t = int(rng.integers(0, SCHED.T))
            x_t = float(rng.normal(0, 2))
            ab = alpha_bar_at(SCHED, t)
            mean, var = gaussian_posterior_moments(mu, var_p, t, x_t, SCHED)
            lo, hi = sorted((mu, x_t / np.sqrt(ab)))
            assert lo - 1e-12 <= mean <= hi + 1e-12
            assert 0 < var < var_p

    def test_rejects_bad_prior_variance(self):
        with pytest.raises(ValueError):
            gaussian_posterior_moments(0.0, 0.0, 10, 1.0, SCHED)


class TestPosteriorGrid:
    def test_agrees_with_conjugate_moments(self):
        p = ConditionalGMM.from_components([1.0], [[0.5]], [[1.3]])
        t = 55
        x_t = 1.1
        mean, var = gaussian_posterior_moments(0.5, 1.3, t, x_t, SCHED)
        sd = np.sqrt(var)
        grid = np.linspace(mean - 9 * sd, mean + 9 * sd, 1501)
        gm, gv = grid_moments(grid, posterior_grid(p, 0, t, x_t, grid, SCHED))
        assert abs(gm - mean) <= 1e-6 * max(abs(mean), sd)
        assert abs(gv - var) <= 1e-6 * var

    def test_density_integrates_to_one(self):
        p = ConditionalGMM.from_components([0.4, 0.6], [[-2.0], [2.0]], [[1.0], [0.5]])
        grid = np.linspace(-12, 12, 3001)
        dens = posterior_grid(p, 0, 80, 0.3, grid, SCHED)
        assert abs(np.trapezoid(dens, grid) - 1.0) < 1e-9

    def test_mixture_posterior_against_bayes_quadrature(self):
        """Independent oracle: unnormalized prior times kernel, renormalized."""
        p = ConditionalGMM.from_components([0.3, 0.7], [[-2.0], [2.0]], [[1.0], [1.0]])
        t = 74
        ab = alpha_bar_at(SCHED, t)
        x_t = 0.4
        grid = np.linspace(-10, 10, 4001)
        dens = posterior_grid(p, 0, t, x_t, grid, SCHED)
        prior = 0.3 * np.exp(_gauss_logpdf(grid, -2, 1)) + 0.7 * np.exp(_gauss_logpdf(grid, 2, 1))
        lik = np.exp(-0.5 * (x_t - np.sqrt(ab) * grid) ** 2 / (1 - ab))
        ref = prior * lik
        ref /= np.trapezoid(ref, grid)
        assert np.abs(dens - ref).max() < 1e-12

    def test_narrow_grid_rejected(self):
        p = ConditionalGMM.from_components([1.0], [[0.0]], [[1.0]])
        with pytest.raises(ValueError, match="narrow"):
            posterior_grid(p, 0, 50, 0.0, np.linspace(-1, 1, 101), SCHED)

    def test_coarse_grid_rejected(self):
        """At step 0 the posterior is ~0.01 wide; a 0.16 spacing leaves one
        point above 1e-6 of the peak, which is a spike, not a density."""
        p = ConditionalGMM.from_components([1.0], [[0.0]], [[1.0]])
        with pytest.raises(ValueError, match="too coarse: 1 of 101 points"):
            posterior_grid(p, 0, 0, 0.0, np.linspace(-8, 8, 101), SCHED)

    def test_requires_one_dimension(self):
        p = ConditionalGMM.from_components([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
        with pytest.raises(ValueError, match="1-D"):
            posterior_grid(p, 0, 50, 0.0, np.linspace(-8, 8, 201), SCHED)

    def test_descending_grid_rejected(self):
        p = ConditionalGMM.from_components([1.0], [[0.0]], [[1.0]])
        with pytest.raises(ValueError, match="ascending"):
            posterior_grid(p, 0, 50, 0.0, np.linspace(8, -8, 201), SCHED)

    def test_posterior_drifts_toward_prior_as_noise_grows(self):
        """Later start steps weaken the observation: the mean approaches the
        prior mean and the variance grows, monotonically."""
        p = ConditionalGMM.from_components([1.0], [[0.0]], [[1.0]])
        x0 = 4.0
        means, variances = [], []
        for t in (24, 49, 74, 99):
            ab = alpha_bar_at(SCHED, t)
            x_t = np.sqrt(ab) * x0
            grid = np.linspace(-10, 14, 3001)
            gm, gv = grid_moments(grid, posterior_grid(p, 0, t, x_t, grid, SCHED))
            means.append(abs(gm))
            variances.append(gv)
        assert all(a > b for a, b in zip(means, means[1:]))
        assert all(a < b for a, b in zip(variances, variances[1:]))


class TestNativeClassProb:
    def test_equal_priors_give_half(self):
        p = ConditionalGMM.from_components([0.5, 0.5], [[-1.0], [1.0]], [[1.0], [1.0]])
        for x in (-3.0, 0.0, 5.0):
            assert native_class_prob_batch(p, p, L0, np.array([[x]]))[0] == 0.5

    def test_unit_gaussians_two_apart(self):
        nat = ConditionalGMM.from_components([1.0], [[0.0]], [[1.0]])
        l2 = ConditionalGMM.from_components([1.0], [[2.0]], [[1.0]])
        got = native_class_prob_batch(nat, l2, L0, np.array([[0.0]]))[0]
        assert_allclose(got, 0.8807970779778823, rtol=1e-12)
        got = native_class_prob_batch(nat, l2, L0, np.array([[1.0]]))[0]
        assert_allclose(got, 0.5, rtol=1e-12)

    def test_monotone_in_position_for_shifted_pair(self):
        nat = ConditionalGMM.from_components([1.0], [[0.0]], [[1.0]])
        l2 = ConditionalGMM.from_components([1.0], [[2.0]], [[1.0]])
        xs = np.linspace(-4, 6, 41)[:, None]
        probs = native_class_prob_batch(nat, l2, np.zeros(41, dtype=int), xs)
        assert (np.diff(probs) < 0).all()

    def test_mismatched_priors_rejected(self):
        a = ConditionalGMM.from_components([1.0], [[0.0]], [[1.0]])
        b = ConditionalGMM.from_components([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
        with pytest.raises(ValueError):
            native_class_prob_batch(a, b, np.zeros(1, dtype=int), np.zeros((1, 1)))


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


class TestScipyMirrors:
    """``prior.logsumexp`` and ``prior.expit`` stand in for scipy's; scipy,
    a test dependency only, is the reference, bit for bit."""

    def test_logsumexp_bitwise_equal_to_scipy(self):
        rng = np.random.default_rng(31)
        for _ in range(2000):
            n, C = int(rng.integers(1, 30)), int(rng.integers(1, 10))
            a = rng.normal(size=(n, C)) * 10.0 ** rng.uniform(-3, 3)
            a[rng.random((n, C)) < rng.uniform(0, 0.5)] = -np.inf
            if C > 1 and rng.random() < 0.5:  # exact ties with the row's max
                tie = np.round(rng.normal(size=(n, 1)), int(rng.integers(0, 3)))
                a[:, rng.choice(C, int(rng.integers(2, C + 1)), replace=False)] = tie
            a[rng.random(n) < 0.2] = -np.inf
            assert_array_equal(_bits(prior.logsumexp(a)), _bits(special.logsumexp(a, axis=1)))

    def test_logsumexp_row_of_minus_inf_is_minus_inf(self):
        a = np.array([[-np.inf, -np.inf], [0.0, -np.inf], [np.inf, 0.0]])
        with np.errstate(all="raise"):
            got = prior.logsumexp(a)
        assert_array_equal(got, [-np.inf, 0.0, np.inf])

    def test_expit_bitwise_equal_to_scipy(self):
        z = np.concatenate([np.random.default_rng(32).normal(0.0, 3.0, 200_000),
                            [745.0, -745.0, 800.0, -800.0, np.inf, -np.inf, np.nan]])
        got = prior.expit(z)
        assert got.shape == z.shape
        assert_array_equal(_bits(got), _bits(special.expit(z)))


class TestTransforms:
    def test_standardized_density_transforms_with_jacobian(self):
        rng = np.random.default_rng(17)
        p = ConditionalGMM(
            weights=rng.dirichlet(np.ones(3), size=2),
            means=rng.normal(0, 2, (2, 3, 4)),
            variances=rng.uniform(0.4, 2.0, (2, 3, 4)),
        )
        s = Standardizer(mean=rng.normal(0, 1, 4), std=rng.uniform(0.5, 2.0, 4))
        ps = standardized(p, s)
        x = rng.normal(0, 2, (5, 4))
        z = (x - s.mean) / s.std
        labels = rng.integers(0, 2, 5)
        lhs = logpdf_batch(ps, labels, z)
        rhs = logpdf_batch(p, labels, x) + np.log(s.std).sum()
        assert_allclose(lhs, rhs, rtol=1e-10)

    def test_marginal_matches_manual_slice(self):
        rng = np.random.default_rng(18)
        p = ConditionalGMM(
            weights=rng.dirichlet(np.ones(2), size=1),
            means=rng.normal(0, 2, (1, 2, 3)),
            variances=rng.uniform(0.4, 2.0, (1, 2, 3)),
        )
        m = marginal_1d(p, 2)
        manual = ConditionalGMM(
            weights=p.weights, means=p.means[:, :, 2:3], variances=p.variances[:, :, 2:3]
        )
        x = rng.normal(0, 2, (7, 1))
        assert_allclose(logpdf_batch(m, np.zeros(7, dtype=int), x),
                        logpdf_batch(manual, np.zeros(7, dtype=int), x), rtol=0, atol=0)

    def test_marginal_dim_checked(self):
        p = ConditionalGMM.from_components([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
        with pytest.raises(ValueError):
            marginal_1d(p, 2)
