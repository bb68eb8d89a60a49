"""Network forward/backward math, training loop behavior, and model files."""
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import expit

from priorshift.denoiser import (
    AdamState,
    FlatTensors,
    MLPParams,
    ModelBundle,
    MAX_EPOCHS,
    TrainConfig,
    adam_step,
    bind_forward,
    draw_batch_noise,
    dropout_masks,
    eval_loss_diff,
    forward,
    init_denoiser,
    init_residual,
    load_model,
    loss_total,
    predict_zc2,
    save_model,
    time_embedding,
    train,
)
from priorshift import denoiser as denoiser_mod
from priorshift.denoiser import _backward, _film, _forward_cached, _silu
from priorshift.latent import LatentSequence, Standardizer, fit_standardizer, standardize_frames
from priorshift.prior import ConditionalGMM, exact_eps_batch, sample_frames
from priorshift.rng import PURPOSE_DATA, PURPOSE_TRAIN, substream
from priorshift.schedule import alpha_bar_at, default_schedule
from priorshift.verify import gradient_check

SCHED = default_schedule()


def _small_net(rng, dim=2, n_labels=3, hidden=(5,), cond_dim=4, time_dim=4):
    return init_denoiser(dim, n_labels, hidden, cond_dim, time_dim, rng)


def _perturb(params, rng, scale=0.3):
    """Knock the FiLM layers off their identity start so conditioning matters."""
    for arr in params.tensors.values():
        arr += scale * rng.standard_normal(arr.shape)
    return params


class TestTimeEmbedding:
    def test_zero_step(self):
        emb = time_embedding(np.array([0]), 8)
        assert_allclose(emb[0, 0::2], 0.0)
        assert_allclose(emb[0, 1::2], 1.0)

    def test_known_values_at_step_one(self):
        emb = time_embedding(np.array([1]), 4)
        want = [0.8414709848078965, 0.5403023058681398,
                0.009999833334166664, 0.9999500004166653]
        assert_allclose(emb[0], want, rtol=1e-15)

    def test_geometric_frequency_ladder(self):
        emb = time_embedding(np.array([1000.0]), 6)
        angles = np.arcsin(np.clip(emb[0, 0::2], -1, 1))
        # the first slot oscillates fastest; later slots move slower
        assert abs(emb[0, 0]) <= 1
        assert_allclose(emb[0, 4], np.sin(1000.0 * 10000.0 ** (-4.0 / 6.0)), rtol=1e-12)
        assert angles.shape == (3,)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError, match="even"):
            time_embedding(np.array([1]), 5)

    def test_batch_shape(self):
        emb = time_embedding(np.arange(7), 10)
        assert emb.shape == (7, 10)


class TestForward:
    def test_eval_is_deterministic(self):
        rng = np.random.default_rng(0)
        params = _perturb(_small_net(rng), rng)
        x = rng.standard_normal((6, 2))
        labels = np.array([0, 1, 2, 0, 1, 2])
        a = forward(params, x, 13, labels)
        b = forward(params, x, 13, labels)
        assert np.array_equal(a, b)

    def test_film_identity_at_init_ignores_conditioning(self):
        """Freshly initialized modulation is gamma=1, delta=0, so the output
        must not depend on timestep or label until training moves it."""
        rng = np.random.default_rng(1)
        params = _small_net(rng)
        x = rng.standard_normal((4, 2))
        base = forward(params, x, 0, np.zeros(4, dtype=int))
        for t, lab in [(50, 1), (99, 2)]:
            assert np.array_equal(base, forward(params, x, t, np.full(4, lab)))

    def test_init_matches_plain_mlp(self):
        rng = np.random.default_rng(2)
        params = _small_net(rng, hidden=(5, 3))
        T = params.tensors
        x = rng.standard_normal((4, 2))
        h = x
        for i in range(2):
            a = h @ T[f"layer{i}_w"].T + T[f"layer{i}_b"]
            h = a * expit(a)
        want = h @ T["out_w"].T + T["out_b"]
        got = forward(params, x, 42, np.array([0, 1, 2, 0]))
        assert_allclose(got, want, rtol=1e-14)

    def test_zero_output_head(self):
        rng = np.random.default_rng(3)
        params = _small_net(rng)
        params.tensors["out_w"][:] = 0
        params.tensors["out_b"][:] = 0
        out = forward(params, rng.standard_normal((3, 2)), 10, np.zeros(3, dtype=int))
        assert np.array_equal(out, np.zeros((3, 2)))

    def test_conditioning_changes_output_after_perturbation(self):
        rng = np.random.default_rng(5)
        params = _perturb(_small_net(rng), rng)
        x = rng.standard_normal((3, 2))
        a = forward(params, x, 10, np.zeros(3, dtype=int))
        b = forward(params, x, 90, np.zeros(3, dtype=int))
        c = forward(params, x, 10, np.ones(3, dtype=int))
        assert np.abs(a - b).max() > 1e-6
        assert np.abs(a - c).max() > 1e-6

    def test_input_validation(self):
        rng = np.random.default_rng(6)
        params = _small_net(rng)
        x = rng.standard_normal((3, 2))
        with pytest.raises(ValueError, match="dim"):
            forward(params, rng.standard_normal((3, 4)), 0, np.zeros(3, dtype=int))
        with pytest.raises(ValueError, match="labels"):
            forward(params, x, 0, np.array([0, 1, 5]))
        with pytest.raises(ValueError, match="frames shape"):
            forward(params, x[0], 0, np.zeros(1, dtype=int))

    def test_dropout_zero_mask_list_is_none(self):
        rng = np.random.default_rng(7)
        params = _small_net(rng)
        assert dropout_masks(params, 4, 0.0, rng) is None
        masks = dropout_masks(params, 4, 0.25, rng)
        assert len(masks) == 1 and masks[0].shape == (4, 5)
        # inverted scaling: surviving entries carry 1/keep
        vals = np.unique(masks[0])
        assert set(np.round(vals, 12)) <= {0.0, round(1 / 0.75, 12)}


def _per_row_reference(params, x, t, labels):
    """The FiLM network written row by row from the per-row conditioning
    vector: gamma = cond @ gw.T + gb and delta = cond @ dw.T + db."""
    T = params.tensors
    tvec = np.broadcast_to(np.asarray(t, dtype=np.float64), (x.shape[0],))
    cond = time_embedding(tvec, params.time_dim) @ T["time_w"].T + T["time_b"] \
        + T["label_emb"][labels]
    h = x
    for i in range(len(params.hidden)):
        a = h @ T[f"layer{i}_w"].T + T[f"layer{i}_b"]
        gamma = cond @ T[f"layer{i}_film_gw"].T + T[f"layer{i}_film_gb"]
        delta = cond @ T[f"layer{i}_film_dw"].T + T[f"layer{i}_film_db"]
        m = gamma * a + delta
        h = m * expit(m)
    return h @ T["out_w"].T + T["out_b"]


def _row_blocks(ws):
    """The row blocks a workspace holds, every hidden layer's."""
    return [b for layer in ws["rows"][1] for b in layer if b is not None]


def _label_tables(ws):
    """The FiLM label tables a workspace holds, two per hidden layer."""
    return [table for layer in ws["tables"] for table in layer[:2]]


def _kept(params, x, t, labels, ws):
    """A forward through the kept workspace ``ws``, as a bound step runs it."""
    return bind_forward(params, labels, ws)(x, t)


class TestSplitFilmAndWorkspace:
    def _net(self, rng):
        return _perturb(_small_net(rng, dim=3, n_labels=5, hidden=(16, 12), cond_dim=6,
                                   time_dim=8), rng)

    @pytest.mark.parametrize("per_row_t", [False, True], ids=["scalar-t", "per-row-t"])
    def test_split_film_matches_per_row_reference(self, per_row_t):
        rng = np.random.default_rng(40)
        params = self._net(rng)
        x = rng.standard_normal((40, 3))
        labels = rng.integers(0, 5, 40)
        t = rng.integers(0, SCHED.T, 40) if per_row_t else 57
        got = forward(params, x, t, labels)
        want = _per_row_reference(params, x, t, labels)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_workspace_is_bitwise_equal_and_reused(self):
        """Row counts 150 -> 37 -> 150 -> 150 through one workspace: the
        three row blocks per hidden layer are reallocated when the count
        changes, then reused, and a step seen before reuses its time rows.
        A training forward, which keeps its blocks for the backward pass,
        writes five per hidden layer and gives the same bits."""
        rng = np.random.default_rng(41)
        params = self._net(rng)
        ws: dict = {}
        ids = []
        for step, n in enumerate((150, 37, 150, 150)):
            x = rng.standard_normal((n, 3))
            labels = rng.integers(0, 5, n)
            got = _kept(params, x, 90 - step, labels, ws)
            assert np.array_equal(got, forward(params, x, 90 - step, labels))
            ids.append({k: id(v) for k, v in ws.items()})
        assert ws and ids[1] != ids[0] and ids[3] == ids[2]
        blocks = _row_blocks(ws)
        assert len(blocks) == 3 * len(params.hidden) and all(b.shape[0] == 150 for b in blocks)
        rows = ws["time_rows"][90]
        row_ids = {k: id(v) for k, v in rows.items()}
        x = rng.standard_normal((150, 3))
        labels = rng.integers(0, 5, 150)
        got = _kept(params, x, 90, labels, ws)
        assert np.array_equal(got, forward(params, x, 90, labels))
        assert ws["time_rows"][90] is rows and {k: id(v) for k, v in rows.items()} == row_ids
        train_ws: dict = {}
        out, cache = _forward_cached(params, x, train_ws, 90, labels, keep=True)
        blocks = _row_blocks(train_ws)
        assert len(blocks) == 5 * len(params.hidden) and all(b.shape[0] == 150 for b in blocks)
        assert cache is not None
        assert out.tobytes() == got.tobytes()

    def test_new_row_count_frees_the_old_blocks_first(self):
        """Blocks for a new row count replace the old set, which goes before
        the new one is made: an eval forward of 3,999 rows after one of
        4,000 grows traced memory by far less than a set (3 blocks x 2
        layers x 2 MB); with both sets alive at once it grew by a set."""
        rng = np.random.default_rng(49)
        params = _perturb(_small_net(rng, dim=3, n_labels=5, hidden=(64, 64), cond_dim=6,
                                     time_dim=8), rng)
        ws: dict = {}
        first = rng.standard_normal((4000, 3)), 7, rng.integers(0, 5, 4000)
        second = rng.standard_normal((3999, 3)), 7, rng.integers(0, 5, 3999)
        tracemalloc.start()
        try:
            _kept(params, *first, ws)
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _kept(params, *second, ws)
            growth = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert growth < 0.25 * (3 * 2 * 3999 * 64 * 8)

    def test_result_is_not_a_view_of_the_workspace(self):
        rng = np.random.default_rng(42)
        params = self._net(rng)
        ws: dict = {}
        x = rng.standard_normal((20, 3))
        labels = rng.integers(0, 5, 20)
        first = _kept(params, x, 12, labels, ws)
        want = first.copy()
        arrays = _row_blocks(ws) + _label_tables(ws) + [layer[2] for layer in ws["tables"]]
        arrays += [row for rows in ws["time_rows"].values() for row in rows.values()]
        assert len(arrays) == 3 * 2 + 4 + 2 + 4
        assert not any(np.shares_memory(first, buf) for buf in arrays)
        first[...] = 1e300
        assert np.array_equal(_kept(params, x, 12, labels, ws), want)

    def test_folded_time_row_matches_gather_then_add(self):
        """One step for the block adds the time row to the label table before
        the gather; one step per row adds it after.  Each entry is the same
        sum of a table entry and a time-row entry, so both paths agree
        bitwise."""
        rng = np.random.default_rng(44)
        params = self._net(rng)
        time_row = rng.standard_normal((1, 16))
        labels = rng.integers(0, 5, 40)
        table = params.tensors["label_emb"] @ params.tensors["layer0_film_gw"].T
        folded = _film(table, np.empty((5, 16)), time_row, labels, np.empty((40, 16)))
        gathered = _film(table, np.empty((5, 16)), np.repeat(time_row, 40, axis=0), labels,
                         np.empty((40, 16)))
        assert np.array_equal(folded, gathered)

    def test_workspace_binds_the_label_tables_of_its_first_call(self):
        """The four FiLM label tables (two layers, scale and shift) are built
        on a workspace's first call and kept, and so are the step's four time
        rows: a later change to the label embedding or to the time
        projection reaches only a fresh workspace."""
        rng = np.random.default_rng(45)
        params = self._net(rng)
        x = rng.standard_normal((30, 3))
        labels = rng.integers(0, 5, 30)
        ws: dict = {}
        first = _kept(params, x, 33, labels, ws)
        tables = _label_tables(ws)
        assert len(tables) == 4
        rows = dict(ws["time_rows"][33])
        assert len(rows) == 4
        params.tensors["label_emb"] += 1.0
        params.tensors["time_w"] += 1.0
        assert np.array_equal(_kept(params, x, 33, labels, ws), first)
        assert all(now is then for now, then in zip(_label_tables(ws), tables))
        assert all(ws["time_rows"][33][k] is v for k, v in rows.items())
        assert not np.array_equal(forward(params, x, 33, labels), first)

    def test_time_rows_are_kept_once_per_distinct_step(self, monkeypatch):
        """Integer steps, Python or numpy, each build their time rows once,
        with one time embedding; per-row and non-integer steps keep none."""
        rng = np.random.default_rng(46)
        params = self._net(rng)
        x = rng.standard_normal((25, 3))
        labels = rng.integers(0, 5, 25)
        embedded = []
        real = denoiser_mod.time_embedding
        monkeypatch.setattr(denoiser_mod, "time_embedding",
                            lambda t, dim: embedded.append(np.copy(t)) or real(t, dim))
        ws: dict = {}
        for t in (5, 7, np.int64(5), 9, 7, np.int32(9)):
            _kept(params, x, t, labels, ws)
        assert sorted(ws["time_rows"]) == [5, 7, 9] and len(embedded) == 3
        _kept(params, x, np.full(25, 11), labels, ws)
        _kept(params, x, 11.0, labels, ws)
        assert sorted(ws["time_rows"]) == [5, 7, 9] and len(embedded) == 5

    @pytest.mark.parametrize("t", [57, np.int64(3), 57.5, "per-row"])
    def test_eval_blocks_match_the_training_path_bitwise(self, t):
        """The eval forward's three reused blocks per layer, kept time rows
        included, give the bits of the five a training forward keeps, for a
        step seen before or not, and for per-row or non-integer steps."""
        rng = np.random.default_rng(47)
        params = self._net(rng)
        x = rng.standard_normal((33, 3))
        labels = rng.integers(0, 5, 33)
        if isinstance(t, str):
            t = rng.integers(0, SCHED.T, 33)
        want = _forward_cached(params, x, {}, t, labels, keep=True)[0]
        ws: dict = {}
        for _ in range(2):
            assert _kept(params, x, t, labels, ws).tobytes() == want.tobytes()
        assert forward(params, x, t, labels).tobytes() == want.tobytes()

    def test_residual_head_eval_matches_the_training_path_bitwise(self):
        rng = np.random.default_rng(48)
        phi = _perturb(init_residual(3, (7, 5), rng), rng)
        h, zc1 = rng.standard_normal((2, 19, 3))
        want = _forward_cached(phi, np.concatenate([h, zc1], axis=1), {}, keep=True)[0]
        assert predict_zc2(phi, h, zc1).tobytes() == want.tobytes()

    def test_silu_is_quiet_at_extremes_and_matches_expit(self):
        """Through the forward core, which holds the SiLU's errstate: a
        one-unit head whose pre-activation and output are its first input,
        in eval and in training."""
        rng = np.random.default_rng(43)
        x = np.concatenate([[-1000.0, -50.0, 0.0, 50.0, 1000.0], rng.normal(0, 6, 500)])
        z_want, s_want = x * expit(x), expit(x)
        phi = init_residual(1, (1,), rng)
        phi.tensors["layer0_w"][...] = [[1.0, 0.0]]
        phi.tensors["out_w"][...] = 1.0
        rows = np.stack([x, rng.standard_normal(x.size)], axis=1)
        with np.errstate(all="raise"):
            z = _forward_cached(phi, rows, {})[0][:, 0]
            z_kept, cache = _forward_cached(phi, rows, {}, keep=True)
        s = cache[3][0][4][:, 0]
        assert z.tobytes() == z_kept[:, 0].tobytes()
        assert_allclose(z, z_want, rtol=1e-15, atol=0)
        assert_allclose(s, s_want, rtol=1e-15, atol=0)
        assert z[0] == 0.0 and z[4] == 1000.0


class TestDrawOrder:
    def test_batch_noise_draw_sequence_is_pinned(self):
        """Reproducibility of training and conversion hangs on this order:
        timesteps, then noise, then dropout masks, from one generator."""
        rng = np.random.default_rng(11)
        params = _small_net(rng)
        r1 = np.random.default_rng(123)
        t, eps, masks = draw_batch_noise(params, 9, SCHED, r1, 0.25)
        r2 = np.random.default_rng(123)
        t2 = r2.integers(0, SCHED.T, size=9)
        eps2 = r2.standard_normal((9, 2))
        masks2 = [(r2.random((9, 5)) >= 0.25) / 0.75]
        assert np.array_equal(t, t2)
        assert np.array_equal(eps, eps2)
        assert np.array_equal(masks[0], masks2[0])


class TestLossDiff:
    def test_zero_predictor_loss_is_mean_square_noise(self):
        rng = np.random.default_rng(12)
        params = _small_net(rng)
        for arr in params.tensors.values():
            arr[:] = 0
        x0 = rng.standard_normal((64, 2))
        labels = rng.integers(0, 3, 64)
        phi = init_residual(2, (), rng)
        t, eps, masks = draw_batch_noise(params, 64, SCHED, np.random.default_rng(77), 0.0)
        loss, grads, _ = loss_total(params, phi, x0, x0, x0, labels, t, eps, masks, 0.0, SCHED)
        assert_allclose(loss, float((eps ** 2).mean()), rtol=1e-12)
        assert set(grads) == set(params.tensors)

    def test_exact_predictor_beats_untrained_network(self):
        prior = ConditionalGMM.from_components(
            [0.5, 0.5], [[-1.5, 0.0], [1.5, 0.5]], [[0.8, 1.2], [1.0, 0.6]]
        )
        rng = substream(21, PURPOSE_DATA)
        labels = np.zeros(4000, dtype=int)
        x0 = sample_frames(prior, labels, rng)
        t = rng.integers(0, SCHED.T, size=4000)
        eps = rng.standard_normal((4000, 2))
        exact = eval_loss_diff(
            lambda lab, steps: lambda x, tv: exact_eps_batch(prior, lab, tv, x, SCHED),
            x0, labels, t, eps, SCHED,
        )
        net = _perturb(_small_net(np.random.default_rng(13), n_labels=1), np.random.default_rng(14))
        model = eval_loss_diff(
            lambda lab, steps: lambda x, tv: forward(net, x, tv, lab), x0, labels, t, eps, SCHED
        )
        assert exact < model
        assert exact < 1.0

    def test_eval_groups_by_timestep(self):
        """A predictor that returns the timestep itself exposes the grouping."""
        rng = np.random.default_rng(15)
        x0 = rng.standard_normal((50, 2))
        t = rng.integers(0, SCHED.T, size=50)
        eps = rng.standard_normal((50, 2))
        labels = np.zeros(50, dtype=int)
        got = eval_loss_diff(
            lambda lab, steps: lambda x, tv: np.full_like(x, float(tv)), x0, labels, t, eps, SCHED
        )
        want = float(((t[:, None] - eps) ** 2).mean())
        assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("bad", [-1, SCHED.T])
    def test_eval_rejects_steps_off_the_schedule(self, bad):
        """Step -1 once indexed the last step's level and step T overran the table."""
        rng = np.random.default_rng(16)
        net = _small_net(rng)
        x0 = rng.standard_normal((4, 2))
        t = np.array([0, 5, bad, 9])
        with pytest.raises(ValueError, match="timesteps outside"):
            eval_loss_diff(lambda lab, steps: lambda x, tv: forward(net, x, tv, lab), x0,
                           np.zeros(4, dtype=int), t, rng.standard_normal((4, 2)), SCHED)


class TestGradients:
    def _fixture(self):
        rng = np.random.default_rng(16)
        theta = _perturb(_small_net(rng), rng)
        phi = init_residual(2, (4,), rng)
        _perturb(phi, rng)
        n = 8
        x0 = rng.standard_normal((n, 2))
        zc2 = rng.standard_normal((n, 2))
        h = rng.standard_normal((n, 2))
        labels = rng.integers(0, 3, n)
        t = rng.integers(0, SCHED.T, size=n)
        eps = rng.standard_normal((n, 2))
        masks = dropout_masks(theta, n, 0.25, rng)
        return theta, phi, x0, zc2, h, labels, t, eps, masks

    def test_denoiser_gradients_match_finite_differences(self):
        theta, phi, x0, zc2, h, labels, t, eps, masks = self._fixture()

        def loss_fn():
            loss, grads, _ = loss_total(theta, phi, x0, zc2, h, labels, t, eps, masks, 0.0, SCHED)
            return loss, grads

        worst = gradient_check(loss_fn, theta.tensors, step=1e-5)
        assert max(worst.values()) < 1e-4, worst

    def test_residual_gradients_match_finite_differences(self):
        theta, phi, x0, zc2, h, labels, t, eps, masks = self._fixture()
        destd = Standardizer(mean=np.array([0.1, -0.2]), std=np.array([1.3, 0.8]))

        def loss_fn():
            loss, _, rgrads = loss_total(
                theta, phi, x0, zc2, h, labels, t, eps, masks, 0.7, SCHED, destd
            )
            return loss, rgrads

        worst = gradient_check(loss_fn, phi.tensors, step=1e-5)
        assert max(worst.values()) < 1e-4, worst

    def test_reconstruction_branch_carries_no_denoiser_gradient(self):
        """The joint loss treats the reconstructed clean frame as data: the
        denoiser gradient must equal the denoising-term gradient alone and
        must not react to the residual targets.  At zero weight the total is
        the denoising term alone."""
        theta, phi, x0, zc2, h, labels, t, eps, masks = self._fixture()
        _, diff_only, _ = loss_total(theta, phi, x0, zc2, h, labels, t, eps, masks, 0.0, SCHED)
        _, tg_a, rg_a = loss_total(theta, phi, x0, zc2, h, labels, t, eps, masks, 0.7, SCHED)
        _, tg_b, rg_b = loss_total(
            theta, phi, x0, zc2 + 5.0, h, labels, t, eps, masks, 0.7, SCHED
        )
        for name in diff_only:
            assert np.array_equal(tg_a[name], diff_only[name])
            assert np.array_equal(tg_a[name], tg_b[name])
        assert any(not np.array_equal(rg_a[k], rg_b[k]) for k in rg_a)


def _reference_denoiser_grads(params, x, t, labels, masks, g_out):
    """Forward and backward pass written out plainly, with the conditioning
    vector built in the forward pass, in the operation order of
    ``_forward_cached`` and ``_backward``."""
    T = params.tensors
    temb = time_embedding(t, params.time_dim)
    tc = temb @ T["time_w"].T + T["time_b"]
    cond = tc + T["label_emb"][labels]
    h, layers = x, []
    for i in range(len(params.hidden)):
        a = h @ T[f"layer{i}_w"].T + T[f"layer{i}_b"]
        gw, dw = T[f"layer{i}_film_gw"], T[f"layer{i}_film_dw"]
        gamma = (T["label_emb"] @ gw.T)[labels] + (tc @ gw.T + T[f"layer{i}_film_gb"])
        m = (T["label_emb"] @ dw.T)[labels] + (tc @ dw.T + T[f"layer{i}_film_db"])
        m += gamma * a
        z, s = _silu(m)
        layers.append((h, a, gamma, m, s))
        h = z * masks[i]
    grads = {"out_w": g_out.T @ h, "out_b": g_out.sum(axis=0)}
    g_h = g_out @ T["out_w"]
    g_cond = np.zeros_like(cond)
    for i in reversed(range(len(params.hidden))):
        h_in, a, gamma, m, s = layers[i]
        g_m = g_h * masks[i] * (s * (1.0 + m * (1.0 - s)))
        g_gamma = g_m * a
        g_a = g_m * gamma
        grads[f"layer{i}_film_gw"] = g_gamma.T @ cond
        grads[f"layer{i}_film_gb"] = g_gamma.sum(axis=0)
        grads[f"layer{i}_film_dw"] = g_m.T @ cond
        grads[f"layer{i}_film_db"] = g_m.sum(axis=0)
        g_cond += g_gamma @ T[f"layer{i}_film_gw"] + g_m @ T[f"layer{i}_film_dw"]
        grads[f"layer{i}_w"] = g_a.T @ h_in
        grads[f"layer{i}_b"] = g_a.sum(axis=0)
        g_h = g_a @ T[f"layer{i}_w"]
    grads["time_w"] = g_cond.T @ temb
    grads["time_b"] = g_cond.sum(axis=0)
    grads["label_emb"] = np.zeros_like(T["label_emb"])
    np.add.at(grads["label_emb"], labels, g_cond)
    return grads


def test_backward_matches_the_written_out_pass_bitwise():
    """Building the conditioning vector in ``_backward`` instead of the
    forward pass leaves every denoiser gradient bitwise unchanged, and the
    training forward gives the eval forward's bits under the same masks."""
    rng = np.random.default_rng(46)
    params = _perturb(_small_net(rng, dim=3, n_labels=5, hidden=(16, 12), cond_dim=6,
                                 time_dim=8), rng)
    n = 64
    x = rng.standard_normal((n, 3))
    labels = rng.integers(0, 5, n)
    t = rng.integers(0, SCHED.T, n)
    masks = dropout_masks(params, n, 0.1, rng)
    g_out = rng.standard_normal((n, 3))
    out, cache = _forward_cached(params, x, {}, t, labels, masks, keep=True)
    assert out.tobytes() == _forward_cached(params, x, {}, t, labels, masks)[0].tobytes()
    got = _backward(params, cache, g_out)
    want = _reference_denoiser_grads(params, x, t, labels, masks, g_out)
    assert got.keys() == want.keys()
    for name in got:
        assert np.array_equal(got[name], want[name]), name


class TestLossTotal:
    def test_zero_weight_reduces_to_denoising_loss(self):
        rng = np.random.default_rng(17)
        theta = _perturb(_small_net(rng), rng)
        phi = init_residual(2, (), rng)
        x0 = rng.standard_normal((10, 2))
        zc2 = rng.standard_normal((10, 2))
        h = rng.standard_normal((10, 2))
        labels = rng.integers(0, 3, 10)
        t, eps, masks = draw_batch_noise(theta, 10, SCHED, np.random.default_rng(5), 0.0)
        total, _, _ = loss_total(theta, phi, x0, zc2, h, labels, t, eps, masks, 0.0, SCHED)
        ab = SCHED.alpha_bar[t][:, None]
        eps_hat = forward(theta, np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps, t, labels)
        dloss = float(((eps_hat - eps) * (eps_hat - eps)).mean())
        assert total == dloss

    def test_composition_against_manual_pieces(self):
        rng = np.random.default_rng(18)
        theta = _perturb(_small_net(rng), rng)
        phi = init_residual(2, (4,), rng)
        _perturb(phi, rng)
        x0 = rng.standard_normal((12, 2))
        zc2 = rng.standard_normal((12, 2))
        h = rng.standard_normal((12, 2))
        labels = rng.integers(0, 3, 12)
        destd = Standardizer(mean=np.array([0.4, -0.1]), std=np.array([0.9, 1.7]))
        lam = 0.6
        t, eps, masks = draw_batch_noise(theta, 12, SCHED, np.random.default_rng(6), 0.0)
        total, _, _ = loss_total(
            theta, phi, x0, zc2, h, labels, t, eps, masks, lam, SCHED, destd=destd
        )
        ab = np.array([alpha_bar_at(SCHED, int(tv)) for tv in t])[:, None]
        x_t = np.sqrt(ab) * x0 + np.sqrt(1 - ab) * eps
        eps_hat = forward(theta, x_t, t, labels)
        dloss = float(((eps_hat - eps) ** 2).mean())
        xhat0 = (x_t - np.sqrt(1 - ab) * eps_hat) / np.sqrt(ab)
        xhat0 = xhat0 * destd.std + destd.mean
        zhat = predict_zc2(phi, h, xhat0)
        rloss = float(((zhat - zc2) ** 2).mean())
        assert_allclose(total, dloss + lam * rloss, rtol=1e-15)

    def test_planted_head_zeroes_residual_term(self):
        """An affine head that copies the feature slot is exact when the
        residual target equals the features, so only the denoising term remains."""
        rng = np.random.default_rng(19)
        theta = _perturb(_small_net(rng), rng)
        phi = init_residual(2, (), rng)
        phi.tensors["out_w"][:] = np.hstack([np.eye(2), np.zeros((2, 2))])
        phi.tensors["out_b"][:] = 0
        x0 = rng.standard_normal((8, 2))
        h = rng.standard_normal((8, 2))
        labels = rng.integers(0, 3, 8)
        t, eps, masks = draw_batch_noise(theta, 8, SCHED, np.random.default_rng(7), 0.0)
        total, _, _ = loss_total(theta, phi, x0, h, h, labels, t, eps, masks, 0.9, SCHED)
        dloss, _, _ = loss_total(theta, phi, x0, h, h, labels, t, eps, masks, 0.0, SCHED)
        assert_allclose(total, dloss, rtol=1e-15)

    def test_track_shape_mismatch_rejected(self):
        rng = np.random.default_rng(20)
        theta = _small_net(rng)
        phi = init_residual(2, (), rng)
        x0 = rng.standard_normal((4, 2))
        t, eps, masks = draw_batch_noise(theta, 4, SCHED, np.random.default_rng(0), 0.0)
        with pytest.raises(ValueError, match="track"):
            loss_total(theta, phi, x0, x0[:3], x0, np.zeros(4, dtype=int), t, eps, masks,
                       0.5, SCHED)

    @pytest.mark.parametrize("t, eps, match", [
        (np.zeros(3, dtype=int), np.zeros((4, 2)), "per frame"),
        (np.zeros(4, dtype=int), np.zeros((1, 2)), "per frame"),
        (np.array([0, 1, -1, 2]), np.zeros((4, 2)), "timesteps outside"),
        (np.array([0, 1, SCHED.T, 2]), np.zeros((4, 2)), "timesteps outside"),
    ])
    def test_drawn_inputs_must_fit_the_batch(self, t, eps, match):
        """A short or broadcastable draw, or a step off the schedule, would
        otherwise index or broadcast into a wrong loss without an error."""
        rng = np.random.default_rng(20)
        theta = _small_net(rng)
        phi = init_residual(2, (), rng)
        x0 = rng.standard_normal((4, 2))
        with pytest.raises(ValueError, match=match):
            loss_total(theta, phi, x0, x0, x0, np.zeros(4, dtype=int), t, eps, None,
                       0.5, SCHED)


class TestResidualHead:
    def test_affine_head_is_exact_linear_map(self):
        rng = np.random.default_rng(21)
        phi = init_residual(3, (), rng)
        h = rng.standard_normal((5, 3))
        zc1 = rng.standard_normal((5, 3))
        want = np.concatenate([h, zc1], axis=1) @ phi.tensors["out_w"].T + phi.tensors["out_b"]
        assert np.array_equal(predict_zc2(phi, h, zc1), want)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(23)
        phi = init_residual(3, (), rng)
        with pytest.raises(ValueError, match="shape"):
            predict_zc2(phi, rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
        with pytest.raises(ValueError, match="shape"):
            predict_zc2(phi, rng.standard_normal(3), rng.standard_normal(3))

    def test_training_learns_planted_map(self):
        """zc2 = h/2 is representable exactly; training should drive the head
        far below the predict-the-mean baseline.  Uses a faster step size
        than the default so the short run converges."""
        rng = substream(7, PURPOSE_DATA)
        seqs = []
        for i in range(40):
            c = rng.normal(0, 1, (30, 3))
            h = c + 0.05 * rng.normal(0, 1, (30, 3))
            seqs.append(LatentSequence(
                id=f"s-{i:05d}", labels=rng.integers(0, 4, 30),
                frames=c, zc2=0.5 * h, h=h,
            ))
        cfg = TrainConfig(epochs=60, batch_size=64, lr=3e-3, hidden=(32,),
                          residual_hidden=(16,), cond_dim=8, time_dim=8,
                          dropout=0.0, lam=1.0)
        bundle, curve = train(cfg, seqs, SCHED, substream(0, PURPOSE_TRAIN), n_labels=4)
        rng2 = substream(8, PURPOSE_DATA)
        c = rng2.normal(0, 1, (500, 3))
        h = c + 0.05 * rng2.normal(0, 1, (500, 3))
        zc2 = 0.5 * h
        mse = float(((predict_zc2(bundle.phi, h, c) - zc2) ** 2).mean())
        base = float(((zc2 - zc2.mean(axis=0)) ** 2).mean())
        assert mse < 0.1 * base
        assert np.mean(curve[-5:]) < 0.8 * np.mean(curve[:5])


class TestAdam:
    def test_single_step_closed_form(self):
        w = np.array([1.0])
        st = AdamState.for_buffer(w)
        adam_step(w, np.array([3.0]), st, lr=0.1)
        # bias correction cancels on the first step: update is lr*g/(|g|+eps)
        want = 1.0 - 0.1 * 3.0 / (3.0 + 1e-8)
        assert_allclose(w[0], want, rtol=1e-15)
        assert st.step == 1

    def test_converges_on_quadratic(self):
        w = np.array([10.0])
        st = AdamState.for_buffer(w)
        for _ in range(2000):
            adam_step(w, 2 * (w - 2.0), st, lr=0.05)
        assert abs(w[0] - 2.0) < 1e-3

    def test_state_tracks_multiple_tensors(self):
        w = FlatTensors({"a": (2,), "b": (2, 2)})
        st = AdamState.for_buffer(w.flat)
        g = w.zeros_like()
        g.flat[:] = 1.0
        adam_step(w.flat, g.flat, st, lr=0.1)
        adam_step(w.flat, g.flat, st, lr=0.1)
        assert st.step == 2
        assert st.m.shape == st.v.shape == (6,)
        assert (w["a"] < 0).all() and (w["b"] < 0).all()

    def test_matches_the_one_line_update_bitwise(self):
        """The update through the state's scratch buffers gives the bits of
        the written-out expression, step after step, on a buffer of a
        default denoiser's size."""
        rng = np.random.default_rng(48)
        flat = init_denoiser(8, 4, (128, 128), 32, 32, rng).tensors.flat.copy()
        want = flat.copy()
        st = AdamState.for_buffer(flat)
        m, v = np.zeros_like(flat), np.zeros_like(flat)
        lr, b1, b2, eps = 5e-5, 0.9, 0.999, 1e-8
        for step in range(1, 5):
            grads = rng.standard_normal(flat.size) * 10.0 ** rng.integers(-8, 3, flat.size)
            adam_step(flat, grads, st, lr, b1, b2, eps)
            m = b1 * m + (1.0 - b1) * grads
            v = b2 * v + (1.0 - b2) * (grads * grads)
            c1, c2 = 1.0 - b1 ** step, 1.0 - b2 ** step
            want -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
            assert flat.tobytes() == want.tobytes()
            assert st.m.tobytes() == m.tobytes() and st.v.tobytes() == v.tobytes()


class TestTrainingWorkspace:
    """A workspace kept across training batches changes no bit of what a
    fresh one gives, whatever changed between the calls."""

    def test_kept_workspace_gives_the_bits_of_a_fresh_one(self):
        """Through one workspace: a batch, an Adam-like change to both
        parameter sets, a smaller batch, then the first shape again.  Each
        call's loss and gradients equal a fresh workspace's bit for bit, so
        no FiLM label table of an earlier call is served; the gradients
        returned are the workspace's buffers, which the next call refills."""
        rng = np.random.default_rng(51)
        theta = _perturb(_small_net(rng, dim=3, n_labels=5, hidden=(16, 12), cond_dim=6,
                                    time_dim=8), rng)
        phi = _perturb(init_residual(3, (7,), rng), rng)
        destd = Standardizer(mean=np.array([0.1, -0.2, 0.3]), std=np.array([1.3, 0.8, 1.1]))
        ws: dict = {}
        for n in (64, 56, 64):
            x0, zc2, h = (rng.standard_normal((n, 3)) for _ in range(3))
            labels = rng.integers(0, 5, n)
            t, eps, masks = draw_batch_noise(theta, n, SCHED, rng, 0.1)
            got = loss_total(theta, phi, x0, zc2, h, labels, t, eps, masks, 0.5, SCHED,
                             destd, workspace=ws)
            want = loss_total(theta, phi, x0, zc2, h, labels, t, eps, masks, 0.5, SCHED, destd)
            assert got[0] == want[0]
            assert got[1].flat.tobytes() == want[1].flat.tobytes()
            assert got[2].flat.tobytes() == want[2].flat.tobytes()
            assert got[1] is ws["theta"]["grads"] and got[2] is ws["phi"]["grads"]
            assert "tables" in ws["theta"] and "tables" not in ws["phi"]
            for params in (theta, phi):
                params.tensors.flat[...] += 0.05 * rng.standard_normal(params.tensors.flat.size)


class TestFlatBuffers:
    """Every tensor is a view into its set's flat buffer, so the whole-buffer
    Adam update reaches each named tensor."""

    @staticmethod
    def _assert_views(tensors):
        assert sum(a.size for a in tensors.values()) == tensors.flat.size
        for name, arr in tensors.items():
            assert np.shares_memory(arr, tensors.flat), name

    def test_init_builds_views(self):
        rng = np.random.default_rng(40)
        self._assert_views(_small_net(rng, hidden=(5, 3)).tensors)
        self._assert_views(init_residual(2, (4,), rng).tensors)
        self._assert_views(init_residual(2, (), rng).tensors)

    def test_loaded_and_trained_sets_are_views(self, tmp_path):
        rng = substream(41, PURPOSE_DATA)
        seqs = [LatentSequence(id=f"s-{i:05d}", labels=rng.integers(0, 3, 10),
                               frames=rng.normal(0, 1, (10, 2)),
                               zc2=rng.normal(0, 0.1, (10, 2)), h=rng.normal(0, 1, (10, 2)))
                for i in range(3)]
        cfg = TrainConfig(epochs=2, hidden=(6,), residual_hidden=(4,), cond_dim=4,
                          time_dim=4, lr=1e-3)
        bundle, _ = train(cfg, seqs, SCHED, substream(42, PURPOSE_TRAIN), n_labels=3)
        self._assert_views(bundle.theta.tensors)
        self._assert_views(bundle.phi.tensors)
        path = str(tmp_path / "model.txt")
        save_model(path, bundle, SCHED)
        loaded, _ = load_model(path)
        self._assert_views(loaded.theta.tensors)
        self._assert_views(loaded.phi.tensors)

    def test_gradients_share_the_parameter_layout(self):
        rng = np.random.default_rng(43)
        theta = _small_net(rng)
        x0 = rng.standard_normal((6, 2))
        labels = rng.integers(0, 3, 6)
        t, eps, masks = draw_batch_noise(theta, 6, SCHED, rng, 0.0)
        phi = init_residual(2, (), rng)
        _, grads, _ = loss_total(theta, phi, x0, x0, x0, labels, t, eps, masks, 0.0, SCHED)
        self._assert_views(grads)
        assert list(grads) == list(theta.tensors)
        assert all(grads[k].shape == theta.tensors[k].shape for k in grads)


class TestLayerViews:
    """The layer views a parameter record builds once follow every writer
    of its tensors: after each write, a forward on a new workspace gives the
    bits of a freshly built record that holds copies of the tensors."""

    @staticmethod
    def _run(params, x, labels):
        if params.cond_dim:
            return forward(params, x[:, :params.dim], 37, labels)
        return predict_zc2(params, x[:, :params.dim], x[:, params.dim:])

    def _assert_current(self, params, x, labels):
        """``params`` runs as a fresh record holding copies of its tensors,
        whose views the test builds from those copies, so the reference
        shares no memory with ``params`` and owes nothing to how a record
        builds its views."""
        copy = MLPParams(params.dim, params.hidden, params.n_labels, params.cond_dim,
                         params.time_dim)
        copy.tensors.flat[...] = params.tensors.flat
        T = {name: arr.copy() for name, arr in params.tensors.items()}
        copy.layers = [(T[f"layer{i}_w"].T, T[f"layer{i}_b"], film)
                       for i, (_, _, film) in enumerate(params.layers)]
        copy.out = (T["out_w"].T, T["out_b"])
        assert self._run(params, x, labels).tobytes() == self._run(copy, x, labels).tobytes()

    @pytest.mark.parametrize("hidden", [(6, 4), ()], ids=["hidden", "no-hidden"])
    @pytest.mark.parametrize("head", [False, True], ids=["denoiser", "residual"])
    def test_views_follow_adam_load_and_gradient_check(self, hidden, head, tmp_path):
        rng = np.random.default_rng(52)
        theta = _perturb(_small_net(rng, hidden=hidden, cond_dim=3), rng)
        phi = _perturb(init_residual(2, hidden, rng), rng)
        x = rng.standard_normal((9, 4))
        labels = rng.integers(0, 3, 9)
        which = "phi" if head else "theta"
        bundle = ModelBundle(theta, phi, Standardizer(mean=np.zeros(2), std=np.ones(2)))
        params = getattr(bundle, which)
        flat = params.tensors.flat
        adam_step(flat, rng.standard_normal(flat.size), AdamState.for_buffer(flat), 0.05)
        self._assert_current(params, x, labels)
        path = str(tmp_path / "model.txt")
        save_model(path, bundle, SCHED)
        params = getattr(load_model(path)[0], which)
        self._assert_current(params, x, labels)

        def loss_fn():
            self._assert_current(params, x, labels)
            return 0.0, {name: np.zeros_like(arr) for name, arr in params.tensors.items()}

        gradient_check(loss_fn, params.tensors)


class TestTrainLoop:
    def _dataset(self, rng, n_seq=6, n=20, d=2, n_labels=3):
        seqs = []
        for i in range(n_seq):
            c = rng.normal(0, 1, (n, d))
            seqs.append(LatentSequence(
                id=f"s-{i:05d}", labels=rng.integers(0, n_labels, n),
                frames=c, zc2=0.1 * rng.normal(0, 1, (n, d)), h=c,
            ))
        return seqs

    def test_zero_epochs_returns_initialization(self):
        rng = substream(3, PURPOSE_DATA)
        seqs = self._dataset(rng)
        cfg = TrainConfig(epochs=0, hidden=(8,), residual_hidden=(), cond_dim=4,
                          time_dim=4)
        bundle, curve = train(cfg, seqs, SCHED, substream(4, PURPOSE_TRAIN), n_labels=3)
        assert curve == []
        r2 = substream(4, PURPOSE_TRAIN)
        theta0 = init_denoiser(2, 3, (8,), 4, 4, r2)
        phi0 = init_residual(2, (), r2)
        for k in theta0.tensors:
            assert np.array_equal(bundle.theta.tensors[k], theta0.tensors[k])
        for k in phi0.tensors:
            assert np.array_equal(bundle.phi.tensors[k], phi0.tensors[k])
        std = fit_standardizer(np.concatenate([s.frames for s in seqs]))
        assert np.array_equal(bundle.standardizer.mean, std.mean)

    def test_reruns_are_bit_identical(self):
        rng = substream(5, PURPOSE_DATA)
        seqs = self._dataset(rng)
        cfg = TrainConfig(epochs=3, hidden=(8,), cond_dim=4, time_dim=4, lr=1e-3)
        b1, c1 = train(cfg, seqs, SCHED, substream(6, PURPOSE_TRAIN), n_labels=3)
        b2, c2 = train(cfg, seqs, SCHED, substream(6, PURPOSE_TRAIN), n_labels=3)
        assert c1 == c2
        for k in b1.theta.tensors:
            assert np.array_equal(b1.theta.tensors[k], b2.theta.tensors[k])
        for k in b1.phi.tensors:
            assert np.array_equal(b1.phi.tensors[k], b2.phi.tensors[k])

    def test_matches_a_hand_written_loop(self):
        """Two epochs with dropout and a residual head, bit for bit against
        the loop spelled out here: shuffle, draw the batch's noise, take the
        joint loss, then one Adam step per parameter set.  This pins the
        order in which training draws from its one generator."""
        seqs = self._dataset(substream(15, PURPOSE_DATA), n_seq=5, n=11)  # batches 16,16,16,7
        cfg = TrainConfig(epochs=2, batch_size=16, lr=1e-3, hidden=(6, 5), residual_hidden=(4,),
                          cond_dim=4, time_dim=4, dropout=0.2, lam=0.7)
        bundle, curve = train(cfg, seqs, SCHED, substream(16, PURPOSE_TRAIN), n_labels=3)

        rng = substream(16, PURPOSE_TRAIN)
        x0_raw = np.concatenate([s.frames for s in seqs])
        std = fit_standardizer(x0_raw)
        x0 = standardize_frames(x0_raw, std)
        zc2 = np.concatenate([s.zc2 for s in seqs])
        h = np.concatenate([s.h for s in seqs])
        labels = np.concatenate([s.labels for s in seqs])
        theta = init_denoiser(2, 3, cfg.hidden, cfg.cond_dim, cfg.time_dim, rng)
        phi = init_residual(2, cfg.residual_hidden, rng)
        st_theta = AdamState.for_buffer(theta.tensors.flat)
        st_phi = AdamState.for_buffer(phi.tensors.flat)
        want = []
        for _ in range(cfg.epochs):
            perm = rng.permutation(55)
            total = 0.0
            for start in range(0, 55, cfg.batch_size):
                idx = perm[start:start + cfg.batch_size]
                t, eps, masks = draw_batch_noise(theta, idx.size, SCHED, rng, cfg.dropout)
                loss, tg, rg = loss_total(theta, phi, x0[idx], zc2[idx], h[idx], labels[idx],
                                          t, eps, masks, cfg.lam, SCHED, destd=std)
                for flat, grads, state in ((theta.tensors.flat, tg.flat, st_theta),
                                           (phi.tensors.flat, rg.flat, st_phi)):
                    adam_step(flat, grads, state, cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
                total += loss * idx.size
            want.append(total / 55)
        assert curve == want
        assert np.array_equal(bundle.theta.tensors.flat, theta.tensors.flat)
        assert np.array_equal(bundle.phi.tensors.flat, phi.tensors.flat)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        rng = substream(9, PURPOSE_DATA)
        seqs = self._dataset(rng)
        cfg = TrainConfig(epochs=5, hidden=(8,), cond_dim=4, time_dim=4, lr=1e200,
                          batch_size=16)
        with pytest.raises(RuntimeError, match="diverged"):
            train(cfg, seqs, SCHED, substream(10, PURPOSE_TRAIN), n_labels=3)

    def test_progress_callback_sees_every_epoch(self):
        rng = substream(11, PURPOSE_DATA)
        seqs = self._dataset(rng, n_seq=2, n=10)
        seen = []
        cfg = TrainConfig(epochs=4, hidden=(4,), cond_dim=4, time_dim=4, lr=1e-3)
        _, curve = train(cfg, seqs, SCHED, substream(12, PURPOSE_TRAIN), n_labels=3,
                         progress=lambda e, l: seen.append((e, l)))
        assert [e for e, _ in seen] == [0, 1, 2, 3]
        assert [l for _, l in seen] == curve

    def test_missing_aux_tracks_rejected(self):
        rng = substream(13, PURPOSE_DATA)
        seqs = [LatentSequence(id="a", labels=np.zeros(5, dtype=int),
                               frames=rng.normal(0, 1, (5, 2)))]
        cfg = TrainConfig(epochs=1, hidden=(4,), cond_dim=4, time_dim=4)
        with pytest.raises(ValueError, match="zc2"):
            train(cfg, seqs, SCHED, substream(0, PURPOSE_TRAIN), n_labels=1)

    def test_label_bound_enforced(self):
        rng = substream(14, PURPOSE_DATA)
        seqs = self._dataset(rng, n_labels=3)
        cfg = TrainConfig(epochs=1, hidden=(4,), cond_dim=4, time_dim=4)
        with pytest.raises(ValueError, match="labels"):
            train(cfg, seqs, SCHED, substream(0, PURPOSE_TRAIN), n_labels=2)

    def test_empty_dataset_rejected(self):
        cfg = TrainConfig(epochs=1)
        with pytest.raises(ValueError, match="empty"):
            train(cfg, [], SCHED, substream(0, PURPOSE_TRAIN), n_labels=1)


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(epochs=-1),
        dict(epochs=MAX_EPOCHS + 1),
        dict(batch_size=0),
        dict(lr=0.0),
        dict(lr=-1e-4),
        dict(beta1=1.0),
        dict(beta2=-0.1),
        dict(dropout=1.0),
        dict(lam=-0.5),
        dict(hidden=(0,)),
        dict(time_dim=7),
        dict(adam_eps=0.0),
        dict(residual_hidden=(4, 0)),
        dict(epochs=2.5),
        dict(epochs=True),
        dict(lr="x"),
        dict(lr=float("inf")),
        dict(adam_eps=float("inf")),
        dict(hidden=[3]),
    ])
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_defaults_accepted(self):
        cfg = TrainConfig()
        assert cfg.epochs == 150
        assert cfg.lr == 5e-5
        assert cfg.lam == 0.5
        assert cfg.hidden == (128, 128)


_MODEL_SHAPES = st.fixed_dictionaries({
    "dim": st.integers(1, 4),
    "n_labels": st.integers(1, 4),
    "hidden": st.lists(st.integers(1, 5), max_size=2).map(tuple),
    "cond_dim": st.integers(1, 4),
    "time_dim": st.integers(1, 4).map(lambda k: 2 * k),
    "residual_hidden": st.lists(st.integers(1, 5), max_size=2).map(tuple),
})
_GARBAGE = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
_NEGATIVE = st.one_of(st.integers(-10 ** 6, -1).map(str), st.floats(-1e6, -1e-6).map(repr))


def _random_bundle(shapes: dict, seed: int) -> ModelBundle:
    rng = np.random.default_rng(seed)
    theta = _perturb(init_denoiser(shapes["dim"], shapes["n_labels"], shapes["hidden"],
                                   shapes["cond_dim"], shapes["time_dim"], rng), rng)
    phi = _perturb(init_residual(shapes["dim"], shapes["residual_hidden"], rng), rng)
    std = Standardizer(mean=rng.normal(0, 1, shapes["dim"]),
                       std=rng.uniform(0.5, 2, shapes["dim"]))
    return ModelBundle(theta=theta, phi=phi, standardizer=std)


def _corruptible_tokens(lines: list[str]) -> dict[str, list[tuple[int, int]]]:
    """(line, token) positions of a saved model file's header values, tensor
    sizes, tensor values and standardizer scale values, by kind of place."""
    places: dict[str, list[tuple[int, int]]] = {"header": [], "size": [], "value": [],
                                                "scale": []}
    tensor = None
    for i, line in enumerate(lines[1:], start=1):
        tokens = line.split(" ")
        if tokens[0] == "end":
            break
        if tokens[0] == "tensor":
            tensor = tokens[1]
            places["size"].append((i, 2))
        elif tensor is None:
            places["header"] += [(i, j) for j in range(1, len(tokens))]
        else:
            place = "scale" if tensor == "std.scale" else "value"
            places[place] += [(i, j) for j in range(len(tokens))]
            tensor = None
    return places


class TestModelIO:
    def _bundle(self, rng):
        theta = _perturb(_small_net(rng, dim=3, hidden=(6, 4)), rng)
        phi = init_residual(3, (5,), rng)
        _perturb(phi, rng)
        std = Standardizer(mean=rng.normal(0, 1, 3), std=rng.uniform(0.5, 2, 3))
        return ModelBundle(theta=theta, phi=phi, standardizer=std)

    def test_tensor_blocks_in_file_order(self, tmp_path):
        """Block names and sizes in file order, for dim 3, 3 labels, hidden
        (6, 4), cond_dim 4, time_dim 4 and a residual head with hidden (5,):
        the init draws and the loader follow this order."""
        path = tmp_path / "model.txt"
        save_model(str(path), self._bundle(np.random.default_rng(36)), SCHED)
        blocks = [(name, int(size)) for kind, name, size in
                  (line.split() for line in path.read_text().splitlines()
                   if line.startswith("tensor "))]
        assert blocks == [
            ("den.label_emb", 12), ("den.time_w", 16), ("den.time_b", 4),
            ("den.layer0_w", 18), ("den.layer0_b", 6),
            ("den.layer0_film_gw", 24), ("den.layer0_film_gb", 6),
            ("den.layer0_film_dw", 24), ("den.layer0_film_db", 6),
            ("den.layer1_w", 24), ("den.layer1_b", 4),
            ("den.layer1_film_gw", 16), ("den.layer1_film_gb", 4),
            ("den.layer1_film_dw", 16), ("den.layer1_film_db", 4),
            ("den.out_w", 12), ("den.out_b", 3),
            ("res.layer0_w", 30), ("res.layer0_b", 5), ("res.out_w", 15), ("res.out_b", 3),
            ("std.mean", 3), ("std.scale", 3),
        ]

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(30)
        bundle = self._bundle(rng)
        path = str(tmp_path / "model.txt")
        save_model(path, bundle, SCHED)
        loaded, sched = load_model(path)
        assert sched.T == SCHED.T
        assert np.array_equal(sched.beta, SCHED.beta)
        for k, v in bundle.theta.tensors.items():
            assert np.array_equal(loaded.theta.tensors[k], v), k
        for k, v in bundle.phi.tensors.items():
            assert np.array_equal(loaded.phi.tensors[k], v), k
        assert np.array_equal(loaded.standardizer.mean, bundle.standardizer.mean)
        assert np.array_equal(loaded.standardizer.std, bundle.standardizer.std)
        assert loaded.theta.hidden == (6, 4)
        assert loaded.phi.hidden == (5,)

    def test_loaded_model_predicts_identically(self, tmp_path):
        rng = np.random.default_rng(31)
        bundle = self._bundle(rng)
        path = str(tmp_path / "model.txt")
        save_model(path, bundle, SCHED)
        loaded, _ = load_model(path)
        x = rng.standard_normal((6, 3))
        labels = rng.integers(0, 3, 6)
        assert np.array_equal(forward(bundle.theta, x, 33, labels),
                              forward(loaded.theta, x, 33, labels))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("SOME-OTHER-FORMAT v9\n")
        with pytest.raises(ValueError, match="not a model file"):
            load_model(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        rng = np.random.default_rng(32)
        bundle = self._bundle(rng)
        path = tmp_path / "model.txt"
        save_model(str(path), bundle, SCHED)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-3]))
        with pytest.raises(ValueError):
            load_model(str(path))

    @pytest.mark.parametrize("tail", ["\n", "end\n", "extra"])
    def test_content_after_end_rejected(self, tmp_path, tail):
        path = tmp_path / "model.txt"
        save_model(str(path), self._bundle(np.random.default_rng(32)), SCHED)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(tail)
        with pytest.raises(ValueError) as info:
            load_model(str(path))
        assert str(info.value) == f"{path}: content after the 'end' line"

    def test_non_finite_tensor_rejected(self, tmp_path):
        rng = np.random.default_rng(34)
        bundle = self._bundle(rng)
        bundle.theta.tensors["layer1_b"][2] = np.nan
        path = tmp_path / "model.txt"
        save_model(str(path), bundle, SCHED)
        with pytest.raises(ValueError, match="den.layer1_b.*non-finite"):
            load_model(str(path))

    def test_unknown_tensor_rejected(self, tmp_path):
        rng = np.random.default_rng(33)
        bundle = self._bundle(rng)
        path = tmp_path / "model.txt"
        save_model(str(path), bundle, SCHED)
        text = path.read_text().replace("tensor den.out_b ", "tensor den.mystery ")
        path.write_text(text)
        with pytest.raises(ValueError, match="mystery"):
            load_model(str(path))

    @pytest.mark.parametrize("edit, expected", [
        ("repeat", "tensor res.layer0_w"),
        ("swap", "tensor den.out_w"),
    ])
    def test_blocks_out_of_order_fail_naming_the_expected_tensor(self, tmp_path, edit,
                                                                 expected):
        """Blocks must come in the written order: a repeated or swapped block
        fails with one line naming the file and the tensor due next."""
        rng = np.random.default_rng(36)
        path = tmp_path / "model.txt"
        save_model(str(path), self._bundle(rng), SCHED)
        lines = path.read_text().splitlines(keepends=True)
        i = lines.index("tensor den.out_w 12\n")
        w, b = lines[i:i + 2], lines[i + 2:i + 4]
        lines[i:i + 4] = w + b + b if edit == "repeat" else b + w
        path.write_text("".join(lines))
        with pytest.raises(ValueError) as info:
            load_model(str(path))
        message = str(info.value)
        assert message.startswith(f"{path}: expected {expected!r} line, got 'tensor den.out_")
        assert "\n" not in message

    @pytest.mark.parametrize("old, new, field", [
        ("\ndim 3\n", "\ndim four\n", "dim: invalid literal"),
        ("\ntensor den.out_b 3\n", "\ntensor den.out_b many\n", "tensor 'den.out_b' size"),
        ("\ntensor den.out_b 3\n", "\ntensor den.out_b 3\nzz ", "tensor 'den.out_b': could not"),
        ("\nschedule ", "\nschedule 0.5 ", "schedule: too many values"),
        ("\ndim 3\n", "\ndim -1\n", "dim: must be a positive integer, got -1"),
        ("\nlabels 3\n", "\nlabels 0\n", "labels: must be a positive integer, got 0"),
        ("\ncond_dim 4\n", "\ncond_dim 0\n", "cond_dim: must be a positive integer"),
        ("\ntime_dim 4\n", "\ntime_dim -2\n", "time_dim: must be a positive integer"),
        ("\ntime_dim 4\n", "\ntime_dim 5\n", "time_dim: must be even, got 5"),
        ("\nhidden 6,4\n", "\nhidden 6,0\n", "hidden: must be a positive integer, got 0"),
        ("\nresidual_hidden 5\n", "\nresidual_hidden -5\n",
         "residual_hidden: must be a positive integer"),
        ("\ntensor std.scale 3\n", "\ntensor std.scale 3\n-",
         "tensor 'std.scale': standardizer scale must be strictly positive"),
    ], ids=["header", "tensor-size", "tensor-value", "schedule", "dim-negative", "labels-zero",
            "cond-dim-zero", "time-dim-negative", "time-dim-odd", "hidden-zero",
            "residual-hidden-negative", "scale-negative"])
    def test_malformed_value_names_file_and_field(self, tmp_path, old, new, field):
        rng = np.random.default_rng(35)
        path = tmp_path / "model.txt"
        save_model(str(path), self._bundle(rng), SCHED)
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        with pytest.raises(ValueError) as info:
            load_model(str(path))
        assert str(info.value).startswith(f"{path}: {field}")

    @given(shapes=_MODEL_SHAPES, seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_shapes_round_trip_bitwise(self, shapes, seed):
        bundle = _random_bundle(shapes, seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.txt")
            save_model(path, bundle, SCHED)
            loaded, _ = load_model(path)
        for mine, theirs in ((bundle.theta, loaded.theta), (bundle.phi, loaded.phi)):
            assert mine.tensors.keys() == theirs.tensors.keys()
            assert np.array_equal(mine.tensors.flat, theirs.tensors.flat)
        assert np.array_equal(loaded.standardizer.std, bundle.standardizer.std)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((9, shapes["dim"]))
        labels = rng.integers(0, shapes["n_labels"], 9)
        t = rng.integers(0, SCHED.T, 9)
        assert np.array_equal(forward(bundle.theta, x, t, labels),
                              forward(loaded.theta, x, t, labels))
        assert np.array_equal(predict_zc2(bundle.phi, x, x), predict_zc2(loaded.phi, x, x))

    @given(shapes=_MODEL_SHAPES, seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_corrupted_token_fails_naming_the_file(self, shapes, seed, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.txt")
            save_model(path, _random_bundle(shapes, seed), SCHED)
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().split("\n")
            places = _corruptible_tokens(lines)
            place = data.draw(st.sampled_from(sorted(places)))
            line, token = data.draw(st.sampled_from(places[place]))
            # A negative number is a legal weight, so only the other places take one.
            kind = data.draw(st.sampled_from(
                ("garbage", "nan") if place == "value" else ("garbage", "negative", "nan")))
            tokens = lines[line].split(" ")
            tokens[token] = data.draw({"garbage": _GARBAGE, "negative": _NEGATIVE,
                                       "nan": st.just("nan")}[kind])
            lines[line] = " ".join(tokens)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines))
            with pytest.raises(ValueError) as info:
                load_model(path)
        message = str(info.value)
        assert message.startswith(f"{path}: ") and "\n" not in message
