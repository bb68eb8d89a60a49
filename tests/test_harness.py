"""Synthetic world generation, datasets, sweeps, and posterior curve export."""
import io
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from priorshift import harness as harness_mod
from priorshift.harness import (
    SEPARATION_MIN,
    SweepRow,
    World,
    WorldSpec,
    build_context,
    posterior_curves,
    gen_dataset,
    gen_world,
    load_world,
    save_world,
    sweep,
    sweep_csv,
)
from priorshift.denoiser import ModelBundle, init_denoiser, init_residual
from priorshift.latent import Codebook, Standardizer, snap_frames
from priorshift.prior import ConditionalGMM, grid_moments, marginal_1d, native_class_prob_batch, \
    posterior_grid, sample_frames
from priorshift.rng import PURPOSE_DATA, substream
from priorshift.sampler import convert_sequences, frame_metrics
from priorshift.schedule import alpha_bar_at, default_schedule

SCHED = default_schedule()


def _small_spec(**kwargs):
    base = dict(dim=3, n_labels=4, n_components=2, codebook_size=24, seed=0)
    base.update(kwargs)
    return WorldSpec(**base)


_WORLD_SPECS = st.builds(
    WorldSpec, dim=st.integers(1, 4), n_labels=st.integers(1, 4),
    n_components=st.integers(1, 3), codebook_size=st.integers(1, 5),
    h_noise=st.floats(0, 1), l2_shift=st.floats(0, 3), mean_scale=st.floats(0, 3),
    var_lo=st.floats(0.1, 1), var_hi=st.floats(1, 2), seed=st.integers(0, 2 ** 64 - 1),
)
# A JSON number: what follows "[" or the ", " and ": " separators.
_JSON_NUMBER = re.compile(r"(?<=[\[ ])-?[0-9][0-9.eE+-]*")


def _random_world(spec: WorldSpec, seed: int) -> World:
    """Any world whose parts fit the spec, drawn without the separation search."""
    rng = np.random.default_rng(seed)
    shape = (spec.n_labels, spec.n_components, spec.dim)

    def gmm():
        w = rng.uniform(0.1, 1, shape[:2])
        return ConditionalGMM(weights=w / w.sum(axis=1, keepdims=True),
                              means=rng.normal(0, 3, shape), variances=rng.uniform(0.2, 2, shape))

    return World(spec=spec, native=gmm(), l2=gmm(),
                 codebook=Codebook(rng.normal(0, 3, (spec.codebook_size, spec.dim))),
                 standardizer=Standardizer(rng.normal(0, 1, spec.dim),
                                           rng.uniform(0.5, 2, spec.dim)),
                 attempts=int(rng.integers(1, 65)))


class TestWorldSpec:
    @pytest.mark.parametrize("kwargs", [
        dict(dim=0),
        dict(n_labels=0),
        dict(n_components=0),
        dict(codebook_size=0),
        dict(var_lo=0.0),
        dict(var_lo=2.0, var_hi=1.0),
        dict(l2_shift=-0.1),
        dict(h_noise=-0.1),
        dict(l2_shift=True),
        dict(h_noise="0.1"),
        dict(dim=4.0),
        dict(mean_scale=-1.0),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            _small_spec(**kwargs)

    @pytest.mark.parametrize("field, at, over", [
        ("dim", dict(dim=harness_mod.MAX_DIM, n_components=1, n_labels=1, codebook_size=1),
         f"<= {harness_mod.MAX_DIM}"),
        ("n_components", dict(dim=2, n_components=harness_mod.MAX_COMPONENT_VALUES // 2,
                              n_labels=1), f"<= {harness_mod.MAX_COMPONENT_VALUES} / dim"),
        ("n_labels", dict(dim=4, n_components=2, n_labels=harness_mod.MAX_PRIOR_VALUES // 8),
         f"<= {harness_mod.MAX_PRIOR_VALUES} / (n_components * dim)"),
        ("codebook_size", dict(dim=4, codebook_size=harness_mod.MAX_CODEBOOK_VALUES // 4),
         f"<= {harness_mod.MAX_CODEBOOK_VALUES} / dim"),
    ])
    def test_array_sizes_bounded(self, field, at, over):
        """Each array a world holds or draws has a bound: a spec at it is
        accepted, and one past it fails naming the field."""
        assert getattr(_small_spec(**at), field) == at[field]
        with pytest.raises(ValueError, match=re.escape(f"{field}: must be {over}, got")):
            _small_spec(**{**at, field: at[field] + 1})


class TestGenWorld:
    def test_deterministic(self):
        a = gen_world(_small_spec(seed=11))
        b = gen_world(_small_spec(seed=11))
        assert a.attempts == b.attempts
        assert np.array_equal(a.native.means, b.native.means)
        assert np.array_equal(a.l2.means, b.l2.means)
        assert np.array_equal(a.codebook.entries, b.codebook.entries)
        assert np.array_equal(a.standardizer.mean, b.standardizer.mean)

    def test_classes_actually_separate(self):
        """Remeasure class separation with fresh draws; the accept gate used
        its own sample, so allow statistical slack below the gate value."""
        world = gen_world(_small_spec(seed=12))
        rng = np.random.default_rng(99)
        labels = rng.integers(0, world.spec.n_labels, size=4000)
        nat = sample_frames(world.native, labels, rng)
        shifted = sample_frames(world.l2, labels, rng)
        p_nat = native_class_prob_batch(world.native, world.l2, labels, nat).mean()
        p_l2 = native_class_prob_batch(world.native, world.l2, labels, shifted).mean()
        assert p_nat - p_l2 >= SEPARATION_MIN - 0.05

    def test_shift_preserves_weights_and_variances(self):
        world = gen_world(_small_spec(seed=13))
        assert np.array_equal(world.native.weights, world.l2.weights)
        assert np.array_equal(world.native.variances, world.l2.variances)
        assert not np.array_equal(world.native.means, world.l2.means)

    def test_zero_shift_worlds_coincide(self):
        world = gen_world(_small_spec(seed=14, l2_shift=0.0))
        assert np.array_equal(world.native.means, world.l2.means)
        assert world.attempts == 1

    def test_standardizer_centers_snapped_draws(self):
        world = gen_world(_small_spec(seed=15))
        rng = np.random.default_rng(0)
        labels = rng.integers(0, world.spec.n_labels, size=6000)
        _, snapped = snap_frames(sample_frames(world.native, labels, rng), world.codebook)
        z = (snapped - world.standardizer.mean) / world.standardizer.std
        assert np.abs(z.mean(axis=0)).max() < 0.1
        assert np.abs(z.std(axis=0) - 1).max() < 0.1


class TestGenDataset:
    def test_shapes_and_ids(self):
        world = gen_world(_small_spec(seed=16))
        seqs = gen_dataset(world, "native", 5, 12, substream(1, PURPOSE_DATA))
        assert len(seqs) == 5
        assert seqs[0].id == "native-00000"
        assert seqs[4].id == "native-00004"
        for s in seqs:
            assert s.frames.shape == (12, 3)
            assert s.zc2.shape == (12, 3)
            assert s.h.shape == (12, 3)
            assert s.labels.min() >= 0 and s.labels.max() < 4

    def test_frames_are_codebook_rows_and_split_is_consistent(self):
        """zc1 must be the snap of the raw draw, so the raw draw zc1 + zc2
        snaps back onto zc1 itself."""
        world = gen_world(_small_spec(seed=17))
        seqs = gen_dataset(world, "l2", 4, 10, substream(2, PURPOSE_DATA))
        for s in seqs:
            _, resnap = snap_frames(s.frames + s.zc2, world.codebook)
            assert np.array_equal(resnap, s.frames)
            for row in s.frames:
                assert any(np.array_equal(row, e) for e in world.codebook.entries)

    def test_one_snap_call_keeps_the_per_sequence_bytes(self, monkeypatch):
        """Every sequence's draws are snapped in one call; the stream is read
        in the per-sequence order, so each track has the bits of drawing and
        snapping one sequence at a time."""
        world = gen_world(_small_spec(seed=19))
        rng = substream(4, PURPOSE_DATA)
        want = []
        for _ in range(5):
            labels = rng.integers(0, world.spec.n_labels, size=7)
            c = sample_frames(world.l2, labels, rng)
            _, zc1 = snap_frames(c, world.codebook)
            h = c + world.spec.h_noise * rng.standard_normal(c.shape)
            want.append((labels, zc1, c - zc1, h))
        calls = []
        monkeypatch.setattr(harness_mod, "snap_frames",
                            lambda f, cb: (calls.append(len(f)), snap_frames(f, cb))[1])
        seqs = gen_dataset(world, "l2", 5, 7, substream(4, PURPOSE_DATA))
        assert calls == [35]
        for s, tracks in zip(seqs, want):
            for got, track in zip((s.labels, s.frames, s.zc2, s.h), tracks):
                assert got.tobytes() == track.tobytes()

    def test_features_track_raw_draws(self):
        world = gen_world(_small_spec(seed=18, h_noise=0.01))
        seqs = gen_dataset(world, "native", 3, 40, substream(3, PURPOSE_DATA))
        for s in seqs:
            raw = s.frames + s.zc2
            assert np.abs(s.h - raw).max() < 0.01 * 6

    def test_source_name_checked(self):
        world = gen_world(_small_spec(seed=19))
        with pytest.raises(ValueError, match="source"):
            gen_dataset(world, "shifted", 1, 1, substream(0, PURPOSE_DATA))
        with pytest.raises(ValueError):
            gen_dataset(world, "native", 0, 5, substream(0, PURPOSE_DATA))

    def test_deterministic_under_substream(self):
        world = gen_world(_small_spec(seed=20))
        a = gen_dataset(world, "native", 3, 8, substream(4, PURPOSE_DATA))
        b = gen_dataset(world, "native", 3, 8, substream(4, PURPOSE_DATA))
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.frames, sb.frames)
            assert np.array_equal(sa.h, sb.h)


class TestBuildContext:
    def test_exact_route(self):
        world = gen_world(_small_spec(seed=21))
        ctx = build_context(world, SCHED, None)
        assert ctx.residual is None
        assert ctx.codebook is world.codebook
        assert np.array_equal(ctx.standardizer.mean, world.standardizer.mean)
        out = ctx.predictor(np.zeros(2, dtype=int), range(11))(np.zeros((2, 3)), 10)
        assert out.shape == (2, 3)
        assert np.isfinite(out).all()

    def test_no_snap_drops_the_codebook(self):
        world = gen_world(_small_spec(seed=21))
        ctx = build_context(world, SCHED, None, snap=False)
        assert ctx.codebook is None
        assert np.array_equal(ctx.standardizer.mean, world.standardizer.mean)


class TestSweep:
    def test_zero_start_row_is_exact_identity(self):
        world = gen_world(_small_spec(seed=22))
        row = sweep(world, build_context(world, SCHED, None), [0], n_seq=3, seq_len=10,
                    seed=5)[0]
        assert row.identity_l2 == 0.0
        assert row.identity_cos == 1.0
        assert row.n_frames == 30

    def test_metrics_move_monotonically_with_start_step(self):
        world = gen_world(WorldSpec(seed=0))
        rows = sweep(world, build_context(world, SCHED, None), [0, 50, 100], n_seq=6,
                     seq_len=25, seed=5)
        l2 = [r.identity_l2 for r in rows]
        cos = [r.identity_cos for r in rows]
        prob = [r.native_prob for r in rows]
        assert l2 == sorted(l2) and l2[0] < l2[-1]
        assert cos == sorted(cos, reverse=True) and cos[0] > cos[-1]
        assert all(a < b for a, b in zip(prob, prob[1:]))

    def test_zero_shift_probability_is_exactly_half(self):
        world = gen_world(_small_spec(seed=23, l2_shift=0.0))
        rows = sweep(world, build_context(world, SCHED, None), [0, 60], n_seq=3, seq_len=10,
                     seed=7)
        assert [r.native_prob for r in rows] == [0.5, 0.5]

    @pytest.mark.parametrize("snap", [True, False])
    def test_row_matches_direct_conversion(self, snap):
        """A sweep row scores the frames that converting its dataset at that
        start step gives, snapped or not as the sweep asks."""
        world = gen_world(_small_spec(seed=22))
        ctx = build_context(world, SCHED, None, snap)
        row = sweep(world, ctx, [40], n_seq=3, seq_len=10, seed=5)[0]
        data = gen_dataset(world, "l2", 3, 10, substream(5, PURPOSE_DATA))
        out = convert_sequences(data, ctx, 40, 5)
        inp = np.concatenate([s.frames for s in data])
        got = np.concatenate([s.frames for s in out])
        assert snap == all(
            any(np.array_equal(row, e) for e in world.codebook.entries) for row in got
        )
        l2d, cos, prob = frame_metrics(inp, got, np.concatenate([s.labels for s in data]),
                                       world.native, world.l2)
        assert (row.identity_l2, row.identity_cos, row.native_prob) == (
            float(l2d.mean()), float(cos.mean()), float(prob.mean()))

    @pytest.mark.parametrize("route", ["exact", "model"])
    def test_rows_do_not_depend_on_the_other_start_steps(self, route):
        """A sweep at 10 and 40 writes the CSV lines of sweeps at 10 and at 40
        run alone: on the model route the 40 chain reuses the time rows the
        10 chain kept, and must still give a fresh workspace's bits."""
        world = gen_world(_small_spec(seed=27))
        bundle = None
        if route == "model":
            rng = np.random.default_rng(27)
            theta = init_denoiser(3, 4, (16, 12), 6, 8, rng)
            phi = init_residual(3, (5,), rng)
            for arr in (*theta.tensors.values(), *phi.tensors.values()):
                arr += 0.2 * rng.standard_normal(arr.shape)
            bundle = ModelBundle(theta=theta, phi=phi, standardizer=world.standardizer)
        kwargs = dict(n_seq=3, seq_len=10, seed=5)

        def lines(t_starts):
            rows = sweep(world, build_context(world, SCHED, bundle), t_starts, **kwargs)
            return sweep_csv(rows).splitlines()[1:]

        assert lines([10, 40]) == lines([10]) + lines([40])

    def test_reruns_identical(self):
        world = gen_world(_small_spec(seed=24))
        kwargs = dict(n_seq=4, seq_len=8, seed=9)
        a = sweep(world, build_context(world, SCHED, None), [25, 75], **kwargs)
        b = sweep(world, build_context(world, SCHED, None), [25, 75], **kwargs)
        assert a == b

    def test_stratified_mean_stays_close_to_pooled(self):
        world = gen_world(_small_spec(seed=25))
        ctx = build_context(world, SCHED, None)
        pooled = sweep(world, ctx, [50], n_seq=6, seq_len=20, seed=5)
        strat = sweep(world, ctx, [50], n_seq=6, seq_len=20, seed=5, stratify_labels=True)
        assert abs(pooled[0].native_prob - strat[0].native_prob) < 0.1

    @pytest.mark.parametrize("starts", [[], [50, 25], [25, 25], [-1], [101]])
    def test_bad_start_lists_rejected(self, starts):
        world = gen_world(_small_spec(seed=26))
        with pytest.raises(ValueError):
            sweep(world, build_context(world, SCHED, None), starts, n_seq=2, seq_len=5, seed=0)

    def test_csv_format(self):
        lines = sweep_csv([
            SweepRow(t_start=0, identity_l2=0.0, identity_cos=1.0,
                     native_prob=0.5, n_frames=30),
            SweepRow(t_start=50, identity_l2=0.25, identity_cos=0.97,
                     native_prob=0.61, n_frames=30),
        ]).splitlines()
        assert lines[0] == "t_start,identity_l2,identity_cos,native_prob,n_frames"
        assert len(lines) == 3
        fields = lines[2].split(",")
        assert fields[0] == "50" and fields[4] == "30"
        assert float(fields[3]) == 0.61


class TestPosteriorCurves:
    def _world(self):
        return gen_world(WorldSpec(dim=2, n_labels=3, n_components=1,
                                   codebook_size=16, seed=3))

    def test_curves_carry_the_schedule_index(self):
        """Start step ``ts`` tabulates the posterior at schedule index ts - 1."""
        world = self._world()
        grid = np.linspace(-15, 15, 2001)
        curves = posterior_curves(world, 0, 4.0, [1, 50, 100], grid, SCHED)
        gmm1 = marginal_1d(world.native, 0)
        for ts in (1, 50, 100):
            x_t = float(np.sqrt(alpha_bar_at(SCHED, ts - 1)) * 4.0)
            want = posterior_grid(gmm1, 0, ts - 1, x_t, grid, SCHED)
            assert curves[ts].tobytes() == want.tobytes()

    def test_posteriors_integrate_to_one(self):
        world = self._world()
        grid = np.linspace(-15, 15, 2001)
        curves = posterior_curves(world, 0, 4.0, [1, 50, 100], grid, SCHED)
        for dens in curves.values():
            assert abs(np.trapezoid(dens, grid) - 1.0) < 1e-9

    def test_low_noise_posterior_sits_on_the_observation(self):
        world = self._world()
        x0 = 4.0
        grid = np.linspace(-15, 15, 3001)
        curves = posterior_curves(world, 1, x0, [1], grid, SCHED)
        mean, var = grid_moments(grid, curves[1])
        assert abs(mean - x0) < 0.02
        assert var < 1e-3

    def test_posterior_mean_drifts_toward_prior_with_noise(self):
        world = self._world()
        prior_mean = float(world.native.means[2, 0, 0])
        x0 = prior_mean + 6.0
        grid = np.linspace(prior_mean - 12, prior_mean + 12, 3001)
        curves = posterior_curves(world, 2, x0, [1, 33, 66, 100], grid, SCHED)
        dists = [abs(grid_moments(grid, curves[t])[0] - prior_mean) for t in (1, 33, 66, 100)]
        variances = [grid_moments(grid, curves[t])[1] for t in (1, 33, 66, 100)]
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert all(a < b for a, b in zip(variances, variances[1:]))

    def test_writes_curve_files(self, tmp_path):
        world = self._world()
        grid = np.linspace(-10, 10, 1001)
        posterior_curves(world, 0, 2.0, [1, 40], grid, SCHED, out_dir=str(tmp_path))
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "likelihood_t001.csv", "likelihood_t040.csv",
            "posterior_t001.csv", "posterior_t040.csv", "prior.csv",
        ]
        lines = (tmp_path / "prior.csv").read_text().splitlines()
        assert lines[0] == "x,density"
        assert len(lines) == 1002
        x, y = lines[1].split(",")
        assert float(x) == -10.0 and float(y) >= 0.0

    @pytest.mark.parametrize("block", [1, 7, 1001, 2 ** 16])
    def test_blocked_write_gives_the_bytes_of_one_line_at_a_time(self, block, tmp_path,
                                                                   monkeypatch):
        """Each file is formatted in blocks of ``CSV_BLOCK_LINES`` lines, and
        holds the bytes of one ``{:.17g}`` f-string per line."""
        world = self._world()
        grid = np.linspace(-10, 10, 1001)
        monkeypatch.setattr(harness_mod, "CSV_BLOCK_LINES", block)
        curves = posterior_curves(world, 0, 2.0, [1, 40], grid, SCHED, out_dir=str(tmp_path))
        dens = curves[40]
        want = "x,density\n" + "".join(f"{x:.17g},{y:.17g}\n" for x, y in zip(grid, dens))
        assert (tmp_path / "posterior_t040.csv").read_text() == want

    def test_start_step_range_checked(self):
        world = self._world()
        with pytest.raises(ValueError):
            posterior_curves(world, 0, 1.0, [0], np.linspace(-8, 8, 101), SCHED)


class TestWorldIO:
    def test_round_trip_preserves_everything(self, tmp_path):
        world = gen_world(_small_spec(seed=27))
        path = str(tmp_path / "world.json")
        save_world(world, path)
        loaded = load_world(path)
        assert loaded.spec == world.spec
        assert loaded.attempts == world.attempts
        assert np.array_equal(loaded.native.means, world.native.means)
        assert np.array_equal(loaded.native.weights, world.native.weights)
        assert np.array_equal(loaded.l2.variances, world.l2.variances)
        assert np.array_equal(loaded.codebook.entries, world.codebook.entries)
        assert np.array_equal(loaded.standardizer.std, world.standardizer.std)

    def test_loaded_world_converts_identically(self, tmp_path):
        world = gen_world(_small_spec(seed=28))
        path = str(tmp_path / "world.json")
        save_world(world, path)
        loaded = load_world(path)
        seq = gen_dataset(world, "l2", 1, 15, substream(6, PURPOSE_DATA))[0]
        [out_a] = convert_sequences([seq], build_context(world, SCHED, None), 50, 0)
        [out_b] = convert_sequences([seq], build_context(loaded, SCHED, None), 50, 0)
        assert np.array_equal(out_a.frames, out_b.frames)

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "SOMETHING-ELSE v1"}\n')
        with pytest.raises(ValueError, match="not a world file"):
            load_world(str(path))

    @pytest.mark.parametrize("seed", [3, 11, 21])
    def test_file_holds_the_bytes_json_dump_writes(self, tmp_path, seed):
        """The world file is encoded by ``json.dumps`` (the C encoder); it
        holds the bytes the pure-Python ``json.dump`` writes for the same
        document."""
        world = gen_world(WorldSpec(seed=seed))
        path = tmp_path / "world.json"
        save_world(world, str(path))
        doc = {"format": harness_mod.WORLD_MAGIC,
               **{name: to_json(world) for name, to_json, _ in harness_mod._WORLD_FIELDS}}
        want = io.StringIO()
        json.dump(doc, want, sort_keys=True)
        want.write("\n")
        assert path.read_bytes() == want.getvalue().encode("utf-8")

    def test_reruns_write_identical_bytes(self, tmp_path):
        world = gen_world(_small_spec(seed=29))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_world(world, str(p1))
        save_world(world, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    @given(spec=_WORLD_SPECS, seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_world_round_trips_bytes(self, spec, seed):
        with tempfile.TemporaryDirectory() as tmp:
            p1, p2 = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
            save_world(_random_world(spec, seed), p1)
            save_world(load_world(p1), p2)
            with open(p1, "rb") as f1, open(p2, "rb") as f2:
                assert f1.read() == f2.read()

    @given(spec=_WORLD_SPECS, seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_corrupted_token_fails_naming_the_file(self, spec, seed, data):
        """Any one number replaced by a non-number or a non-finite value fails
        at load with one line that starts with the path."""
        bad = st.one_of(
            st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
            .filter(lambda t: t not in ("true", "false", "null")),
            st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999"]),
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "world.json")
            save_world(_random_world(spec, seed), path)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            m = data.draw(st.sampled_from(list(_JSON_NUMBER.finditer(text))))
            # An integer past float range is a legal spec seed or attempt
            # count, so only the array values take one.
            if text.count("[", 0, m.start()) > text.count("]", 0, m.start()):
                bad = st.one_of(bad, st.just("1" + "0" * 400))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text[:m.start()] + data.draw(bad) + text[m.end():])
            with pytest.raises(ValueError) as info:
                load_world(path)
        message = str(info.value)
        assert message.startswith(f"{path}: ") and "\n" not in message
