"""Frame containers, standardization, codebook snapping, IO."""
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from priorshift import latent as latent_mod
from priorshift.latent import (
    SNAP_BLOCK_VALUES,
    Codebook,
    LatentSequence,
    Standardizer,
    destandardize_frames,
    fit_standardizer,
    load_dataset,
    save_dataset,
    snap_frames,
    standardize_frames,
)


def _seq(rng, n=10, d=3, with_tracks=False, seq_id="s"):
    frames = rng.normal(0, 2, (n, d))
    kw = {}
    if with_tracks:
        kw = dict(zc2=rng.normal(0, 0.3, (n, d)), h=rng.normal(0, 2, (n, d)))
    return LatentSequence(
        id=seq_id, labels=rng.integers(0, 4, n), frames=frames, **kw
    )


_DATASETS = st.fixed_dictionaries({
    "dim": st.integers(1, 3),
    "n_labels": st.integers(1, 5),
    "lengths": st.lists(st.integers(1, 5), min_size=1, max_size=4),
    "with_tracks": st.booleans(),
    "scale": st.sampled_from([1e-300, 1e-5, 1.0, 1e5, 1e300]),
})
# A number in a dataset file: what follows "=", a tab, "," or "|".
_DATASET_NUMBER = re.compile(r"(?<=[=\t,|])[^=\t,|\n ]+")


def _random_dataset(shape: dict, seed: int) -> list[LatentSequence]:
    rng = np.random.default_rng(seed)

    def track(n):
        return shape["scale"] * rng.standard_normal((n, shape["dim"]))

    return [LatentSequence(id=f"u{i}", labels=rng.integers(0, shape["n_labels"], n),
                           frames=track(n), **({"zc2": track(n), "h": track(n)}
                                               if shape["with_tracks"] else {}))
            for i, n in enumerate(shape["lengths"])]


class TestLatentSequence:
    def test_rejects_misaligned_tracks(self):
        with pytest.raises(ValueError):
            LatentSequence(id="x", labels=np.zeros(3, dtype=int), frames=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            LatentSequence(id="x", labels=np.zeros(2, dtype=int), frames=np.zeros((2, 2)),
                           zc2=np.zeros((3, 2)), h=np.zeros((2, 2)))

    def test_rejects_non_finite_frames(self):
        frames = np.zeros((2, 2))
        frames[1, 0] = np.nan
        with pytest.raises(ValueError):
            LatentSequence(id="x", labels=np.zeros(2, dtype=int), frames=frames)

    def test_len_and_dim(self):
        seq = _seq(np.random.default_rng(0), n=7, d=4)
        assert len(seq) == 7
        assert seq.dim == 4


class TestStandardizer:
    def test_two_point_fit(self):
        seq = LatentSequence(id="a", labels=np.zeros(2, dtype=int),
                             frames=np.array([[0.0], [2.0]]))
        s = fit_standardizer([seq])
        # population convention: variance divides by the frame count
        assert s.mean[0] == 1.0
        assert s.std[0] == 1.0

    def test_sample_statistics(self):
        rng = np.random.default_rng(7)
        frames = rng.normal(3.0, 2.0, size=(1000, 1))
        seq = LatentSequence(id="a", labels=np.zeros(1000, dtype=int), frames=frames)
        s = fit_standardizer([seq])
        se_mean = 2.0 / np.sqrt(1000)
        se_std = 2.0 / np.sqrt(2 * 1000)
        assert abs(s.mean[0] - 3.0) < 3 * se_mean
        assert abs(s.std[0] - 2.0) < 3 * se_std

    def test_constant_dimension_rejected_by_index(self):
        frames = np.column_stack([np.arange(4.0), np.full(4, 5.0)])
        seq = LatentSequence(id="a", labels=np.zeros(4, dtype=int), frames=frames)
        with pytest.raises(ValueError, match="dimension 1"):
            fit_standardizer([seq])

    def test_standardized_output_is_centered_and_unit(self):
        rng = np.random.default_rng(3)
        seq = _seq(rng, n=500, d=3)
        s = fit_standardizer([seq])
        z = standardize_frames(seq.frames, s)
        assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        assert_allclose(z.std(axis=0), 1.0, rtol=1e-12)

    def test_dim_mismatch(self):
        s = Standardizer(mean=np.zeros(2), std=np.ones(2))
        with pytest.raises(ValueError):
            standardize_frames(np.zeros((3, 5)), s)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            Standardizer(mean=np.zeros(2), std=np.array([1.0, 0.0]))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        frames = rng.normal(0, 3, (20, 4))
        s = Standardizer(mean=rng.normal(0, 2, 4), std=rng.uniform(0.1, 5, 4))
        back = destandardize_frames(standardize_frames(frames, s), s)
        assert np.abs(back - frames).max() <= 1e-12 * max(1.0, np.abs(frames).max())


class TestCodebook:
    def test_snap_picks_nearest(self):
        cb = Codebook(entries=np.array([[0.0, 0.0], [10.0, 0.0]]))
        idx, vec = snap_frames(np.array([[1.0, 1.0]]), cb)
        assert_array_equal(idx, [0])
        assert_array_equal(vec, [[0.0, 0.0]])

    def test_tie_takes_lowest_index(self):
        cb = Codebook(entries=np.array([[1.0], [-1.0]]))
        idx, _ = snap_frames(np.array([[0.0]]), cb)
        assert_array_equal(idx, [0])

    def test_matches_bruteforce_scan(self):
        rng = np.random.default_rng(11)
        cb = Codebook(entries=rng.normal(0, 2, (32, 5)))
        frames = rng.normal(0, 2, (200, 5))
        idx, snapped = snap_frames(frames, cb)
        for i in range(frames.shape[0]):
            best, bestd = -1, np.inf
            for j in range(len(cb)):
                dist = float(((frames[i] - cb.entries[j]) ** 2).sum())
                if dist < bestd:
                    best, bestd = j, dist
            assert idx[i] == best
            assert_array_equal(snapped[i], cb.entries[best])

    def test_entries_are_fixed_points(self):
        rng = np.random.default_rng(12)
        cb = Codebook(entries=rng.normal(0, 1, (16, 3)))
        idx, snapped = snap_frames(cb.entries, cb)
        assert_array_equal(idx, np.arange(16))
        assert_array_equal(snapped, cb.entries)

    def test_dim_mismatch(self):
        cb = Codebook(entries=np.zeros((4, 3)))
        with pytest.raises(ValueError):
            snap_frames(np.zeros((1, 2)), cb)


def _snap_one_block(frames, cb):
    """Reference snap: one (n, M, d) block over every row."""
    with np.errstate(over="ignore"):
        diff = frames[:, None, :] - cb.entries[None, :, :]
        idx = (diff * diff).sum(axis=2).argmin(axis=1)
    return idx, cb.entries[idx]


def _spy_recheck(monkeypatch):
    """Record the rows ``snap_frames`` sends to its direct-form recheck."""
    seen = []
    direct = latent_mod._snap_direct

    def spy(frames, entries):
        seen.append(frames.copy())
        return direct(frames, entries)

    monkeypatch.setattr(latent_mod, "_snap_direct", spy)
    return seen


def _tie_frames(rng, entries, n):
    """Rows whose nearest entries are exactly tied: ``entries[40]`` is a copy
    of ``entries[10]`` and every row lies within 1e-3 of it."""
    entries[40] = entries[10]
    return entries[10] + rng.uniform(-1e-3, 1e-3, (n, entries.shape[1]))


class TestBlockedSnap:
    """``snap_frames`` works through rows in blocks of at most
    ``SNAP_BLOCK_VALUES`` values, (rows, M) in the screen and (rows, M, d) in
    the recheck; per row it is the one-block snap."""

    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 5)],
                             ids=["1", "block-1", "block", "block+1", "3block+5"])
    def test_bitwise_equal_to_one_block(self, blocks, extra):
        rng = np.random.default_rng(41)
        cb = Codebook(entries=rng.normal(0, 1, (64, 8)))
        n = blocks * (SNAP_BLOCK_VALUES // cb.entries.size) + extra
        frames = rng.normal(0, 1.2, (n, 8))
        idx, snapped = snap_frames(frames, cb)
        want_idx, want = _snap_one_block(frames, cb)
        assert_array_equal(idx, want_idx)
        assert snapped.tobytes() == want.tobytes()

    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 5)],
                             ids=["1", "block-1", "block", "block+1", "3block+5"])
    def test_screen_blocks_bitwise_equal_to_one_block(self, blocks, extra, monkeypatch):
        """Row counts around the screen's blocks of ``SNAP_BLOCK_VALUES // M``
        rows; no row of a tie-free block is rechecked."""
        rng = np.random.default_rng(45)
        cb = Codebook(entries=rng.normal(0, 1, (64, 8)))
        n = blocks * (SNAP_BLOCK_VALUES // len(cb)) + extra
        frames = rng.normal(0, 1.2, (n, 8))
        seen = _spy_recheck(monkeypatch)
        idx, snapped = snap_frames(frames, cb)
        want_idx, want = _snap_one_block(frames, cb)
        assert_array_equal(idx, want_idx)
        assert snapped.tobytes() == want.tobytes()
        assert seen == []

    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 5)],
                             ids=["1", "block-1", "block", "block+1", "3block+5"])
    def test_recheck_blocks_bitwise_equal_to_one_block(self, blocks, extra, monkeypatch):
        """Tied rows, in counts around the recheck's blocks of
        ``SNAP_BLOCK_VALUES // (M * d)`` rows, all go through the recheck."""
        rng = np.random.default_rng(46)
        entries = rng.normal(0, 1, (64, 8))
        n = blocks * (SNAP_BLOCK_VALUES // entries.size) + extra
        frames = _tie_frames(rng, entries, n)
        cb = Codebook(entries=entries)
        seen = _spy_recheck(monkeypatch)
        idx, snapped = snap_frames(frames, cb)
        want_idx, want = _snap_one_block(frames, cb)
        assert_array_equal(idx, want_idx)
        assert (idx == 10).all()
        assert snapped.tobytes() == want.tobytes()
        assert len(seen) == 1 and seen[0].tobytes() == frames.tobytes()

    def test_codebook_above_the_budget_snaps_one_row_per_block(self):
        rng = np.random.default_rng(42)
        cb = Codebook(entries=rng.normal(0, 1, ((SNAP_BLOCK_VALUES >> 1) + 1, 2)))
        assert SNAP_BLOCK_VALUES // cb.entries.size == 0
        frames = rng.normal(0, 1, (5, 2))
        idx, snapped = snap_frames(frames, cb)
        want_idx, want = _snap_one_block(frames, cb)
        assert_array_equal(idx, want_idx)
        assert snapped.tobytes() == want.tobytes()

    def test_ties_take_the_first_entry_in_every_block(self):
        rng = np.random.default_rng(43)
        entries = rng.normal(0, 1, (64, 8))
        entries[40] = entries[10]
        cb = Codebook(entries=entries)
        n = 3 * (SNAP_BLOCK_VALUES // cb.entries.size) + 5
        idx, _ = snap_frames(np.tile(entries[40], (n, 1)), cb)
        assert (idx == 10).all()

    def test_codebook_above_the_screen_budget_screens_one_row_per_block(self):
        rng = np.random.default_rng(47)
        cb = Codebook(entries=rng.normal(0, 1, (SNAP_BLOCK_VALUES + 1, 1)))
        assert SNAP_BLOCK_VALUES // len(cb) == 0
        frames = np.concatenate([rng.normal(0, 1, (4, 1)), cb.entries[[7]]])
        idx, snapped = snap_frames(frames, cb)
        want_idx, want = _snap_one_block(frames, cb)
        assert_array_equal(idx, want_idx)
        assert snapped.tobytes() == want.tobytes()

    def test_peak_memory_is_bounded(self):
        """8,192 rows against 64 entries of dim 8: a one-block snap peaks at
        68 MB (the difference block and its square); row blocks keep it
        under 2 MB, of which the returned frames are 0.5 MB."""
        rng = np.random.default_rng(44)
        cb = Codebook(entries=rng.normal(0, 1, (64, 8)))
        frames = rng.normal(0, 1, (8192, 8))
        tracemalloc.start()
        try:
            snap_frames(frames, cb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20


_SNAP_CASES = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 32 - 1),
    "d": st.integers(1, 16),
    "m": st.integers(1, 300),
    "n": st.integers(1, 120),
    "scale_exp": st.integers(-160, 160),
    "dyadic": st.booleans(),
    "duplicates": st.integers(0, 3),
})


class TestSnapScreen:
    """The screen accepts a row only when the margin proves its argmin is the
    direct form's; every other row is rechecked in the direct form."""

    @given(_SNAP_CASES)
    @settings(max_examples=150, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_bitwise_equal_to_one_block(self, case):
        """Random, on-entry, midpoint and subnormal-offset rows against
        codebooks with duplicate entries, at scales from squares that
        underflow to ones that overflow (where the direct form warns)."""
        rng = np.random.default_rng(case["seed"])
        d, m, n = case["d"], case["m"], case["n"]
        entries = rng.normal(0, 1, (m, d))
        if case["dyadic"]:
            entries = np.round(entries * 4) / 4
        for _ in range(case["duplicates"]):
            entries[rng.integers(m)] = entries[rng.integers(m)]
        entries *= 10.0 ** case["scale_exp"]
        a, b = rng.integers(m, size=(2, n))
        offsets = rng.integers(-3, 4, (n, d)) * np.nextafter(0.0, 1.0)
        kind = rng.integers(5, size=n)[:, None]
        frames = np.select(
            [kind == 0, kind == 1, kind == 2, kind == 3],
            [rng.normal(0, 1.5, (n, d)) * 10.0 ** case["scale_exp"], entries[a],
             (entries[a] + entries[b]) / 2, entries[a] + offsets],
            offsets,
        )
        cb = Codebook(entries=entries)
        idx, snapped = snap_frames(frames, cb)
        want_idx, want = _snap_one_block(frames, cb)
        assert_array_equal(idx, want_idx)
        assert snapped.tobytes() == want.tobytes()

    def test_only_exact_ties_reach_the_recheck(self, monkeypatch):
        """On the integer grid {0..3}^3, rows within 0.4 of a grid point per
        coordinate are tie-free and the screen settles them; rows halfway
        between two or four grid points are exact ties and all go to the
        recheck, which gives them the first of the tied entries."""
        rng = np.random.default_rng(48)
        grid = np.stack(np.meshgrid(*[np.arange(4.0)] * 3, indexing="ij"), -1).reshape(-1, 3)
        base = grid[rng.integers(0, len(grid), 300)]
        half = np.zeros((300, 3))
        half[np.arange(300), rng.integers(0, 3, 300)] = 0.5
        half[::3, 2] = 0.5
        tied = rng.random(300) < 0.3
        frames = np.where(tied[:, None], np.minimum(base, 2.0) + half,
                          base + rng.uniform(-0.4, 0.4, (300, 3)))
        seen = _spy_recheck(monkeypatch)
        idx, snapped = snap_frames(frames, Codebook(entries=grid))
        want_idx, want = _snap_one_block(frames, Codebook(entries=grid))
        assert len(seen) == 1 and seen[0].tobytes() == frames[tied].tobytes()
        assert_array_equal(idx, want_idx)
        assert snapped.tobytes() == want.tobytes()

    def test_non_finite_rows_take_the_direct_form(self, monkeypatch):
        rng = np.random.default_rng(49)
        cb = Codebook(entries=rng.normal(0, 1, (16, 3)))
        frames = rng.normal(0, 1, (6, 3))
        frames[1, 0] = np.nan
        frames[3, 2] = np.inf
        frames[4] = -np.inf
        seen = _spy_recheck(monkeypatch)
        idx, snapped = snap_frames(frames, cb)
        want_idx, want = _snap_one_block(frames, cb)
        assert_array_equal(idx, want_idx)
        assert snapped.tobytes() == want.tobytes()
        assert seen[0].tobytes() == frames[[1, 3, 4]].tobytes()


class TestDatasetIO:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        seqs = [_seq(rng, n=int(rng.integers(1, 8)), d=3, with_tracks=True,
                     seq_id=f"u{i}") for i in range(5)]
        path = tmp_path / "data.tsv"
        save_dataset(seqs, str(path), n_labels=4)
        loaded, dim, n_labels = load_dataset(str(path))
        assert (dim, n_labels) == (3, 4)
        assert [s.id for s in loaded] == [s.id for s in seqs]
        for a, b in zip(seqs, loaded):
            assert_array_equal(a.labels, b.labels)
            assert_array_equal(a.frames, b.frames)
            assert_array_equal(a.zc2, b.zc2)
            assert_array_equal(a.h, b.h)

    def test_round_trip_without_aux_tracks(self, tmp_path):
        rng = np.random.default_rng(22)
        seqs = [_seq(rng, seq_id="only")]
        path = tmp_path / "data.tsv"
        save_dataset(seqs, str(path), n_labels=4)
        loaded, _, _ = load_dataset(str(path))
        assert loaded[0].zc2 is None and loaded[0].h is None
        assert_array_equal(loaded[0].frames, seqs[0].frames)

    def test_failed_write_leaves_no_file(self, tmp_path):
        """A sequence rejected after earlier ones were written fails the whole
        write: nothing lands at the target and no temp file is left beside it."""
        rng = np.random.default_rng(24)
        path = tmp_path / "data.tsv"
        bad = [("bad", 2, "'bad' dim 2")] + [
            (i, 3, re.escape(f"{i!r} id holds a tab or line break")) for i in ("a\tb", "a\nb", "a\rb")
        ]
        for seq_id, d, match in bad:
            seqs = [_seq(rng, d=3, seq_id="ok"), _seq(rng, d=d, seq_id=seq_id)]
            with pytest.raises(ValueError, match=match):
                save_dataset(seqs, str(path), n_labels=4)
            assert not path.exists()
            assert list(tmp_path.iterdir()) == []

    def test_header_line(self, tmp_path):
        rng = np.random.default_rng(23)
        path = tmp_path / "data.tsv"
        save_dataset([_seq(rng, d=6)], str(path), n_labels=9)
        assert path.read_text().splitlines()[0] == "#dim=6 labels=9"

    def test_label_out_of_vocabulary_rejected(self, tmp_path):
        rng = np.random.default_rng(24)
        with pytest.raises(ValueError):
            save_dataset([_seq(rng)], str(tmp_path / "x.tsv"), n_labels=2)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("dim=3 labels=2\nfoo\t0\t1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            load_dataset(str(path))

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("#dim=1 labels=2\nid\t0\n")
        with pytest.raises(ValueError, match=":2"):
            load_dataset(str(path))

    @pytest.mark.parametrize("text, where", [
        ("#dim=four labels=2\nid\t0\t1\n", ":1: #dim: invalid literal"),
        ("#dim=1 labels=many\nid\t0\t1\n", ":1: labels=: invalid literal"),
        ("#dim=1 labels=2\nok\t0\t1\nid\tx\t1\n", ":3: labels: invalid literal"),
        ("#dim=1 labels=2\nid\t0,1\t1|abc\n", ":2: latent track: could not convert"),
        ("#dim=1 labels=2\nid\t0\t1,2\n", ":2: latent track: frame has 2 dims"),
        ("#dim=1 labels=2\nid\t0\t1\tzz\t1\n", ":2: zc2 track: could not convert"),
        ("#dim=1 labels=2\nid\t0\t1\t0\t\n", ":2: h track: could not convert"),
        ("#dim=1 labels=2\nid\t0\tnan\n", ":2: sequence: sequence 'id' has non-finite"),
        ("#dim=1 labels=2\nok\t0\t1\t0\t1\nid\t0\t1\tinf\t1\n",
         ":3: sequence: sequence 'id' has non-finite zc2"),
        ("#dim=1 labels=2\nid\t0,1\t1|2\t0|0\t1|nan\n",
         ":2: sequence: sequence 'id' has non-finite h"),
    ], ids=["dim", "n-labels", "label", "frame", "frame-width", "zc2", "h", "non-finite",
            "non-finite-zc2", "non-finite-h"])
    def test_malformed_value_names_line_and_field(self, tmp_path, text, where):
        path = tmp_path / "bad.tsv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_dataset(str(path))
        assert str(info.value).startswith(f"{path}{where}")

    @given(shape=_DATASETS, seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_dataset_round_trips_bytes(self, shape, seed):
        with tempfile.TemporaryDirectory() as tmp:
            p1, p2 = os.path.join(tmp, "a.tsv"), os.path.join(tmp, "b.tsv")
            save_dataset(_random_dataset(shape, seed), p1, shape["n_labels"])
            seqs, dim, n_labels = load_dataset(p1)
            assert (dim, n_labels) == (shape["dim"], shape["n_labels"])
            save_dataset(seqs, p2, n_labels)
            with open(p1, "rb") as f1, open(p2, "rb") as f2:
                assert f1.read() == f2.read()

    @given(shape=_DATASETS, seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_corrupted_token_fails_naming_the_file(self, shape, seed, data):
        """Any one header value, label or track value replaced by a non-number
        or a non-finite value, or a header value or label by a negative number,
        fails at load with one line that starts with the path."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.tsv")
            save_dataset(_random_dataset(shape, seed), path, shape["n_labels"])
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            m = data.draw(st.sampled_from(list(_DATASET_NUMBER.finditer(text))))
            line_start = text.rfind("\n", 0, m.start()) + 1
            # A negative number is a legal track value, so only the header and
            # the labels (the first and second field) take one.
            integer = line_start == 0 or text.count("\t", line_start, m.start()) == 1
            bad = [st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8),
                   st.sampled_from(["nan", "inf", "-inf", "1e999"])]
            if integer:
                bad.append(st.integers(-10 ** 6, -1).map(str))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text[:m.start()] + data.draw(st.one_of(bad)) + text[m.end():])
            with pytest.raises(ValueError) as info:
                load_dataset(path)
        message = str(info.value)
        assert message.startswith(f"{path}:") and "\n" not in message
