"""Latent frame sequences and the operations that shape them.

Covers per-dimension standardization, nearest-entry codebook quantization,
and the line-delimited dataset format used to move sequences between
commands, with the value checks that the file and settings readers share.
"""
from __future__ import annotations

import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class LatentSequence:
    """One utterance-like unit: aligned labels and latent frames.

    ``zc2`` (quantization residual targets) and ``h`` (encoder features)
    are optional aligned tracks carried by training data; converted output
    drops them.  The labels are stored as the array they are checked as,
    and each track as a float64 array.
    """

    id: str
    labels: np.ndarray
    frames: np.ndarray
    zc2: np.ndarray | None = None
    h: np.ndarray | None = None

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels)
        frames = np.asarray(self.frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[0] < 1:
            raise ValueError(f"frames must be (n, d) with n >= 1, got shape {frames.shape}")
        if labels.shape != (frames.shape[0],):
            raise ValueError(
                f"labels shape {labels.shape} does not match {frames.shape[0]} frames"
            )
        object.__setattr__(self, "labels", labels)
        for name in ("frames", "zc2", "h"):
            if getattr(self, name) is None:
                continue
            track = np.asarray(getattr(self, name), dtype=np.float64)
            if track.shape != frames.shape:
                raise ValueError(f"{name} track shape does not match frames")
            if not np.isfinite(track).all():
                raise ValueError(f"sequence {self.id!r} has non-finite {name}")
            object.__setattr__(self, name, track)

    def __len__(self) -> int:
        return int(self.frames.shape[0])

    @property
    def dim(self) -> int:
        return int(self.frames.shape[1])


@dataclass(frozen=True)
class Standardizer:
    """Per-dimension affine map to zero mean, unit scale; both stored as the
    float64 arrays they are checked as."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64)
        std = np.asarray(self.std, dtype=np.float64)
        if mean.ndim != 1 or mean.shape != std.shape:
            raise ValueError("mean and std must be matching 1-D arrays")
        if not (std > 0).all():
            raise ValueError("standardizer scale must be strictly positive")
        if not (np.isfinite(mean).all() and np.isfinite(std).all()):
            raise ValueError("standardizer mean and scale must be finite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)


@dataclass(frozen=True)
class Codebook:
    """(M, d) quantization entries, stored as the float64 array checked."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.entries, dtype=np.float64)
        if e.ndim != 2 or e.shape[0] < 1:
            raise ValueError(f"codebook must be (M, d) with M >= 1, got shape {e.shape}")
        if not np.isfinite(e).all():
            raise ValueError("codebook entries must be finite")
        object.__setattr__(self, "entries", e)

    def __len__(self) -> int:
        return int(self.entries.shape[0])

    @property
    def dim(self) -> int:
        return int(self.entries.shape[1])


def fit_standardizer(frames) -> Standardizer:
    """Population mean and scale per dimension of an (n, d) block of at least
    2 frames.  A dimension whose frames are all equal is refused; its variance
    alone would not show it, as rounding in the mean can leave a tiny non-zero one."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] < 2:
        raise ValueError(f"need an (n, d) block of at least 2 frames, got shape {frames.shape}")
    dead = np.flatnonzero(frames.min(axis=0) == frames.max(axis=0))
    if dead.size:
        raise ValueError(f"all frames equal in dimension {int(dead[0])}")
    return Standardizer(mean=frames.mean(axis=0), std=frames.std(axis=0))


def check_labels(labels, n_labels: int) -> np.ndarray:
    """``labels`` as an array; one outside [0, ``n_labels``) fails as
    ``labels outside [0, K)``."""
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= n_labels):
        raise ValueError(f"labels outside [0, {n_labels})")
    return labels


def frame_block(frames, dim: int, owner: str) -> np.ndarray:
    """``frames`` as an (n, ``dim``) float64 array; another shape fails as
    ``frames shape ... does not match <owner> dim <dim>``."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != dim:
        raise ValueError(f"frames shape {frames.shape} does not match {owner} dim {dim}")
    return frames


def standardize_frames(frames: np.ndarray, s: Standardizer) -> np.ndarray:
    return (frame_block(frames, s.mean.shape[0], "standardizer") - s.mean) / s.std


def destandardize_frames(frames: np.ndarray, s: Standardizer) -> np.ndarray:
    return frame_block(frames, s.mean.shape[0], "standardizer") * s.std + s.mean


# Most values in one block of a kernel that walks rows (or steps) in
# blocks: the snap's (rows, M) screen and (rows, M, d) recheck (512 and 64
# rows at M=64, d=8), and the prior's noised tables, exact noise prediction
# and log joint.  Temporaries of 2^15 float64 values (256 KB) stay in cache,
# and a kernel's memory stays bounded for any frame count.  A block holds
# BLOCK_VALUES // (values per row) rows, at least one.
BLOCK_VALUES = 1 << 15

# The rounding margin of snap_frames' screen.  Let u = 2^-53, eta = 2^-1074 (the smallest
# subnormal) and gamma_k = k·u/(1 - k·u).  For a row x and entry c_j, the
# direct form sum_k fl(x_k - c_j,k)^2 is within gamma_{d+2}·D_j + d·eta of
# the true squared distance D_j (every term is >= 0; eta bounds each
# square's underflow).  The screen g_j = fl(|c_j|^2 - 2 fl(x·c_j)) is within
# gamma_{d+1}·S + 3d·eta of |x - c_j|^2 - |x|^2, with S = (|x| + max|c|)^2,
# whatever order or fused multiply-adds the GEMM uses; and D_j <= S.  So if
# every other entry has g_j > g_j' + tau with tau >= 4·gamma_{d+2}·S +
# 8d·eta, the direct values are strictly ordered the same way: the direct
# argmin is j', with no tie.  tau = k·(u·S + eta) with k = 64(d+3) leaves a
# factor of about 16 for the rounding of S, tau and g_j' + tau.  k·S is
# formed before the product with u, so tau is inf wherever S exceeds the
# largest double over k, and no row whose screen or direct values could
# overflow is accepted.


def _snap_direct(frames: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Nearest-entry indices from the squared differences themselves, in
    row blocks of ``BLOCK_VALUES`` values; each row's distances and
    argmin (ties to the first entry) are the same whatever the block."""
    rows = max(1, BLOCK_VALUES // entries.size)
    idx = np.empty(frames.shape[0], dtype=np.intp)
    for lo in range(0, frames.shape[0], rows):
        diff = frames[lo:lo + rows, None, :] - entries[None, :, :]
        idx[lo:lo + rows] = np.multiply(diff, diff, out=diff).sum(axis=2).argmin(axis=1)
        del diff  # freed before the next block is built
    return idx


def snap_frames(frames: np.ndarray, cb: Codebook) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-entry snap of an (n, d) block; returns (indices, snapped
    frames), bitwise those of the direct form ``argmin_j sum_k (x_k -
    c_jk)^2`` with ties to the first entry.

    Rows go through in blocks of ``BLOCK_VALUES`` screen values.  The
    screen ranks the entries by |c|^2 - 2x·c, one matrix product per block,
    and accepts its argmin when every other entry ranks above it by more
    than a proven rounding margin.  Every other row (a near or exact tie, a
    non-finite frame, a scale that could overflow) is recomputed in the
    direct form."""
    frames = frame_block(frames, cb.dim, "codebook")
    entries = cb.entries
    m, d = entries.shape
    k = 64.0 * (d + 3)
    rows = max(1, BLOCK_VALUES // m)
    idx = np.empty(frames.shape[0], dtype=np.intp)
    recheck = np.zeros(frames.shape[0], dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # tau is then inf or nan: rechecked
        norms2 = np.einsum("jk,jk->j", entries, entries)
        reach = np.sqrt(norms2.max())
        for lo in range(0, frames.shape[0], rows):
            x = frames[lo:lo + rows]
            g = x @ entries.T
            g *= -2.0
            g += norms2
            best = g.argmin(axis=1)
            s = np.sqrt(np.einsum("ik,ik->i", x, x)) + reach
            tau = k * (s * s) * 2.0 ** -53 + k * 2.0 ** -1074
            bound = g[np.arange(best.size), best] + tau
            recheck[lo:lo + rows] = np.count_nonzero(g <= bound[:, None], axis=1) != 1
            idx[lo:lo + rows] = best
    redo = np.flatnonzero(recheck)
    if redo.size:
        idx[redo] = _snap_direct(frames[redo], entries)
    return idx, entries[idx]


# Dataset file format: one sequence per line, tab-separated fields
#   id, comma-joined labels, frame track, then optional zc2 and h tracks.
# Frame tracks join dimensions with "," and frames with "|".  A leading
# header line "#dim=<d> labels=<K>" pins the frame dimension and the label
# vocabulary size.  Floats are written with 17 significant digits, which
# round-trips float64 exactly.  _TRACKS lists the tracks in field order as
# (LatentSequence field, name in errors); save_dataset and load_dataset
# both walk it.
_TRACKS = (("frames", "latent track"), ("zc2", "zc2 track"), ("h", "h track"))


def _encode_track(track: np.ndarray) -> str:
    n, d = np.shape(track)
    return "|".join([",".join(["%.17g"] * d)] * n) % tuple(np.ravel(track).tolist())


def _decode_track(text: str, dim: int) -> np.ndarray:
    """``|``-separated frames of ``dim`` comma-separated values, parsed by one
    numpy str-to-float64 cast, which accepts and rejects what ``float()``
    does, with its message."""
    frames = text.split("|")
    for frame in frames:
        if frame.count(",") + 1 != dim:
            raise ValueError(f"frame has {frame.count(',') + 1} dims, header says {dim}")
    values = text.replace("|", ",").split(",")
    return np.array(values, dtype=np.float64).reshape(len(frames), dim)


def _decode_labels(text: str, n_labels: int) -> np.ndarray:
    return check_labels(np.array([int(v) for v in text.split(",")], dtype=np.int64), n_labels)


def parse_field(where: str, field: str, parse, *args):
    """``parse(*args)``; a conversion that raises ``ValueError``, ``TypeError``
    or ``OverflowError`` fails as ``<where>: <field>: <why>``."""
    try:
        return parse(*args)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValueError(f"{where}: {field}: {exc}") from None


# A settings field's annotation string -> (what it must hold, the test of a value).
_FIELD_TYPES = {
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a finite number", lambda v: (type(v) is int or isinstance(v, float))
              and abs(v) <= sys.float_info.max),
    "tuple[int, ...]": ("a tuple of integers",
                        lambda v: type(v) is tuple and all(type(w) is int for w in v)),
}


def check_field_types(settings) -> None:
    """Check each field of a settings dataclass against its annotation; a
    mismatch fails as ``<field>: must be <kind>, got <value>``."""
    for f in fields(settings):
        kind, ok = _FIELD_TYPES[f.type]
        if not ok(value := getattr(settings, f.name)):
            raise ValueError(f"{f.name}: must be {kind}, got {value!r}")


def check_field_ranges(settings, rules) -> None:
    """Check a settings dataclass against ``rules``, rows of (field, whether
    its value is in range, what it must be); the first failing row fails as
    ``<field>: must be <what>, got <value>``."""
    for name, ok, want in rules:
        if not ok:
            got = getattr(settings, name)
            got = list(got) if isinstance(got, tuple) else got
            raise ValueError(f"{name}: must be {want}, got {got}")


def settings_from_json(cls, doc):
    """A settings dataclass ``cls`` from a JSON object of field values, lists
    read as tuples; a field the object leaves out keeps its default."""
    if not isinstance(doc, dict):
        raise ValueError(f"must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown keys: {', '.join(unknown)}")
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()})


@contextmanager
def atomic_write(path: str):
    """Text handle on a new temp file beside ``path``, moved onto ``path`` only
    when the block completes; on failure the temp file is removed, so a
    crash never leaves a partial file at ``path``."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(8).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8")
    except OSError as exc:  # named as the path asked for, not the temp file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_dataset(seqs: Sequence[LatentSequence], path: str, n_labels: int) -> None:
    if not seqs:
        raise ValueError("refusing to write an empty dataset")
    dim = seqs[0].dim
    with atomic_write(path) as fh:
        fh.write(f"#dim={dim} labels={int(n_labels)}\n")
        for seq in seqs:
            if any(c in seq.id for c in "\t\r\n"):
                raise ValueError(f"sequence {seq.id!r} id holds a tab or line break")
            if seq.dim != dim:
                raise ValueError(f"sequence {seq.id!r} dim {seq.dim} != dataset dim {dim}")
            parse_field(f"sequence {seq.id!r}", "labels", check_labels, seq.labels, n_labels)
            tracks = [t for t in (getattr(seq, name) for name, _ in _TRACKS) if t is not None]
            if len(tracks) == 2:
                raise ValueError(f"sequence {seq.id!r} must carry both zc2 and h or neither")
            fields = [seq.id, ",".join(str(int(v)) for v in seq.labels)]
            fields += [_encode_track(t) for t in tracks]
            fh.write("\t".join(fields) + "\n")


def load_dataset(path: str) -> tuple[list[LatentSequence], int, int]:
    """Read a dataset file; returns (sequences, frame dim, label vocabulary size)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        m = header.split()
        if len(m) != 2 or not m[0].startswith("#dim=") or not m[1].startswith("labels="):
            raise ValueError(f"{path}: bad dataset header {header!r}")
        dim = parse_field(f"{path}:1", "#dim", int, m[0][len("#dim="):])
        n_labels = parse_field(f"{path}:1", "labels=", int, m[1][len("labels="):])
        seqs: list[LatentSequence] = []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            where = f"{path}:{lineno}"
            fields = line.split("\t")
            if len(fields) not in (3, 5):
                raise ValueError(f"{where}: expected 3 or 5 fields, got {len(fields)}")
            labels = parse_field(where, "labels", _decode_labels, fields[1], n_labels)
            tracks = [parse_field(where, field, _decode_track, text, dim)
                      for (_, field), text in zip(_TRACKS, fields[2:])]
            seqs.append(parse_field(where, "sequence", LatentSequence, fields[0], labels,
                                    *tracks))
    if not seqs:
        raise ValueError(f"{path}: dataset has no sequences")
    return seqs, dim, n_labels
