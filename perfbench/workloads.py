"""The four workloads: set-up, one op, output checks and quality numbers.

Every op is one in-process ``priorshift.cli.main`` call, a CLI stage as a
user runs it, file reads and writes included.  Inputs are made by the CLI
stages themselves (``gen-world``, ``gen-data``, ``train``) from the
workload seed; ``convert_exact`` then cuts its sequences to a fixed,
seed-shuffled set of short lengths with the program's own dataset
loader and writer.  Output checks parse the files with
plain numpy, not with the program's own loaders.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from tracing import EPOCH_LOG_PREFIX

T_START = 100
SWEEP_T_STARTS = (0, 25, 50, 75, 100)
SEQ_LEN = 50


@dataclass(frozen=True)
class Sizes:
    convert_lengths: tuple[int, ...]  # one shifted sequence per entry
    train_seq: int                    # train_model: sequences of SEQ_LEN frames
    train_epochs: int
    sweep_seq: int                    # sweep_model: evaluation sequences
    sweep_train_seq: int              # sweep_model set-up: native training sequences
    sweep_train_epochs: int
    gen_seq: int                      # gen_data: sequences written and read back
    oracle_seq: int                   # train_model: evaluation block for oracle_eps_mse


SIZES = {
    "full": Sizes(convert_lengths=tuple(range(2, 17)), train_seq=60, train_epochs=6,
                  sweep_seq=3, sweep_train_seq=60, sweep_train_epochs=3, gen_seq=150,
                  oracle_seq=20),
    "tiny": Sizes(convert_lengths=(2, 5), train_seq=4, train_epochs=2,
                  sweep_seq=1, sweep_train_seq=4, sweep_train_epochs=1, gen_seq=4,
                  oracle_seq=2),
}


class CheckFailed(Exception):
    """An op's output is wrong."""


def stage(ps, *argv) -> None:
    """Run one CLI stage in-process; a non-zero exit status fails the op."""
    argv = [str(a) for a in argv]
    rc = ps.cli.main(argv)
    if rc != 0:
        raise CheckFailed(f"priorshift {argv[0]} exited with status {rc}")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def read_tsv(path: Path) -> tuple[int, list[tuple[str, np.ndarray, list[np.ndarray]]]]:
    """Dataset file as (dim, [(id, labels, [track, ...])]); tracks are (n, dim)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        _require(len(header) == 2 and header[0].startswith("#dim="), f"{path.name}: bad header")
        dim = int(header[0][len("#dim="):])
        rows = []
        for line in fh:
            fields = line.rstrip("\n").split("\t")
            labels = np.array(fields[1].split(","), dtype=np.int64)
            tracks = []
            for text in fields[2:]:
                values = np.array(text.replace("|", ",").split(","), dtype=np.float64)
                _require(values.size == labels.size * dim,
                         f"{path.name}: {fields[0]} track has {values.size} values")
                _require(bool(np.isfinite(values).all()),
                         f"{path.name}: {fields[0]} has non-finite values")
                tracks.append(values.reshape(labels.size, dim))
            rows.append((fields[0], labels, tracks))
    return dim, rows


def _check_dataset(path: Path, n_seq: int, seq_len: int, n_tracks: int) -> None:
    _, rows = read_tsv(path)
    _require(len(rows) == n_seq, f"{path.name}: {len(rows)} sequences, expected {n_seq}")
    for seq_id, labels, tracks in rows:
        _require(labels.size == seq_len and len(tracks) == n_tracks,
                 f"{path.name}: {seq_id} has {labels.size} frames and {len(tracks)} tracks")


class Workload:
    """One workload; ``setup`` writes the files every op reuses into one directory."""

    name = ""
    output = ""          # file the op writes, relative to the set-up directory

    def __init__(self, sizes: Sizes, seed: int):
        self.sizes = sizes
        self.seed = seed

    def frames_per_op(self) -> int:
        raise NotImplementedError

    def setup(self, ps, d: Path) -> None:
        stage(ps, "gen-world", "--out", d / "world.json", "--seed", self.seed)

    def op(self, ps, d: Path, log) -> dict:
        """Run one op; return observations that must repeat exactly across ops."""
        raise NotImplementedError

    def check(self, ps, d: Path, obs: dict) -> None:
        """Full check of one op's output; later ops must match its bytes."""
        raise NotImplementedError

    def quality(self, ps, d: Path, obs: dict) -> dict[str, tuple[float, str, str]]:
        return {}


class ConvertExact(Workload):
    name = "convert_exact"
    output = "converted.tsv"

    def frames_per_op(self) -> int:
        return sum(self.sizes.convert_lengths)

    def setup(self, ps, d: Path) -> None:
        super().setup(ps, d)
        lengths = self.sizes.convert_lengths
        stage(ps, "gen-data", "--world", d / "world.json", "--out", d / "raw.tsv",
              "--seed", self.seed, "--n-seq", len(lengths), "--seq-len", max(lengths))
        seqs, _, n_labels = ps.latent.load_dataset(str(d / "raw.tsv"))
        order = np.random.default_rng([self.seed, 1]).permutation(lengths)
        cut = [replace(s, labels=s.labels[:n], frames=s.frames[:n], zc2=s.zc2[:n], h=s.h[:n])
               for s, n in zip(seqs, order)]
        ps.latent.save_dataset(cut, str(d / "input.tsv"), n_labels)

    def op(self, ps, d: Path, log) -> dict:
        stage(ps, "convert", "--world", d / "world.json", "--model", "exact",
              "--data", d / "input.tsv", "--out", d / self.output,
              "--seed", self.seed, "--t-start", T_START)
        return {}

    def _pair(self, d: Path):
        _, inp = read_tsv(d / "input.tsv")
        _, out = read_tsv(d / self.output)
        return inp, out

    def check(self, ps, d: Path, obs: dict) -> None:
        inp, out = self._pair(d)
        _require(len(out) == len(inp), f"{len(out)} sequences out, {len(inp)} in")
        for (iid, ilab, itr), (oid, olab, otr) in zip(inp, out):
            _require(oid == iid and np.array_equal(olab, ilab) and len(otr) == 1
                     and otr[0].shape == itr[0].shape, f"sequence {iid} changed shape or labels")

    def quality(self, ps, d: Path, obs: dict) -> dict[str, tuple[float, str, str]]:
        inp, out = self._pair(d)
        labels = np.concatenate([lab for _, lab, _ in inp])
        x_in = np.concatenate([tr[0] for _, _, tr in inp])
        x_out = np.concatenate([tr[0] for _, _, tr in out])
        world = ps.harness.load_world(str(d / "world.json"))
        prob = ps.prior.native_class_prob_batch(world.native, world.l2, labels, x_out)
        return {
            "native_prob": (float(prob.mean()), "prob", "higher"),
            "identity_l2": (float(np.linalg.norm(x_out - x_in, axis=1).mean()), "l2", "lower"),
        }


class TrainModel(Workload):
    name = "train_model"
    output = "model.txt"

    def frames_per_op(self) -> int:
        return self.sizes.train_seq * SEQ_LEN * self.sizes.train_epochs

    def setup(self, ps, d: Path) -> None:
        super().setup(ps, d)
        stage(ps, "gen-data", "--world", d / "world.json", "--out", d / "train.tsv",
              "--seed", self.seed, "--n-seq", self.sizes.train_seq, "--seq-len", SEQ_LEN)

    def op(self, ps, d: Path, log) -> dict:
        stage(ps, "train", "--data", d / "train.tsv", "--out", d / self.output,
              "--seed", self.seed, "--epochs", self.sizes.train_epochs)
        losses = [args[1] for _, msg, args in log if msg.startswith(EPOCH_LOG_PREFIX)]
        _require(len(losses) == self.sizes.train_epochs,
                 f"{len(losses)} epoch log lines for {self.sizes.train_epochs} epochs")
        return {"final_loss": float(losses[-1])}

    def check(self, ps, d: Path, obs: dict) -> None:
        dim, _ = read_tsv(d / "train.tsv")
        lines = (d / self.output).read_text(encoding="utf-8").split("\n")
        _require(lines[0].startswith("PRIORSHIFT-MODEL") and lines[-2] == "end",
                 "model file lacks its header or end marker")
        model_dim = next((line.split()[1] for line in lines if line.startswith("dim ")), None)
        _require(model_dim == str(dim), f"model dim {model_dim}, data dim {dim}")
        n_tensors = 0
        for i, line in enumerate(lines):
            if line.startswith("tensor "):
                values = np.array(lines[i + 1].split(), dtype=np.float64)
                _require(values.size == int(line.split()[2]), f"{line}: wrong value count")
                _require(bool(np.isfinite(values).all()), f"{line}: non-finite values")
                n_tensors += 1
        _require(n_tensors > 0, "model file has no tensors")

    def quality(self, ps, d: Path, obs: dict) -> dict[str, tuple[float, str, str]]:
        """Model noise prediction against the exact score of the training prior.

        The evaluation block is shifted frames drawn like the training data,
        standardized by the model, and corrupted at every step 0..T-1 with
        seeded noise.
        """
        stage(ps, "gen-data", "--world", d / "world.json", "--out", d / "oracle.tsv",
              "--seed", self.seed + 1, "--n-seq", self.sizes.oracle_seq, "--seq-len", SEQ_LEN)
        _, rows = read_tsv(d / "oracle.tsv")
        labels = np.concatenate([lab for _, lab, _ in rows])
        bundle, sched = ps.denoiser.load_model(str(d / self.output))
        world = ps.harness.load_world(str(d / "world.json"))
        x0 = ps.latent.standardize_frames(np.concatenate([tr[0] for _, _, tr in rows]),
                                          bundle.standardizer)
        oracle = ps.prior.standardized(world.l2, bundle.standardizer)
        t = np.arange(labels.size) % sched.T
        eps = np.random.default_rng([self.seed, 2]).standard_normal(x0.shape)
        sq = 0.0
        for step in range(sched.T):
            idx = np.flatnonzero(t == step)
            ab = ps.schedule.alpha_bar_at(sched, step)
            x_t = math.sqrt(ab) * x0[idx] + math.sqrt(1.0 - ab) * eps[idx]
            model = ps.denoiser.forward(bundle.theta, x_t, step, labels[idx])
            exact = ps.prior.exact_eps_batch(oracle, labels[idx], step, x_t, sched)
            sq += float(((model - exact) ** 2).sum())
        return {
            "final_loss": (obs["final_loss"], "loss", "lower"),
            "oracle_eps_mse": (sq / x0.size, "mse", "lower"),
        }


class SweepModel(Workload):
    name = "sweep_model"
    output = "sweep.csv"

    def frames_per_op(self) -> int:
        return self.sizes.sweep_seq * SEQ_LEN * len(SWEEP_T_STARTS)

    def setup(self, ps, d: Path) -> None:
        super().setup(ps, d)
        stage(ps, "gen-data", "--world", d / "world.json", "--out", d / "native.tsv",
              "--seed", self.seed, "--source", "native",
              "--n-seq", self.sizes.sweep_train_seq, "--seq-len", SEQ_LEN)
        stage(ps, "train", "--data", d / "native.tsv", "--out", d / "model.txt",
              "--seed", self.seed, "--epochs", self.sizes.sweep_train_epochs)

    def op(self, ps, d: Path, log) -> dict:
        stage(ps, "sweep", "--world", d / "world.json", "--model", d / "model.txt",
              "--out", d / self.output, "--seed", self.seed,
              "--t-starts", ",".join(str(t) for t in SWEEP_T_STARTS),
              "--n-seq", self.sizes.sweep_seq, "--seq-len", SEQ_LEN)
        return {}

    def _table(self, d: Path) -> dict[str, np.ndarray]:
        lines = (d / self.output).read_text(encoding="utf-8").split()
        head = lines[0].split(",")
        body = np.array([line.split(",") for line in lines[1:]], dtype=np.float64)
        return {name: body[:, i] for i, name in enumerate(head)}

    def check(self, ps, d: Path, obs: dict) -> None:
        table = self._table(d)
        _require(list(table["t_start"]) == list(SWEEP_T_STARTS), "sweep rows differ from t-starts")
        _require(bool((table["n_frames"] == self.sizes.sweep_seq * SEQ_LEN).all()),
                 "sweep frame count differs from the evaluation set")
        _require(all(bool(np.isfinite(col).all()) for col in table.values()),
                 "sweep table has non-finite values")
        _require(bool(((table["native_prob"] >= 0) & (table["native_prob"] <= 1)).all()),
                 "native_prob outside [0, 1]")

    def quality(self, ps, d: Path, obs: dict) -> dict[str, tuple[float, str, str]]:
        table = self._table(d)
        row = list(table["t_start"]).index(T_START)
        return {
            "native_prob": (float(table["native_prob"][row]), "prob", "higher"),
            "identity_l2": (float(table["identity_l2"][row]), "l2", "lower"),
        }


class GenData(Workload):
    name = "gen_data"
    output = "data.tsv"

    def frames_per_op(self) -> int:
        return 2 * self.sizes.gen_seq * SEQ_LEN

    def op(self, ps, d: Path, log) -> dict:
        stage(ps, "gen-data", "--world", d / "world.json", "--out", d / self.output,
              "--seed", self.seed, "--n-seq", self.sizes.gen_seq, "--seq-len", SEQ_LEN)
        seqs, _, _ = ps.latent.load_dataset(str(d / self.output))
        return {"sequences": len(seqs), "frames": sum(len(s) for s in seqs)}

    def check(self, ps, d: Path, obs: dict) -> None:
        _check_dataset(d / self.output, self.sizes.gen_seq, SEQ_LEN, n_tracks=3)
        _require(obs == {"sequences": self.sizes.gen_seq, "frames": self.sizes.gen_seq * SEQ_LEN},
                 f"load_dataset read back {obs}")


WORKLOADS = {w.name: w for w in (ConvertExact, TrainModel, SweepModel, GenData)}
