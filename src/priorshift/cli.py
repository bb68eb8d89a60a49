"""Command-line entry points.

Every command that draws random numbers takes one ``--seed``, checked
before any file is read, and derives all of its randomness from named
substreams of it, so identical invocations produce byte-identical
outputs.  Logs go to stderr; result files and machine-readable verify
lines go where the flags point.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import logging
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .denoiser import MODEL_MAGIC, TrainConfig, load_model, save_model, train
from .harness import (
    WORLD_MAGIC,
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
from .latent import atomic_write, load_dataset, save_dataset, settings_from_json
from .prior import marginal_1d, resolving_points
from .rng import PURPOSE_DATA, PURPOSE_TRAIN, substream
from .sampler import ConvertContext, convert_sequences, frame_metrics
from .schedule import DEFAULT_BETA_MAX, DEFAULT_BETA_MIN, DEFAULT_T, check_start_steps, \
    linear_schedule

log = logging.getLogger("priorshift")
# Points of `posterior`'s default grid, unless it needs more.
DEFAULT_GRID_POINTS = 2001
# Most points of any `posterior` grid; a grid near it peaks at ~540 MB of RSS
# with one start step, ~660 MB with five.
MAX_GRID_POINTS = 2 ** 22
# Most frames (--n-seq times --seq-len) that `gen-data` or `sweep` draws; a
# model sweep near it (default widths, five start steps) peaks at ~275 MB of RSS.
MAX_FRAMES = 2 ** 15


class UsageError(Exception):
    """Bad flag combinations detected after parsing; exits with status 2."""


def _out_path(path: str, force: bool) -> str:
    if Path(path).exists() and not force:
        raise UsageError(f"output path {path} exists; pass --force to overwrite")
    if not Path(path).parent.is_dir():
        raise UsageError(f"output path {path}: {Path(path).parent} is not a directory")
    return path


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise UsageError(f"{flag} expects comma-separated integers, got {text!r}") from exc


def _require_sizes(args: argparse.Namespace) -> None:
    for flag, value in (("--n-seq", args.n_seq), ("--seq-len", args.seq_len)):
        if value < 1:
            raise UsageError(f"{flag} must be >= 1, got {value}")
    if args.n_seq * args.seq_len > MAX_FRAMES:
        raise UsageError(f"--n-seq times --seq-len must be <= {MAX_FRAMES} frames, "
                         f"got {args.n_seq} * {args.seq_len}")


@contextlib.contextmanager
def _flags(flags: dict[str, str]):
    """Re-raise a ``<field>: <why>`` error whose field ``flags`` maps to a flag
    as a usage error naming flags in place of fields; others pass unchanged."""
    try:
        yield
    except ValueError as exc:
        field, _, why = str(exc).partition(": ")
        if field not in flags:
            raise
        why = re.sub(r"\w+", lambda m: flags.get(m[0], m[0]), why)
        raise UsageError(f"{flags[field]} {why}") from None


def _schedule_from_args(args: argparse.Namespace):
    with _flags({"beta_min": "--beta-min", "beta_max": "--beta-max", "T": "--T"}):
        return linear_schedule(
            DEFAULT_BETA_MIN if args.beta_min is None else args.beta_min,
            DEFAULT_BETA_MAX if args.beta_max is None else args.beta_max,
            DEFAULT_T if args.T is None else args.T,
        )


def _reject_schedule_flags(args: argparse.Namespace) -> None:
    for flag, value in (("--beta-min", args.beta_min), ("--beta-max", args.beta_max),
                        ("--T", args.T)):
        if value is not None:
            raise UsageError(
                f"{flag} conflicts with --model <file>: the schedule is read from the model"
            )


# gen-world has one flag per WorldSpec field, named as the field but for two.
_GEN_WORLD_FLAGS = {f.name: "--" + f.name.replace("_", "-") for f in dataclasses.fields(WorldSpec)}
_GEN_WORLD_FLAGS.update(n_labels="--labels", n_components="--components")


def _cmd_gen_world(args: argparse.Namespace) -> int:
    with _flags(_GEN_WORLD_FLAGS):
        spec = WorldSpec(**{name: getattr(args, flag[2:].replace("-", "_"))
                            for name, flag in _GEN_WORLD_FLAGS.items()})
    out = _out_path(args.out, args.force)
    world = gen_world(spec)
    save_world(world, out)
    log.info("gen-world out=%s attempts=%d", args.out, world.attempts)
    return 0


def _cmd_gen_data(args: argparse.Namespace) -> int:
    _require_sizes(args)
    out = _out_path(args.out, args.force)
    world = load_world(args.world)
    seqs = gen_dataset(
        world, args.source, args.n_seq, args.seq_len,
        substream(args.seed, PURPOSE_DATA),
    )
    save_dataset(seqs, out, world.spec.n_labels)
    n_frames = sum(len(s) for s in seqs)
    log.info("gen-data out=%s source=%s sequences=%d frames=%d",
             args.out, args.source, len(seqs), n_frames)
    return 0


def _require_tracks(path: str, seqs, tracks: tuple[str, ...], user: str) -> None:
    for seq in seqs:
        for track in tracks:
            if getattr(seq, track) is None:
                raise UsageError(f"--data {path}: sequence {seq.id!r} lacks the {track} track, "
                                 f"which {user} needs")


def _read_train_config(path: str) -> TrainConfig:
    """TrainConfig from a JSON object of overrides; errors name the file and the field."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return settings_from_json(TrainConfig, json.load(fh))
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}: not valid JSON ({exc})") from None
        except ValueError as exc:
            raise UsageError(f"{path}: {exc}") from None


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = TrainConfig() if args.config is None else _read_train_config(args.config)
    if args.epochs is not None:
        with _flags({"epochs": "--epochs"}):
            cfg = dataclasses.replace(cfg, epochs=args.epochs)
    out = _out_path(args.out, args.force)
    seqs, _, n_labels = load_dataset(args.data)
    _require_tracks(args.data, seqs, ("zc2", "h"), "training")
    sched = _schedule_from_args(args)
    bundle, curve = train(
        cfg, seqs, sched, substream(args.seed, PURPOSE_TRAIN), n_labels=n_labels,
        progress=lambda epoch, loss: log.info("epoch=%d mean_loss=%.6g", epoch, loss),
    )
    save_model(out, bundle, sched)
    log.info("train out=%s epochs=%d final_loss=%.6g", out, cfg.epochs,
             curve[-1] if curve else float("nan"))
    return 0


def _context(args: argparse.Namespace, world) -> ConvertContext:
    """The conversion context of `convert` and `sweep`: the exact predictor on
    the flags' schedule, or a model file checked against the world."""
    if args.model == "exact":
        return build_context(world, _schedule_from_args(args), None, snap=not args.no_snap)
    bundle, sched = load_model(args.model)
    _reject_schedule_flags(args)
    for field, got, want in (("dim", bundle.theta.dim, world.spec.dim),
                             ("labels", bundle.theta.n_labels, world.spec.n_labels)):
        if got != want:
            raise UsageError(f"{args.model}: {field}: model has {got}, world has {want}")
    return build_context(world, sched, bundle, snap=not args.no_snap)


def _cmd_convert(args: argparse.Namespace) -> int:
    out = _out_path(args.out, args.force)
    diag_path = None
    if args.diagnostics is not None:
        if Path(args.diagnostics).resolve() == Path(out).resolve():
            raise UsageError(f"--diagnostics must name a file other than --out's {out}")
        diag_path = _out_path(args.diagnostics, args.force)
    world = load_world(args.world)
    seqs, dim, n_labels = load_dataset(args.data)
    if args.model != "exact":
        _require_tracks(args.data, seqs, ("h",), "the model's residual head")
    if dim != world.spec.dim:
        raise UsageError(f"{args.data}: #dim: dataset has {dim}, world has {world.spec.dim}")
    top = max(int(s.labels.max()) for s in seqs)
    if top >= world.spec.n_labels:
        raise UsageError(f"{args.data}: labels: label {top} outside the world's "
                         f"[0, {world.spec.n_labels})")
    ctx = _context(args, world)
    with _flags({"t_start": "--t-start"}):
        results = convert_sequences(seqs, ctx, args.t_start, args.seed)
    # Score every frame before writing anything, so a failure leaves no file.
    l2d, cos, prob = frame_metrics(
        np.concatenate([s.frames for s in seqs]), np.concatenate([s.frames for s in results]),
        np.concatenate([s.labels for s in seqs]), world.native, world.l2,
    )
    save_dataset(results, out, n_labels)
    if diag_path is not None:
        import csv  # only this writer uses it; runs without diagnostics skip loading it
        bounds = np.cumsum([len(s) for s in seqs])[:-1]
        with atomic_write(diag_path) as fh:
            rows = csv.writer(fh, lineterminator="\n")
            rows.writerow(["id", "t_start", "identity_l2", "identity_cos", "native_prob"])
            for seq, *means in zip(seqs, *(np.split(v, bounds) for v in (l2d, cos, prob))):
                rows.writerow([seq.id, args.t_start, *(f"{v.mean():.17g}" for v in means)])
    log.info("convert out=%s t_start=%d frames=%d identity_l2=%.4f native_prob=%.4f",
             out, args.t_start, l2d.size, l2d.mean(), prob.mean())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    _require_sizes(args)
    t_starts = _parse_int_list(args.t_starts, "--t-starts")
    out = _out_path(args.out, args.force)
    world = load_world(args.world)
    ctx = _context(args, world)
    with _flags({"t_starts": "--t-starts"}):
        rows = sweep(world, ctx, t_starts, args.n_seq, args.seq_len, args.seed,
                     stratify_labels=args.stratify_labels)
    with atomic_write(out) as fh:
        fh.write(sweep_csv(rows))
    for row in rows:
        log.info("sweep t_start=%d identity_l2=%.4f native_prob=%.4f",
                 row.t_start, row.identity_l2, row.native_prob)
    return 0


def _cmd_posterior(args: argparse.Namespace) -> int:
    sched = _schedule_from_args(args)
    t_starts = _parse_int_list(args.t_starts, "--t-starts")
    with _flags({"t_starts": "--t-starts"}):
        check_start_steps("t_starts", t_starts, 1, sched)
    if args.grid_points is not None and args.grid_points < 8:
        raise UsageError(f"--grid-points must be >= 8, got {args.grid_points}")
    if args.grid_points is not None and args.grid_points > MAX_GRID_POINTS:
        raise UsageError(f"--grid-points must be <= {MAX_GRID_POINTS}, got {args.grid_points}")
    for flag, value in (("--x0", args.x0), ("--grid-lo", args.grid_lo),
                        ("--grid-hi", args.grid_hi)):
        if value is not None and not np.isfinite(value):
            raise UsageError(f"{flag} must be finite, got {value}")
    out_dir = Path(args.out_dir)
    if out_dir.exists() and not out_dir.is_dir():
        raise UsageError(f"--out-dir {out_dir} is not a directory")
    if out_dir.exists() and any(out_dir.iterdir()) and not args.force:
        raise UsageError(f"output directory {out_dir} is not empty; pass --force to overwrite")
    world = load_world(args.world)
    for flag, value, n in (("--label", args.label, world.spec.n_labels),
                           ("--dim", args.dim, world.spec.dim)):
        if not 0 <= value < n:
            raise UsageError(f"{flag} must lie in [0, {n}), the world's range, got {value}")
    if args.grid_lo is None or args.grid_hi is None:
        m1 = marginal_1d(world.native, args.dim)
        sd = float(np.sqrt(m1.variances.max()))
        lo = min(float(m1.means.min()), args.x0) - 8.0 * sd
        hi = max(float(m1.means.max()), args.x0) + 8.0 * sd
    if args.grid_lo is not None:
        lo = args.grid_lo
    if args.grid_hi is not None:
        hi = args.grid_hi
    if not lo < hi:
        if args.grid_lo is None:
            raise UsageError(f"--grid-hi must lie above --grid-lo, got {hi} and {lo}")
        raise UsageError(f"--grid-lo must lie below --grid-hi, got {lo} and {hi}")
    if not np.isfinite(hi - lo):
        raise UsageError(f"--grid-lo and --grid-hi must lie a finite distance apart, "
                         f"got {lo} and {hi}")
    points = args.grid_points
    if points is None:
        points = DEFAULT_GRID_POINTS
        if args.grid_lo is None and args.grid_hi is None:
            need = resolving_points(m1, min(t_starts) - 1, hi - lo, sched)
            if need > MAX_GRID_POINTS:
                raise UsageError(f"--x0 {args.x0} needs a default grid of {need:.3g} points, "
                                 f"over {MAX_GRID_POINTS}; pass --grid-lo and --grid-hi")
            points = max(points, int(need))
    grid = np.linspace(lo, hi, points)
    posterior_curves(world, args.label, args.x0, t_starts, grid, sched,
              dim=args.dim, out_dir=str(out_dir))
    log.info("posterior out_dir=%s curves=%d grid=[%.3f, %.3f]",
             out_dir, len(t_starts), lo, hi)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suites  # only this stage runs it; the others skip loading it
    results = run_suites(seed=args.seed)
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}")
    return 0 if all(r.ok for r in results) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and every call returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="priorshift",
        description="Latent-frame accent conversion by partial diffusion toward a native prior.",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"priorshift {__version__} (model format {MODEL_MAGIC!r}, "
                f"world format {WORLD_MAGIC!r})",
    )
    parser.add_argument("-q", "--quiet", action="store_true", help="log warnings only")
    sub = parser.add_subparsers(dest="command", required=True)

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, required=True)
    writes = argparse.ArgumentParser(add_help=False)
    writes.add_argument("--out", required=True, help="output file path")
    writes.add_argument("--force", action="store_true")
    reads_world = argparse.ArgumentParser(add_help=False)
    reads_world.add_argument("--world", required=True)
    scheduled = argparse.ArgumentParser(add_help=False)
    scheduled.add_argument("--beta-min", type=float, default=None,
                           help=f"first noise rate (default {DEFAULT_BETA_MIN})")
    scheduled.add_argument("--beta-max", type=float, default=None,
                           help=f"last noise rate (default {DEFAULT_BETA_MAX})")
    scheduled.add_argument("--T", type=int, default=None,
                           help=f"number of corruption steps (default {DEFAULT_T})")
    converts = argparse.ArgumentParser(add_help=False,
                                       parents=[seeded, writes, reads_world, scheduled])
    converts.add_argument("--model", required=True, help="model file path, or 'exact'")
    converts.add_argument("--no-snap", action="store_true", help="skip codebook quantization")

    p = sub.add_parser("gen-world", parents=[seeded, writes],
                       help="draw a synthetic pair of priors plus codebook")
    for f in dataclasses.fields(WorldSpec):
        if f.name != "seed":
            p.add_argument(_GEN_WORLD_FLAGS[f.name], type=int if f.type == "int" else float,
                           default=f.default)
    p.set_defaults(func=_cmd_gen_world)

    p = sub.add_parser("gen-data", parents=[seeded, writes, reads_world],
                       help="sample labeled sequences from a world")
    p.add_argument("--source", choices=("native", "l2"), default="l2")
    p.add_argument("--n-seq", type=int, default=100)
    p.add_argument("--seq-len", type=int, default=50)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", parents=[seeded, writes, scheduled],
                       help="fit the denoiser and residual head")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help="training config JSON")
    p.add_argument("--epochs", type=int, default=None, help="override config epochs")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("convert", parents=[converts],
                       help="translate sequences toward the native prior")
    p.add_argument("--data", required=True)
    p.add_argument("--t-start", type=int, required=True,
                   help="corruption steps before the reverse pass (0..T)")
    p.add_argument("--diagnostics", default=None, help="per-sequence metrics CSV path")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("sweep", parents=[converts], help="trade-off table across start steps")
    p.add_argument("--t-starts", default="0,25,50,75,100")
    p.add_argument("--n-seq", type=int, default=40)
    p.add_argument("--seq-len", type=int, default=50)
    p.add_argument("--stratify-labels", action="store_true",
                   help="average per-label means instead of pooled frames")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("posterior", parents=[reads_world, scheduled],
                       help="tabulate 1-D clean-frame posteriors")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--label", type=int, default=0)
    p.add_argument("--dim", type=int, default=0, help="coordinate of the prior to use")
    p.add_argument("--x0", type=float, required=True, help="shifted frame value to explain")
    p.add_argument("--t-starts", default="1,25,50,75,100")
    p.add_argument("--grid-lo", type=float, default=None)
    p.add_argument("--grid-hi", type=float, default=None)
    p.add_argument("--grid-points", type=int, default=None,
                   help=f"default {DEFAULT_GRID_POINTS}, or more when the default grid "
                        "needs them to resolve the narrowest posterior")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_posterior)

    p = sub.add_parser("verify", help="run the built-in oracle suites")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        stream=sys.stderr, format="%(levelname)s %(message)s", force=True,
    )
    try:
        if not 0 <= getattr(args, "seed", 0) < 2 ** 64:
            raise UsageError(f"--seed must lie in [0, 2**64), got {args.seed}")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
