"""The label rule, the frame-block rule and the start-step rule hold at
every entry point that takes labels, an (n, d) block of frames or start
steps, and every record keeps the arrays it checks."""
import re

import numpy as np
import pytest

from priorshift.denoiser import TrainConfig, forward, init_denoiser, init_residual, \
    loss_total, predict_zc2, train
from priorshift.harness import WorldSpec, build_context, gen_world, posterior_curves, sweep
from priorshift.latent import Codebook, LatentSequence, Standardizer, destandardize_frames, \
    load_dataset, save_dataset, snap_frames, standardize_frames
from priorshift.prior import ConditionalGMM, exact_eps_batch, logpdf_batch, noised_tables, \
    posterior_grid, sample_frames
from priorshift.sampler import ConvertContext, convert_sequences, denoise_from, \
    prior_eps_source
from priorshift.schedule import check_start_steps, default_schedule

SCHED = default_schedule()
K, D = 3, 2


def _gmm(dim=D):
    return ConditionalGMM(weights=np.full((K, 2), 0.5), means=np.zeros((K, 2, dim)),
                          variances=np.ones((K, 2, dim)))


def _theta():
    return init_denoiser(D, K, (4,), 4, 4, np.random.default_rng(0))


def _phi():
    return init_residual(D, (), np.random.default_rng(1))


def _seq(labels):
    n = len(labels)
    return LatentSequence(id="s", labels=np.asarray(labels), frames=np.ones((n, D)),
                          zc2=np.zeros((n, D)), h=np.ones((n, D)))


def _load_dataset(tmp_path, labels):
    path = tmp_path / "d.tsv"
    path.write_text(f"#dim={D} labels={K}\n"
                    f"s\t{','.join(map(str, labels))}\t{'|'.join(['1,1'] * len(labels))}\n")
    return load_dataset(str(path))


def _loss_total(labels):
    n = len(labels)
    return loss_total(_theta(), _phi(), np.ones((n, D)), np.zeros((n, D)), np.ones((n, D)),
                      np.asarray(labels), np.full(n, 5), np.zeros((n, D)), None, 0.5, SCHED)


_LABEL_ENTRY_POINTS = {
    "sample_frames": lambda labels, tmp: sample_frames(_gmm(), labels,
                                                       np.random.default_rng(0)),
    "logpdf_batch": lambda labels, tmp: logpdf_batch(_gmm(), labels, np.ones((len(labels), D))),
    "exact_eps_batch": lambda labels, tmp: exact_eps_batch(
        _gmm(), labels, 5, np.ones((len(labels), D)), SCHED),
    "noised_tables": lambda labels, tmp: noised_tables(_gmm(), labels, range(6), SCHED),
    "prior_eps_source": lambda labels, tmp: prior_eps_source(_gmm(), SCHED)(labels, range(6)),
    "posterior_grid": lambda labels, tmp: posterior_grid(
        _gmm(dim=1), labels[-1], 5, 0.0, np.linspace(-9, 9, 101), SCHED),
    "forward": lambda labels, tmp: forward(_theta(), np.ones((len(labels), D)), 5, labels),
    "loss_total": lambda labels, tmp: _loss_total(labels),
    "train": lambda labels, tmp: train(TrainConfig(epochs=1, hidden=(4,), cond_dim=4,
                                                   time_dim=4),
                                       [_seq(labels)], SCHED, np.random.default_rng(0), K),
    "save_dataset": lambda labels, tmp: save_dataset([_seq(labels)], str(tmp / "d.tsv"), K),
    "load_dataset": lambda labels, tmp: _load_dataset(tmp, labels),
}


@pytest.mark.parametrize("labels", [[0, 1, K], [0, 1, -1]], ids=["high", "negative"])
@pytest.mark.parametrize("entry", sorted(_LABEL_ENTRY_POINTS))
def test_out_of_range_label_rejected(tmp_path, entry, labels):
    with pytest.raises(ValueError, match=re.escape(f"labels outside [0, {K})")):
        _LABEL_ENTRY_POINTS[entry](labels, tmp_path)
    assert list(tmp_path.iterdir()) == ([tmp_path / "d.tsv"] if entry == "load_dataset" else [])


_WIDE = np.ones((4, D + 1))
_FRAME_ENTRY_POINTS = {
    "exact_eps_batch": ("prior", lambda: exact_eps_batch(_gmm(), np.zeros(4, dtype=int), 5,
                                                         _WIDE, SCHED)),
    "forward": ("model", lambda: forward(_theta(), _WIDE, 5, np.zeros(4, dtype=int))),
    "predict_zc2-h": ("residual head", lambda: predict_zc2(_phi(), _WIDE, np.ones((4, D)))),
    "predict_zc2-zc1": ("residual head", lambda: predict_zc2(_phi(), np.ones((4, D)), _WIDE)),
    "snap_frames": ("codebook", lambda: snap_frames(_WIDE, Codebook(np.zeros((5, D))))),
    "standardize_frames": ("standardizer", lambda: standardize_frames(
        _WIDE, Standardizer(np.zeros(D), np.ones(D)))),
    "destandardize_frames": ("standardizer", lambda: destandardize_frames(
        _WIDE, Standardizer(np.zeros(D), np.ones(D)))),
}


@pytest.mark.parametrize("entry", sorted(_FRAME_ENTRY_POINTS))
def test_wrong_frame_width_names_the_owner(entry):
    owner, call = _FRAME_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=re.escape(
            f"frames shape (4, {D + 1}) does not match {owner} dim {D}")):
        call()


@pytest.mark.parametrize("t", [np.arange(3), np.full((5, 1), 7), np.array([7])],
                         ids=["short", "column", "one-step-array"])
def test_forward_takes_a_scalar_step_or_one_per_row(t):
    with pytest.raises(ValueError, match="^" + re.escape(
            f"t shape {t.shape} does not match batch 5") + "$"):
        forward(_theta(), np.ones((5, D)), t, np.zeros(5, dtype=int))


def test_predict_zc2_rejects_unequal_row_counts():
    with pytest.raises(ValueError, match="feature shape"):
        predict_zc2(_phi(), np.ones((4, D)), np.ones((3, D)))


@pytest.mark.parametrize("call", [standardize_frames, destandardize_frames])
def test_standardizer_takes_only_frame_blocks(call):
    with pytest.raises(ValueError, match=re.escape(f"frames shape ({D},)")):
        call(np.ones(D), Standardizer(np.zeros(D), np.ones(D)))


# Start steps off the rule, each with what it violates on [lo, T].
_START_STEPS = {
    "high": ([SCHED.T + 1], lambda lo: f"must lie in [{lo}, {SCHED.T}], got {SCHED.T + 1}"),
    "negative": ([-1], lambda lo: f"must lie in [{lo}, {SCHED.T}], got -1"),
    "empty": ([], lambda lo: "must be distinct and ascending, got []"),
    "repeated": ([5, 5], lambda lo: "must be distinct and ascending, got [5, 5]"),
    "descending": ([50, 25], lambda lo: "must be distinct and ascending, got [50, 25]"),
}
_WORLD = gen_world(WorldSpec(dim=D, n_labels=K, codebook_size=8, seed=0))
_CONVERT_CTX = ConvertContext(sched=SCHED, standardizer=Standardizer(np.zeros(D), np.ones(D)),
                              predictor=prior_eps_source(_gmm(), SCHED))
# name -> (field, lo, call on the steps and a scratch dir); a ``t_start``
# entry takes one step.
_START_STEP_ENTRY_POINTS = {
    "check_start_steps": ("t_starts", 0,
                          lambda steps, tmp: check_start_steps("t_starts", steps, 0, SCHED)),
    "denoise_from": ("t_start", 0, lambda steps, tmp: denoise_from(
        np.ones((2, D)), steps[0], prior_eps_source(_gmm(), SCHED), np.zeros(2, dtype=int),
        SCHED)),
    "convert_sequences": ("t_start", 0, lambda steps, tmp: convert_sequences(
        [_seq([0, 1])], _CONVERT_CTX, steps[0], 0)),
    "sweep": ("t_starts", 0, lambda steps, tmp: sweep(
        _WORLD, build_context(_WORLD, SCHED, None), steps, 2, 3, 0)),
    "posterior_curves": ("t_starts", 1, lambda steps, tmp: posterior_curves(
        _WORLD, 0, 1.0, steps, np.linspace(-9, 9, 101), SCHED, out_dir=str(tmp / "curves"))),
}


@pytest.mark.parametrize("entry, case", [
    (entry, case) for entry, (field, _, _) in sorted(_START_STEP_ENTRY_POINTS.items())
    for case in _START_STEPS if field == "t_starts" or case in ("high", "negative")])
def test_start_steps_off_the_rule_rejected(tmp_path, entry, case):
    """One rule, one message shape: ``<field>: <why>``, and nothing written."""
    field, lo, call = _START_STEP_ENTRY_POINTS[entry]
    steps, why = _START_STEPS[case]
    with pytest.raises(ValueError, match="^" + re.escape(f"{field}: {why(lo)}") + "$"):
        call(steps, tmp_path)
    assert list(tmp_path.iterdir()) == []


_RECORDS_FROM_LISTS = {
    "ConditionalGMM": lambda: logpdf_batch(
        ConditionalGMM(weights=[[1.0]], means=[[[0.0]]], variances=[[[1.0]]]), [0], [[0.0]]),
    "Standardizer": lambda: standardize_frames([[1.0]], Standardizer(mean=[0.0], std=[1.0])),
    "Codebook": lambda: snap_frames([[0.9]], Codebook(entries=[[0.0], [1.0]]))[1],
    "LatentSequence": lambda: convert_sequences(
        [LatentSequence(id="s", labels=[0, 1], frames=[[0.0, 1.0], [1.0, 0.0]])],
        ConvertContext(sched=SCHED, standardizer=Standardizer(mean=np.zeros(D), std=np.ones(D)),
                       predictor=prior_eps_source(_gmm(), SCHED)), 5, 0)[0].frames,
}


@pytest.mark.parametrize("record", sorted(_RECORDS_FROM_LISTS))
def test_record_built_from_lists_holds_float64_arrays(record):
    """A record checks its inputs as arrays and keeps those arrays, so one
    built from lists works wherever one built from arrays does."""
    out = _RECORDS_FROM_LISTS[record]()
    assert isinstance(out, np.ndarray) and out.dtype == np.float64 and np.isfinite(out).all()
