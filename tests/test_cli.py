"""Command-line entry points, exit codes, and end-to-end file flows."""
import argparse
import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from priorshift import cli
from priorshift.harness import WorldSpec, build_context, load_world, sweep, sweep_csv
from priorshift.latent import load_dataset, save_dataset
from priorshift.sampler import frame_metrics
from priorshift.schedule import default_schedule


# A size no bound admits; numpy cannot allocate it either.
BIG = "99999999999999999999"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Small world plus shifted dataset shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    world = str(root / "world.json")
    data = str(root / "l2.tsv")
    assert cli.main([
        "gen-world", "--out", world, "--seed", "0", "--dim", "2",
        "--labels", "3", "--codebook-size", "16",
    ]) == 0
    assert cli.main([
        "gen-data", "--world", world, "--out", data, "--seed", "1",
        "--source", "l2", "--n-seq", "4", "--seq-len", "10",
    ]) == 0
    return {"root": root, "world": world, "data": data}


class TestTopLevel:
    def test_version_reports_formats(self, capsys):
        assert cli.main(["--version"]) == 0
        out = capsys.readouterr().out
        assert "priorshift" in out
        assert "PRIORSHIFT-MODEL v1" in out
        assert "PRIORSHIFT-WORLD v1" in out

    def test_no_subcommand_is_usage_error(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli.main(["gen-world", "--out", "x", "--seed", "0",
                         "--tempo", "9"]) == 2

    def test_quiet_flag_accepted_before_subcommand(self, pipeline, tmp_path):
        out = str(tmp_path / "w.json")
        assert cli.main(["-q", "gen-world", "--out", out, "--seed", "5",
                         "--dim", "2", "--labels", "2",
                         "--codebook-size", "8"]) == 0


def test_import_loads_no_scipy():
    """The engine runs on numpy alone: importing the CLI in a fresh process
    loads no scipy module."""
    script = ("import sys\n"
              "import priorshift.cli\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


class TestParserReuse:
    """One parser serves every ``main`` call of a process; no call's flags
    reach the next."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_force_does_not_carry_over(self, pipeline, tmp_path, capsys):
        out = tmp_path / "out.tsv"
        out.write_text("keep\n")
        argv = ["convert", "--world", pipeline["world"], "--model", "exact",
                "--data", pipeline["data"], "--out", str(out), "--seed", "0",
                "--t-start", "5"]
        assert cli.main(argv + ["--force"]) == 0
        written = out.read_text()
        assert written != "keep\n"
        capsys.readouterr()
        assert cli.main(argv) == 2
        assert "pass --force to overwrite" in capsys.readouterr().err
        assert out.read_text() == written

    def test_quiet_does_not_carry_over(self, tmp_path, capsys):
        argv = ["gen-world", "--seed", "3", "--dim", "2", "--labels", "2",
                "--codebook-size", "8"]
        assert cli.main(["-q"] + argv + ["--out", str(tmp_path / "a.json")]) == 0
        assert "INFO" not in capsys.readouterr().err
        assert cli.main(argv + ["--out", str(tmp_path / "b.json")]) == 0
        assert "INFO gen-world" in capsys.readouterr().err


_SCHEDULE = ["--T", "--beta-max", "--beta-min"]
_WRITES = ["--force", "--out", "--seed"]


@pytest.mark.parametrize("command, options, required", [
    ("gen-world", _WRITES + ["--codebook-size", "--components", "--dim", "--h-noise",
                             "--l2-shift", "--labels", "--mean-scale", "--var-hi", "--var-lo"],
     ["--out", "--seed"]),
    ("gen-data", _WRITES + ["--n-seq", "--seq-len", "--source", "--world"],
     ["--out", "--seed", "--world"]),
    ("train", _WRITES + _SCHEDULE + ["--config", "--data", "--epochs"],
     ["--data", "--out", "--seed"]),
    ("convert", _WRITES + _SCHEDULE + ["--data", "--diagnostics", "--model", "--no-snap",
                                       "--t-start", "--world"],
     ["--data", "--model", "--out", "--seed", "--t-start", "--world"]),
    ("sweep", _WRITES + _SCHEDULE + ["--model", "--n-seq", "--no-snap", "--seq-len",
                                     "--stratify-labels", "--t-starts", "--world"],
     ["--model", "--out", "--seed", "--world"]),
    ("posterior", _SCHEDULE + ["--dim", "--force", "--grid-hi", "--grid-lo", "--grid-points",
                               "--label", "--out-dir", "--t-starts", "--world", "--x0"],
     ["--out-dir", "--world", "--x0"]),
    ("verify", ["--seed"], []),
])
def test_each_command_keeps_its_options(command, options, required):
    """Every subcommand takes exactly these options, these ones required, so
    a flag lost or doubled among the shared declarations fails here."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    strings = [o for a in sub._actions for o in a.option_strings if o not in ("-h", "--help")]
    assert sorted(strings) == sorted(options)
    assert sorted(o for a in sub._actions if a.required for o in a.option_strings) == required


class TestGenWorld:
    def test_refuses_to_overwrite(self, pipeline, capsys):
        rc = cli.main(["gen-world", "--out", pipeline["world"], "--seed", "0"])
        assert rc == 2
        assert "--force" in capsys.readouterr().err

    def test_force_overwrites(self, tmp_path):
        out = str(tmp_path / "w.json")
        args = ["gen-world", "--out", out, "--seed", "3", "--dim", "2",
                "--labels", "2", "--codebook-size", "8"]
        assert cli.main(args) == 0
        assert cli.main(args + ["--force"]) == 0

    def test_flag_defaults_are_the_spec_defaults(self):
        args = cli.build_parser().parse_args(["gen-world", "--out", "w.json", "--seed", "0"])
        flags = {"n_labels": "labels", "n_components": "components"}
        assert WorldSpec(**{f.name: getattr(args, flags.get(f.name, f.name))
                            for f in dataclasses.fields(WorldSpec)}) == WorldSpec()

    def test_bad_spec_is_runtime_error(self, tmp_path, capsys):
        rc = cli.main(["gen-world", "--out", str(tmp_path / "w.json"),
                       "--seed", "0", "--var-lo", "2", "--var-hi", "1"])
        assert rc == 2

    @pytest.mark.parametrize("flags, message", [
        (["--mean-scale", "-1"], "--mean-scale must be >= 0, got -1.0"),
        (["--var-lo", "2", "--var-hi", "1"], "--var-hi must be >= --var-lo, got 1.0"),
        (["--var-lo", "0"], "--var-lo must be positive, got 0.0"),
        (["--h-noise", "nan"], "--h-noise must be a finite number, got nan"),
        (["--components", "0"], "--components must be >= 1, got 0"),
        (["--labels", BIG], f"--labels must be <= 262144 / (--components * --dim), got {BIG}"),
        (["--dim", BIG], f"--dim must be <= 1024, got {BIG}"),
        (["--components", BIG], f"--components must be <= 2048 / --dim, got {BIG}"),
        (["--codebook-size", BIG], f"--codebook-size must be <= 262144 / --dim, got {BIG}"),
    ])
    def test_range_error_names_the_flag_before_output(self, pipeline, tmp_path, capsys,
                                                      flags, message):
        """A spec value out of range is a usage error naming its flag, raised
        before the output path is checked, and nothing is written."""
        out = tmp_path / "w.json"
        rc = cli.main(["gen-world", "--out", pipeline["world"], "--seed", "0"] + flags)
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 2 and err == [f"error: {message}"]
        rc = cli.main(["gen-world", "--out", str(out), "--seed", "0"] + flags)
        assert rc == 2 and list(tmp_path.iterdir()) == []


class TestGenData:
    def test_missing_world_fails_cleanly(self, tmp_path, capsys):
        rc = cli.main(["gen-data", "--world", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "d.tsv"), "--seed", "0"])
        assert rc == 1

    @staticmethod
    def _gen_data_error(pipeline, tmp_path, capsys, edit) -> str:
        """Run gen-data on an edited copy of the world; return its one error line."""
        doc = json.loads(open(pipeline["world"]).read())
        edit(doc)
        world = tmp_path / "edited.json"
        world.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = cli.main(["gen-data", "--world", str(world),
                       "--out", str(tmp_path / "d.tsv"), "--seed", "0"])
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 1 and len(err) == 1
        assert not (tmp_path / "d.tsv").exists()
        return err[0]

    def test_world_without_codebook_names_the_field(self, pipeline, tmp_path, capsys):
        err = self._gen_data_error(pipeline, tmp_path, capsys, lambda d: d.pop("codebook"))
        assert err.startswith("error: ") and "edited.json" in err and "'codebook'" in err

    @pytest.mark.parametrize("field, edit", [
        ("native", lambda d: d["native"].update(
            {k: np.array(d["native"][k])[..., :1].tolist() for k in ("means", "variances")})),
        ("l2", lambda d: d["l2"].update({k: v[:2] for k, v in d["l2"].items()})),
        ("codebook", lambda d: d.update(codebook=[row + [0.0] for row in d["codebook"]])),
        ("standardizer", lambda d: d["standardizer"].update(mean=[0.0], std=[1.0])),
    ])
    def test_world_parts_must_match_the_spec(self, pipeline, tmp_path, capsys, field, edit):
        err = self._gen_data_error(pipeline, tmp_path, capsys, edit)
        assert err.startswith("error: ") and "edited.json" in err
        assert f"field {field!r} has shape" in err

    def test_convert_with_mismatched_world_writes_nothing(self, pipeline, tmp_path, capsys):
        doc = json.loads(open(pipeline["world"]).read())
        doc["l2"] = {k: v[:2] for k, v in doc["l2"].items()}
        world = tmp_path / "edited.json"
        world.write_text(json.dumps(doc))
        out, diag = tmp_path / "x.tsv", tmp_path / "d.csv"
        rc = cli.main(["convert", "--world", str(world), "--model", "exact",
                       "--data", pipeline["data"], "--out", str(out), "--seed", "0",
                       "--t-start", "10", "--diagnostics", str(diag)])
        assert rc == 1 and "'l2'" in capsys.readouterr().err
        assert not out.exists() and not diag.exists()

    def test_unknown_spec_key_names_the_field(self, pipeline, tmp_path, capsys):
        err = self._gen_data_error(pipeline, tmp_path, capsys,
                                   lambda d: d["spec"].update(tempo=3))
        assert err.startswith("error: ") and "edited.json" in err
        assert "'spec'" in err and "tempo" in err

    @pytest.mark.parametrize("field, edit, why", [
        ("native", lambda d: d["native"].update(extra=[1.0]), "unknown keys: extra"),
        ("l2", lambda d: d["l2"].update(extra=0), "unknown keys: extra"),
        ("standardizer", lambda d: d["standardizer"].update(extra=0), "unknown keys: extra"),
        ("native", lambda d: d["native"].pop("means"), "lacks key 'means'"),
        ("native", lambda d: d.update(native=list(d["native"].values())),
         "lacks key 'weights'"),
        ("codebook", lambda d: d["codebook"][0].__setitem__(0, 10 ** 400),
         "int too large to convert to float"),
    ], ids=["native-extra", "l2-extra", "standardizer-extra", "native-no-means",
            "native-list", "codebook-huge-int"])
    def test_malformed_field_names_the_file_and_field(self, pipeline, tmp_path, capsys,
                                                      field, edit, why):
        err = self._gen_data_error(pipeline, tmp_path, capsys, edit)
        assert err == f"error: {tmp_path / 'edited.json'}: field {field!r}: {why}"

    def test_unknown_top_level_key_names_the_file(self, pipeline, tmp_path, capsys):
        err = self._gen_data_error(pipeline, tmp_path, capsys,
                                   lambda d: d.update(bogus=1, zeta={}))
        assert err == f"error: {tmp_path / 'edited.json'}: unknown keys: bogus, zeta"

    def test_spec_out_of_range_names_the_file_and_field(self, pipeline, tmp_path, capsys):
        err = self._gen_data_error(pipeline, tmp_path, capsys,
                                   lambda d: d["spec"].update(var_hi=0.1))
        assert err.startswith("error: ") and "edited.json" in err
        assert "'spec'" in err and "var_hi: must be >= var_lo, got 0.1" in err

    def test_spec_past_a_size_bound_names_the_file_and_field(self, pipeline, tmp_path, capsys):
        err = self._gen_data_error(pipeline, tmp_path, capsys,
                                   lambda d: d["spec"].update(n_labels=int(BIG)))
        assert err.startswith("error: ") and "edited.json" in err and "'spec'" in err
        assert f"n_labels: must be <= 262144 / (n_components * dim), got {BIG}" in err

    def test_dataset_loads_back(self, pipeline):
        seqs, dim, n_labels = load_dataset(pipeline["data"])
        assert len(seqs) == 4
        assert dim == 2
        assert n_labels == 3
        assert all(s.zc2 is not None and s.h is not None for s in seqs)


class TestSweep:
    def test_writes_table_and_reruns_identically(self, pipeline, tmp_path):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        base = ["sweep", "--world", pipeline["world"], "--model", "exact",
                "--seed", "2", "--t-starts", "0,50", "--n-seq", "3",
                "--seq-len", "8"]
        assert cli.main(base + ["--out", a]) == 0
        assert cli.main(base + ["--out", b]) == 0
        blob = open(a, "rb").read()
        assert blob == open(b, "rb").read()
        lines = blob.decode().splitlines()
        assert lines[0] == "t_start,identity_l2,identity_cos,native_prob,n_frames"
        assert len(lines) == 3

    def test_stratify_labels_averages_per_label_means(self, pipeline, tmp_path):
        """``--stratify-labels`` writes the library's stratified rows, which
        on a world of three labels differ from the pooled ones."""
        base = ["sweep", "--world", pipeline["world"], "--model", "exact",
                "--seed", "2", "--t-starts", "0,50", "--n-seq", "3", "--seq-len", "8"]
        pooled, strat = str(tmp_path / "pooled.csv"), str(tmp_path / "strat.csv")
        assert cli.main(base + ["--out", pooled]) == 0
        assert cli.main(base + ["--out", strat, "--stratify-labels"]) == 0
        world = load_world(pipeline["world"])
        ctx = build_context(world, default_schedule(), None)
        want = sweep_csv(sweep(world, ctx, [0, 50], 3, 8, 2, stratify_labels=True))
        assert Path(strat).read_text() == want
        assert Path(strat).read_text() != Path(pooled).read_text()

    @pytest.mark.parametrize("snap", [[], ["--no-snap"]])
    def test_stratified_equals_pooled_on_one_label(self, tmp_path, snap):
        """With one label the per-label mean is the pooled mean, byte for byte."""
        world = str(tmp_path / "w.json")
        assert cli.main(["gen-world", "--out", world, "--seed", "4", "--dim", "2",
                         "--labels", "1", "--codebook-size", "8"]) == 0
        base = ["sweep", "--world", world, "--model", "exact", "--seed", "3",
                "--t-starts", "0,40,80", "--n-seq", "3", "--seq-len", "7"] + snap
        pooled, strat = tmp_path / "pooled.csv", tmp_path / "strat.csv"
        assert cli.main(base + ["--out", str(pooled)]) == 0
        assert cli.main(base + ["--out", str(strat), "--stratify-labels"]) == 0
        assert strat.read_bytes() == pooled.read_bytes()

    def test_bad_t_starts_rejected(self, pipeline, tmp_path, capsys):
        rc = cli.main(["sweep", "--world", pipeline["world"], "--model", "exact",
                       "--out", str(tmp_path / "s.csv"), "--seed", "0",
                       "--t-starts", "0,abc"])
        assert rc == 2
        assert "comma-separated" in capsys.readouterr().err


class TestConvert:
    def test_exact_conversion_with_diagnostics(self, pipeline, tmp_path):
        out = str(tmp_path / "converted.tsv")
        diag = str(tmp_path / "diag.csv")
        rc = cli.main(["convert", "--world", pipeline["world"], "--model", "exact",
                       "--data", pipeline["data"], "--out", out, "--seed", "4",
                       "--t-start", "40", "--diagnostics", diag])
        assert rc == 0
        seqs, dim, _ = load_dataset(out)
        assert dim == 2 and len(seqs) == 4
        lines = open(diag).read().splitlines()
        assert lines[0] == "id,t_start,identity_l2,identity_cos,native_prob"
        assert len(lines) == 5
        assert lines[1].startswith("l2-00000,40,")
        world = load_world(pipeline["world"])
        inputs, _, _ = load_dataset(pipeline["data"])
        for line, inp, got in zip(lines[1:], inputs, seqs):
            l2d, cos, prob = frame_metrics(inp.frames, got.frames, inp.labels,
                                           world.native, world.l2)
            row = line.split(",")
            assert row[0] == inp.id
            assert float(row[2]) == l2d.mean() and float(row[3]) == cos.mean()
            assert float(row[4]) == prob.mean()

    def test_diagnostics_quote_ids(self, pipeline, tmp_path):
        """Ids holding a comma or a quote are quoted, so every row has the
        header's five columns; a plain id is written as it is."""
        ids = ["spk,01", 'say "hi"', "plain"]
        seqs, _, n_labels = load_dataset(pipeline["data"])
        data = str(tmp_path / "ids.tsv")
        save_dataset([dataclasses.replace(s, id=i) for s, i in zip(seqs, ids)], data, n_labels)
        diag = tmp_path / "diag.csv"
        assert cli.main(["convert", "--world", pipeline["world"], "--model", "exact",
                         "--data", data, "--out", str(tmp_path / "x.tsv"), "--seed", "4",
                         "--t-start", "40", "--diagnostics", str(diag)]) == 0
        text = diag.read_text()
        rows = list(csv.reader(text.splitlines()))
        assert [len(r) for r in rows] == [5] * 4
        assert [r[0] for r in rows[1:]] == ids
        assert text.splitlines()[3] == ",".join(rows[3])

    def test_dim_mismatch_is_usage_error(self, pipeline, tmp_path, capsys):
        other_world = str(tmp_path / "w3.json")
        assert cli.main(["gen-world", "--out", other_world, "--seed", "9",
                         "--dim", "3", "--labels", "3",
                         "--codebook-size", "8"]) == 0
        rc = cli.main(["convert", "--world", other_world, "--model", "exact",
                       "--data", pipeline["data"],
                       "--out", str(tmp_path / "x.tsv"), "--seed", "0",
                       "--t-start", "10"])
        assert rc == 2
        assert "dim" in capsys.readouterr().err


    def test_dataset_labels_beyond_the_world_fail_before_work(self, pipeline, tmp_path,
                                                              capsys):
        seqs, _, _ = load_dataset(pipeline["data"])
        assert max(s.labels.max() for s in seqs) == 2
        world = str(tmp_path / "w2.json")
        assert cli.main(["gen-world", "--out", world, "--seed", "9", "--dim", "2",
                         "--labels", "2", "--codebook-size", "8"]) == 0
        capsys.readouterr()
        out, diag = tmp_path / "x.tsv", tmp_path / "d.csv"
        rc = cli.main(["convert", "--world", world, "--model", "exact",
                       "--data", pipeline["data"], "--out", str(out), "--seed", "0",
                       "--t-start", "10", "--diagnostics", str(diag)])
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 2 and len(err) == 1
        assert err[0].startswith(f"error: {pipeline['data']}: labels: ") and "label 2" in err[0]
        assert not out.exists() and not diag.exists()

    def test_dataset_label_past_int64_fails_cleanly(self, pipeline, tmp_path, capsys):
        data = tmp_path / "big.tsv"
        data.write_text("#dim=2 labels=3\ns0\t99999999999999999999\t0.5,0.5\n")
        rc = cli.main(["convert", "--world", pipeline["world"], "--model", "exact",
                       "--data", str(data), "--out", str(tmp_path / "x.tsv"), "--seed", "0",
                       "--t-start", "10"])
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 1 and len(err) == 1 and err[0].startswith(f"error: {data}:2: labels: ")
        assert [p.name for p in tmp_path.iterdir()] == ["big.tsv"]


@pytest.fixture(scope="module")
def trained(pipeline, tmp_path_factory):
    root = tmp_path_factory.mktemp("train")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({
        "epochs": 2, "batch_size": 16, "lr": 1e-3, "hidden": [8],
        "residual_hidden": [6], "cond_dim": 4, "time_dim": 4,
        "dropout": 0.0,
    }))
    model = str(root / "model.txt")
    rc = cli.main(["train", "--data", pipeline["data"], "--out", model,
                   "--seed", "7", "--config", str(cfg)])
    assert rc == 0
    return {"root": root, "cfg": str(cfg), "model": model}


class TestTrainCommand:
    def test_model_file_written(self, trained):
        head = open(trained["model"]).readline().strip()
        assert head == "PRIORSHIFT-MODEL v1"

    def test_retrain_is_byte_identical(self, pipeline, trained):
        again = str(trained["root"] / "model2.txt")
        rc = cli.main(["train", "--data", pipeline["data"], "--out", again,
                       "--seed", "7", "--config", trained["cfg"]])
        assert rc == 0
        assert open(trained["model"], "rb").read() == open(again, "rb").read()

    def test_epochs_override_changes_model(self, pipeline, trained):
        other = str(trained["root"] / "model3.txt")
        rc = cli.main(["train", "--data", pipeline["data"], "--out", other,
                       "--seed", "7", "--config", trained["cfg"],
                       "--epochs", "1"])
        assert rc == 0
        assert open(trained["model"], "rb").read() != open(other, "rb").read()

    def test_convert_with_trained_model(self, pipeline, trained, tmp_path):
        out = str(tmp_path / "converted.tsv")
        rc = cli.main(["convert", "--world", pipeline["world"],
                       "--model", trained["model"], "--data", pipeline["data"],
                       "--out", out, "--seed", "1", "--t-start", "25"])
        assert rc == 0
        seqs, dim, _ = load_dataset(out)
        assert dim == 2 and len(seqs) == 4

    def test_schedule_flags_conflict_with_model_file(self, pipeline, trained,
                                                     tmp_path, capsys):
        rc = cli.main(["convert", "--world", pipeline["world"],
                       "--model", trained["model"], "--data", pipeline["data"],
                       "--out", str(tmp_path / "x.tsv"), "--seed", "1",
                       "--t-start", "25", "--T", "50"])
        assert rc == 2
        assert "schedule" in capsys.readouterr().err

    @pytest.mark.parametrize("command, field, dim, labels", [
        ("convert", "labels", 2, 4),
        ("convert", "dim", 3, 3),
        ("sweep", "dim", 3, 3),
        ("sweep", "labels", 2, 5),
    ])
    def test_model_not_matching_the_world_fails_before_work(
        self, pipeline, trained, tmp_path, capsys, command, field, dim, labels
    ):
        """The model has dim 2 and 3 labels; a world that differs in either
        fails up front with one line naming the model file and the field."""
        world = str(tmp_path / "other.json")
        assert cli.main(["gen-world", "--out", world, "--seed", "9", "--dim", str(dim),
                         "--labels", str(labels), "--codebook-size", "8"]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        args = [command, "--world", world, "--model", trained["model"], "--out", str(out),
                "--seed", "1"]
        if command == "convert":
            data = pipeline["data"]
            if dim != 2:
                data = str(tmp_path / "d3.tsv")
                assert cli.main(["gen-data", "--world", world, "--out", data, "--seed", "2",
                                 "--n-seq", "2", "--seq-len", "4"]) == 0
                capsys.readouterr()
            args += ["--data", data, "--t-start", "25"]
        else:
            args += ["--t-starts", "0,5", "--n-seq", "2", "--seq-len", "4"]
        rc = cli.main(args)
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 2 and len(err) == 1
        assert err[0].startswith(f"error: {trained['model']}: {field}: model has ")
        assert not out.exists()

    def test_unknown_config_key_rejected(self, pipeline, tmp_path, capsys):
        for key in ("warmup", "seed"):
            cfg = tmp_path / "bad.json"
            cfg.write_text(json.dumps({"epochs": 1, key: 10}))
            rc = cli.main(["train", "--data", pipeline["data"],
                           "--out", str(tmp_path / "m.txt"), "--seed", "0",
                           "--config", str(cfg)])
            assert rc == 2
            assert capsys.readouterr().err.rstrip().endswith(f"keys: {key}")

    def test_malformed_config_value_names_the_field(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"hidden": 5}))
        rc = cli.main(["train", "--data", pipeline["data"],
                       "--out", str(tmp_path / "m.txt"), "--seed", "0",
                       "--config", str(cfg)])
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 2 and len(err) == 1
        assert err[0].startswith(f"error: {cfg}: hidden: ")
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("widths", [[0], [-2]])
    def test_nonpositive_residual_width_names_the_field(self, pipeline, tmp_path, capsys,
                                                        widths):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"residual_hidden": widths}))
        rc = cli.main(["train", "--data", pipeline["data"],
                       "--out", str(tmp_path / "m.txt"), "--seed", "0",
                       "--config", str(cfg)])
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 2 and len(err) == 1
        assert err[0].startswith(f"error: {cfg}: residual_hidden: ")
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("doc, flags, message", [
        (None, ["--epochs", BIG], f"--epochs must be <= 10000, got {BIG}"),
        ({"epochs": int(BIG)}, [], f"epochs: must be <= 10000, got {BIG}"),
    ])
    def test_epochs_bounded_before_the_data_is_read(self, tmp_path, capsys, doc, flags,
                                                    message):
        """Too many epochs fails as one line naming the flag or the config file,
        before the (here missing) data file is opened."""
        args = ["train", "--data", str(tmp_path / "missing.tsv"),
                "--out", str(tmp_path / "m.txt"), "--seed", "0"] + flags
        if doc is not None:
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps(doc))
            args += ["--config", str(cfg)]
            message = f"{cfg}: {message}"
        rc = cli.main(args)
        assert rc == 2 and capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("doc, flags, field", [
        ({"lr": -1}, [], "lr"),
        ({"batch_size": 0}, [], "batch_size"),
        ({"dropout": 1.0}, [], "dropout"),
        (None, ["--epochs", "-1"], "--epochs"),
        ({"adam_eps": float("inf")}, [], "adam_eps"),
        ({"lr": float("inf")}, [], "lr"),
    ])
    def test_out_of_range_value_names_the_field(self, pipeline, tmp_path, capsys,
                                                doc, flags, field):
        """A config file value out of range is checked before ``--epochs``
        applies and names the file; a bad ``--epochs`` names the flag."""
        args = ["train", "--data", pipeline["data"], "--out", str(tmp_path / "m.txt"),
                "--seed", "0"] + flags
        prefix = f"error: {field}"
        if doc is not None:
            cfg = tmp_path / "bad.json"
            cfg.write_text(json.dumps(doc))
            args += ["--config", str(cfg), "--epochs", "1"]
            prefix = f"error: {cfg}: {field}: "
        rc = cli.main(args)
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 2 and len(err) == 1
        assert err[0].startswith(prefix)
        assert not (tmp_path / "m.txt").exists()


def test_gen_world_peak_memory_is_bounded(tmp_path):
    """``gen-world`` snaps its 8,192-frame standardizer sample in row blocks:
    with a 256-entry codebook a fresh process stays under 150 MB (329 MB
    when the snap built one (n, M, d) block)."""
    script = ("import resource, sys\n"
              "from priorshift import cli\n"
              "rc = cli.main(sys.argv[1:])\n"
              "print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-c", script, "-q", "gen-world", "--out", str(tmp_path / "w.json"),
         "--seed", "3", "--codebook-size", "256"],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    rc, max_rss_kb = done.stdout.split()
    assert rc == "0"
    assert int(max_rss_kb) / 1024 < 150


class TestPosterior:
    def test_writes_curves(self, pipeline, tmp_path):
        out_dir = tmp_path / "curves"
        rc = cli.main(["posterior", "--world", pipeline["world"],
                       "--out-dir", str(out_dir), "--x0", "3.0",
                       "--t-starts", "1,50", "--grid-points", "1001"])
        assert rc == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["likelihood_t001.csv", "likelihood_t050.csv",
                         "posterior_t001.csv", "posterior_t050.csv", "prior.csv"]
        for name in names:
            lines = (out_dir / name).read_text().splitlines()
            assert lines[0] == "x,density"
            assert len(lines) == 1002

    def test_unresolved_grid_fails_without_warnings_or_output(self, pipeline, tmp_path,
                                                               capsys):
        """A grid whose spacing dwarfs the posterior fails as one error line,
        with no overflow warning and no output directory."""
        out_dir = tmp_path / "curves"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["posterior", "--world", pipeline["world"], "--out-dir",
                           str(out_dir), "--x0", "1.5", "--grid-lo=-1e200", "--grid-hi=1e200"])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1 and len(err) == 1
        assert err[0].startswith("error: grid too coarse: 1 of 2001 points")
        assert [str(w.message) for w in caught] == []
        assert not out_dir.exists()

    @pytest.mark.parametrize("x0", ["60", "-200"])
    def test_default_grid_resolves_far_frames(self, pipeline, tmp_path, x0):
        """Far from the prior's means the default grid's span grows, so it
        takes the points that the start-step-1 posterior, ~0.01 wide, needs."""
        out_dir = tmp_path / "curves"
        rc = cli.main(["posterior", "--world", pipeline["world"], "--out-dir", str(out_dir),
                       f"--x0={x0}", "--t-starts", "1,100"])
        assert rc == 0
        dens = np.loadtxt(out_dir / "posterior_t001.csv", delimiter=",", skiprows=1)[:, 1]
        assert dens.shape[0] > 2001
        assert np.count_nonzero(dens > 1e-6 * dens.max()) >= 3

    def test_default_grid_keeps_2001_points_near_the_means(self, pipeline, tmp_path):
        out_dir = tmp_path / "curves"
        assert cli.main(["posterior", "--world", pipeline["world"], "--out-dir", str(out_dir),
                         "--x0", "1.5", "--t-starts", "1"]) == 0
        assert len((out_dir / "posterior_t001.csv").read_text().splitlines()) == 2002

    @pytest.mark.parametrize("flags, message", [
        (["--x0", "1e6"], "--x0 1000000.0 needs a default grid of 2.85e+07 points, "
                          "over 4194304; pass --grid-lo and --grid-hi"),
        (["--x0", "1e300"], "--x0 1e+300 needs a default grid of "),
        (["--x0=-1e307"], "--x0 -1e+307 needs a default grid of inf points, "),
        (["--x0", "1.5", "--grid-points", "1000000000"],
         "--grid-points must be <= 4194304, got 1000000000"),
    ], ids=["x0-far", "x0-huge", "x0-past-float-range", "grid-points"])
    def test_grid_size_is_bounded(self, pipeline, tmp_path, capsys, flags, message):
        """A grid over MAX_GRID_POINTS fails as one usage error before any
        array is sized, naming the flag that asked for it, and creates no
        output directory."""
        out_dir = tmp_path / "curves"
        rc = cli.main(["posterior", "--world", pipeline["world"], "--out-dir", str(out_dir),
                       "--t-starts", "1"] + flags)
        err = capsys.readouterr().err.splitlines()
        assert rc == 2 and len(err) == 1 and err[0].startswith(f"error: {message}")
        assert not out_dir.exists()

    def test_nonempty_dir_needs_force(self, pipeline, tmp_path, capsys):
        out_dir = tmp_path / "curves"
        out_dir.mkdir()
        (out_dir / "stale.csv").write_text("x\n")
        args = ["posterior", "--world", pipeline["world"],
                "--out-dir", str(out_dir), "--x0", "1.0",
                "--t-starts", "50", "--grid-points", "51"]
        assert cli.main(args) == 2
        assert cli.main(args + ["--force"]) == 0


@pytest.mark.parametrize("argv, flag, message", [
    (["convert", "--t-start", "101"], "--t-start", "must lie in [0, 100], got 101"),
    (["convert", "--t-start", "-1"], "--t-start", "must lie in [0, 100], got -1"),
    (["sweep", "--t-starts", "0,101"], "--t-starts", "must lie in [0, 100], got 101"),
    (["sweep", "--t-starts", "50,25"], "--t-starts", "must be distinct and ascending"),
    (["posterior", "--t-starts", "0,50"], "--t-starts", "must lie in [1, 100], got 0"),
    (["posterior", "--grid-points", "3"], "--grid-points", "must be >= 8, got 3"),
    (["posterior", "--grid-lo", "3", "--grid-hi", "-3"], "--grid-lo",
     "must lie below --grid-hi, got 3.0 and -3.0"),
    (["posterior", "--dim", "99"], "--dim", "must lie in [0, 2)"),
    (["posterior", "--label", "99"], "--label", "must lie in [0, 3)"),
    (["posterior", "--label", "-1"], "--label", "got -1"),
    (["posterior", "--grid-lo", "100"], "--grid-lo", "must lie below --grid-hi, got 100.0 and "),
    (["posterior", "--grid-hi", "-100"], "--grid-hi", "must lie above --grid-lo, got -100.0 and "),
    (["posterior", "--grid-lo", "nan"], "--grid-lo", "must be finite, got nan"),
    (["posterior", "--grid-hi", "inf"], "--grid-hi", "must be finite, got inf"),
    (["posterior", "--x0", "nan"], "--x0", "must be finite, got nan"),
    (["posterior", "--x0", "1.5", "--grid-lo=-1e308", "--grid-hi=1e308"], "--grid-lo",
     "and --grid-hi must lie a finite distance apart, got -1e+308 and 1e+308"),
    (["posterior", "--T", "1"], "--T", "must be an integer >= 2, got 1"),
    (["posterior", "--T", "100000000000"], "--T", "must be at most 10000, got 100000000000"),
    (["posterior", "--beta-min", "0.5", "--beta-max", "0.1"], "--beta-max",
     "must lie in [--beta-min, 1), got 0.1"),
    (["convert", "--t-start", "5", "--T", "1"], "--T", "must be an integer >= 2, got 1"),
    (["convert", "--t-start", "5", "--beta-min", "0"], "--beta-min",
     "must lie in (0, 1), got 0.0"),
    (["convert", "--t-start", "5", "--beta-max", "1"], "--beta-max",
     "must lie in [--beta-min, 1), got 1.0"),
], ids=["convert-high", "convert-negative", "sweep-high", "sweep-descending",
        "posterior-zero", "posterior-grid-points", "posterior-grid-order", "posterior-dim",
        "posterior-label", "posterior-label-negative", "posterior-grid-lo-alone",
        "posterior-grid-hi-alone", "posterior-grid-lo-nan", "posterior-grid-hi-inf",
        "posterior-x0-nan", "posterior-grid-span", "posterior-T", "posterior-T-huge",
        "posterior-beta-order",
        "convert-T", "convert-beta-min", "convert-beta-max"])
def test_start_step_flags_checked_before_output(pipeline, tmp_path, capsys, argv, flag,
                                                message):
    """A start step off the schedule is a usage error naming the flag, and
    nothing is written."""
    out = tmp_path / "out"
    extra = {
        "convert": ["--model", "exact", "--seed", "0", "--data", pipeline["data"],
                    "--out", str(out), "--diagnostics", str(tmp_path / "diag.csv")],
        "sweep": ["--model", "exact", "--seed", "0", "--out", str(out), "--n-seq", "2",
                  "--seq-len", "4"],
        "posterior": ["--out-dir", str(out), "--x0", "1.0"],
    }[argv[0]]
    capsys.readouterr()
    # The case's own flags come last, so they override the fixed ones.
    rc = cli.main(argv[:1] + ["--world", pipeline["world"]] + extra + argv[1:])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 2 and len(err) == 1
    assert err[0].startswith(f"error: {flag} ") and message in err[0]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, value, why", [
    pytest.param(command, value, why, id=f"{command}-{case}")
    for command, lo in (("convert", 0), ("sweep", 0), ("posterior", 1))
    for case, value, why in (
        ("high", "101", f"must lie in [{lo}, 100], got 101"),
        ("negative", "-1", f"must lie in [{lo}, 100], got -1"),
        ("empty", "", "must be distinct and ascending, got []"),
        ("repeated", "5,5", "must be distinct and ascending, got [5, 5]"),
        ("descending", "50,25", "must be distinct and ascending, got [50, 25]"),
    ) if command != "convert" or case in ("high", "negative")
])
def test_start_step_rule_names_the_flag(pipeline, tmp_path, capsys, command, value, why):
    """Every command's start steps follow the library's one rule: off it, one
    error line names the flag (exit status 2) and nothing is written."""
    out = tmp_path / "out"
    flag, extra = {
        "convert": ("--t-start", ["--model", "exact", "--seed", "0", "--data", pipeline["data"],
                                  "--out", str(out), "--diagnostics", str(tmp_path / "d.csv")]),
        "sweep": ("--t-starts", ["--model", "exact", "--seed", "0", "--out", str(out),
                                 "--n-seq", "2", "--seq-len", "4"]),
        "posterior": ("--t-starts", ["--out-dir", str(out), "--x0", "1.0"]),
    }[command]
    capsys.readouterr()
    rc = cli.main([command, "--world", pipeline["world"], f"{flag}={value}"] + extra)
    assert rc == 2 and capsys.readouterr().err.splitlines() == [f"error: {flag} {why}"]
    assert list(tmp_path.iterdir()) == []


def test_constant_world_dimension_fails_cleanly(tmp_path, capsys):
    """A one-entry codebook snaps the standardizer sample to one frame, so
    every dimension is constant: one error line, and nothing written."""
    out = tmp_path / "w.json"
    rc = cli.main(["gen-world", "--out", str(out), "--seed", "1", "--dim", "2",
                   "--labels", "3", "--codebook-size", "1"])
    assert rc == 1 and capsys.readouterr().err.splitlines() == [
        "error: all frames equal in dimension 0"]
    assert not out.exists()


def test_model_schedule_over_the_step_bound_fails_at_load(pipeline, trained, tmp_path,
                                                          capsys):
    """A model file's step count above the bound fails at load, naming the
    file and the field, before any table is allocated."""
    text = Path(trained["model"]).read_text()
    model = tmp_path / "model.txt"
    model.write_text(re.sub(r"(?m)^schedule (\S+) (\S+) \d+$",
                            r"schedule \1 \2 100000000000", text, count=1))
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--world", pipeline["world"], "--model", str(model),
                   "--out", str(out), "--seed", "0", "--n-seq", "2", "--seq-len", "4"])
    assert rc == 1 and capsys.readouterr().err.splitlines() == [
        f"error: {model}: schedule: T: must be at most 10000, got 100000000000"]
    assert not out.exists()


def test_memory_error_is_one_line(monkeypatch, tmp_path, capsys):
    """An allocation the system refuses (here raised by a stand-in, so no
    run asks for the memory) ends in one error line with exit status 1."""
    def refuse(spec):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape "
                          "(100000000000,) and data type int64")

    monkeypatch.setattr(cli, "gen_world", refuse)
    out = tmp_path / "w.json"
    rc = cli.main(["gen-world", "--out", str(out), "--seed", "0"])
    assert rc == 1 and capsys.readouterr().err.splitlines() == [
        "error: Unable to allocate 745. GiB for an array with shape (100000000000,) and "
        "data type int64"]
    assert not out.exists()


def test_unmapped_library_error_passes_through(tmp_path, capsys):
    """A library error that names no flag's field reaches the user verbatim,
    with exit status 1: here no world separates its classes enough within
    the attempts allowed."""
    out = tmp_path / "w.json"
    rc = cli.main(["gen-world", "--out", str(out), "--seed", "0", "--l2-shift", "0.001"])
    assert rc == 1 and capsys.readouterr().err.splitlines() == [
        "error: no world with class separation >= 0.2 in 64 attempts"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["convert", "train"])
def test_missing_tracks_fail_up_front_naming_the_file(command, pipeline, trained, tmp_path,
                                                      capsys):
    """A dataset without the tracks a stage needs (a converted one: no zc2,
    no h) is a usage error naming the ``--data`` file and the track, raised
    before anything is written."""
    seqs, _, n_labels = load_dataset(pipeline["data"])
    data, out = tmp_path / "no_h.tsv", tmp_path / "out.tsv"
    save_dataset([dataclasses.replace(s, zc2=None, h=None) for s in seqs], str(data), n_labels)
    capsys.readouterr()
    if command == "convert":
        argv = ["convert", "--world", pipeline["world"], "--model", trained["model"],
                "--t-start", "5"]
        track, user = "h", "the model's residual head"
    else:
        argv, track, user = ["train", "--epochs", "1"], "zc2", "training"
    rc = cli.main(argv + ["--data", str(data), "--out", str(out), "--seed", "0"])
    assert rc == 2 and capsys.readouterr().err.splitlines() == [
        f"error: --data {data}: sequence {seqs[0].id!r} lacks the {track} track, which {user} "
        "needs"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["no_h.tsv"]


@pytest.mark.parametrize("argv, flag, value", [
    (["gen-world", "--dim", "0"], "--dim", 0),
    (["gen-world", "--labels", "0"], "--labels", 0),
    (["gen-world", "--components", "-2"], "--components", -2),
    (["gen-world", "--codebook-size", "0"], "--codebook-size", 0),
    (["gen-data", "--n-seq", "0"], "--n-seq", 0),
    (["gen-data", "--seq-len", "0"], "--seq-len", 0),
    (["sweep", "--n-seq", "0"], "--n-seq", 0),
    (["sweep", "--seq-len", "-1"], "--seq-len", -1),
], ids=["gen-world-dim", "gen-world-labels", "gen-world-components", "gen-world-codebook-size",
        "gen-data-n-seq", "gen-data-seq-len", "sweep-n-seq", "sweep-seq-len"])
def test_size_flags_checked_before_any_file(tmp_path, capsys, argv, flag, value):
    """A size below one is a usage error naming the flag, raised before the
    world or model file (both missing here) is read, and nothing is written."""
    missing = str(tmp_path / "missing")
    extra = {
        "gen-world": [],
        "gen-data": ["--world", missing],
        "sweep": ["--world", missing, "--model", missing],
    }[argv[0]]
    out = tmp_path / "out"
    rc = cli.main(argv + extra + ["--seed", "0", "--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 2 and err == [f"error: {flag} must be >= 1, got {value}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["gen-data", "sweep"])
@pytest.mark.parametrize("n_seq, seq_len", [(10 ** 20, 50), (cli.MAX_FRAMES + 1, 1),
                                            (2, cli.MAX_FRAMES // 2 + 1)])
def test_frame_count_bounded_before_any_file(tmp_path, capsys, command, n_seq, seq_len):
    """More than ``cli.MAX_FRAMES`` frames is a usage error naming both size
    flags, raised before the world or model file (both missing here) is read."""
    missing = str(tmp_path / "missing")
    inputs = ["--world", missing] + (["--model", missing] if command == "sweep" else [])
    rc = cli.main([command, *inputs, "--seed", "0", "--out", str(tmp_path / "out"),
                   "--n-seq", str(n_seq), "--seq-len", str(seq_len)])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 2 and err == [f"error: --n-seq times --seq-len must be <= {cli.MAX_FRAMES} "
                               f"frames, got {n_seq} * {seq_len}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["gen-world", "gen-data", "train", "convert", "sweep",
                                     "verify"])
@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_seed_checked_before_any_file(tmp_path, capsys, command, seed):
    """A seed outside [0, 2**64) is a usage error naming the flag, raised
    before any input file (all missing here) is read, and nothing is written."""
    missing = str(tmp_path / "missing")
    out = str(tmp_path / "out")
    argv = [command, "--seed", seed] + {
        "gen-world": ["--out", out],
        "gen-data": ["--world", missing, "--out", out],
        "train": ["--data", missing, "--out", out],
        "convert": ["--world", missing, "--model", missing, "--data", missing,
                    "--t-start", "5", "--out", out],
        "sweep": ["--world", missing, "--model", missing, "--out", out],
        "verify": [],
    }[command]
    rc = cli.main(argv)
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 2 and err == [f"error: --seed must lie in [0, 2**64), got {seed}"]
    assert list(tmp_path.iterdir()) == []


_OUTPUT_FLAGS = [("gen-world", "--out"), ("gen-data", "--out"), ("train", "--out"),
                 ("convert", "--out"), ("convert", "--diagnostics"), ("sweep", "--out"),
                 ("posterior", "--out-dir")]


@pytest.mark.parametrize("command, flag, problem", [
    pytest.param(command, flag, problem,
                 id=f"{command}-{flag}" + ("" if problem == "exists" else "-no-directory"))
    for problem in ("exists", "no directory") for command, flag in _OUTPUT_FLAGS
    if problem == "no directory" or command != "gen-world"])
def test_existing_output_fails_before_any_input_is_read(pipeline, tmp_path, capsys, command,
                                                        flag, problem):
    """The output paths are checked first: with an input path naming a
    missing file, the refusal to overwrite an output, or to write one into a
    directory that does not exist, still comes first."""
    missing = str(tmp_path / "missing")
    paths = {"--out": tmp_path / "out", "--diagnostics": tmp_path / "diag.csv",
             "--out-dir": tmp_path / "out"}
    if problem == "exists":
        kept = paths[flag] / "stale.csv" if flag == "--out-dir" else paths[flag]
        kept.parent.mkdir(exist_ok=True)
        prefix, want = "output ", "pass --force to overwrite"
    elif flag == "--out-dir":  # a regular file where the directory should be
        kept = paths[flag]
        prefix, want = "", f"--out-dir {kept} is not a directory"
    else:
        kept = paths[flag] = tmp_path / "nodir" / paths[flag].name
        prefix, want = "output path ", f"{kept.parent} is not a directory"
    out, diag, out_dir = (str(paths[f]) for f in ("--out", "--diagnostics", "--out-dir"))
    argv = [command] + {
        "gen-world": ["--seed", "0", "--out", out],
        "gen-data": ["--seed", "0", "--world", missing, "--out", out],
        "train": ["--seed", "0", "--data", missing, "--out", out],
        "convert": ["--seed", "0", "--world", pipeline["world"], "--model", missing,
                    "--data", pipeline["data"], "--t-start", "5", "--out", out,
                    "--diagnostics", diag],
        "sweep": ["--seed", "0", "--world", pipeline["world"], "--model", missing,
                  "--out", out],
        "posterior": ["--world", missing, "--x0", "1.0", "--out-dir", out_dir],
    }[command]
    if kept.parent.is_dir():
        kept.write_text("keep\n")
    rc = cli.main(argv)
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 2 and len(err) == 1
    assert err[0].startswith(f"error: {prefix}") and err[0].endswith(want)
    written = sorted(tmp_path.rglob("*"))
    if kept.exists():
        assert written == sorted({kept, kept.parent} - {tmp_path})
        assert kept.read_text() == "keep\n"
    else:
        assert written == []


@pytest.mark.parametrize("diagnostics", ["out.tsv", "sub/../out.tsv"])
@pytest.mark.parametrize("existing", [False, True])
def test_diagnostics_must_not_be_the_output(pipeline, tmp_path, capsys, monkeypatch,
                                            diagnostics, existing):
    """``--diagnostics`` naming ``--out``'s file would replace the converted
    dataset: a usage error, even with ``--force``, before any work."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    out = tmp_path / "out.tsv"
    argv = ["convert", "--world", pipeline["world"], "--model", "exact", "--data",
            pipeline["data"], "--seed", "0", "--t-start", "5", "--out", str(out),
            "--diagnostics", diagnostics]
    if existing:
        out.write_text("keep\n")
        argv.append("--force")
    rc = cli.main(argv)
    assert rc == 2 and capsys.readouterr().err.splitlines() == [
        f"error: --diagnostics must name a file other than --out's {out}"]
    kept = {tmp_path / "sub", out} if existing else {tmp_path / "sub"}
    assert sorted(tmp_path.rglob("*")) == sorted(kept)
    assert not existing or out.read_text() == "keep\n"


class TestVerify:
    def test_all_suites_pass(self, capsys):
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3
        assert all(line.startswith("PASS ") for line in out)
        names = {line.split()[1].rstrip(":") for line in out}
        assert names == {"gradient-check", "posterior-grid", "sampler-identities"}
