"""``scripts/acceptance_pipeline.sh``, the one-command check that two
checkouts agree on every output and error message, is itself deterministic,
and every failing invocation it records fails with one line."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "acceptance_pipeline.sh"


def _run(out_dir: Path) -> subprocess.CompletedProcess:
    # The script runs `python`: make that the interpreter running the tests.
    env = dict(os.environ, PATH=os.pathsep.join(
        p for p in (os.path.dirname(sys.executable), os.environ.get("PATH")) if p))
    return subprocess.run(["sh", str(SCRIPT), str(out_dir)], capture_output=True, text=True,
                          env=env, timeout=300)


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> list[Path]:
    """Two runs of the pipeline, each into its own new directory."""
    root = tmp_path_factory.mktemp("pipeline")
    for name in ("a", "b"):
        done = _run(root / name)
        assert done.returncode == 0, done.stderr
    return [root / "a", root / "b"]


def test_reruns_are_byte_identical(runs):
    a, b = _tree(runs[0]), _tree(runs[1])
    assert "verify.txt" in a and "posterior/prior.csv" in a and "errors.txt" in a
    assert "convert_exact_nosnap.tsv" in a and "convert_model_nosnap.tsv" in a
    assert "convert_arch_nosnap.tsv" in a and "sweep_arch.csv" in a
    assert "sweep_exact_strat.csv" in a
    assert sorted(a) == sorted(b)
    assert [name for name in a if a[name] != b[name]] == []


def test_failing_invocations_print_one_error_line_and_write_nothing(runs):
    """Each failing invocation recorded in errors.txt exits 1 or 2 with one
    ``error:`` line, and leaves no file beside the bad inputs it was given."""
    text = (runs[0] / "errors.txt").read_text(encoding="utf-8")
    cases = [case.splitlines() for case in text.split("$ priorshift ")[1:]]
    assert len(cases) == 16
    for command, status, *err in cases:
        assert status in ("exit 1", "exit 2") and len(err) == 1, command
        assert err[0].startswith("error: ") and "Traceback" not in err[0], command
    assert sorted(p.name for p in (runs[0] / "bad").iterdir()) == [
        "big_label.tsv", "huge_int.json", "native_extra.json", "trailing_line.txt"]
    assert not (runs[0] / "nodir").exists()


def test_refuses_an_existing_out_dir(tmp_path):
    (tmp_path / "keep.txt").write_text("keep\n")
    done = _run(tmp_path)
    assert done.returncode == 2 and "already exists" in done.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["keep.txt"]
