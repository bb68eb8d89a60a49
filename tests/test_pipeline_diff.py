"""``scripts/pipeline_diff.sh`` refuses bad invocations with one line and
exit status 2 before it runs any pipeline step or creates anything."""
import subprocess
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "pipeline_diff.sh"


def _run(*args) -> subprocess.CompletedProcess:
    return subprocess.run(["sh", str(SCRIPT), *map(str, args)], capture_output=True, text=True,
                          timeout=60)


def _refused(done: subprocess.CompletedProcess, why: str) -> bool:
    return done.returncode == 2 and done.stdout == "" \
        and len(done.stderr.splitlines()) == 1 and why in done.stderr


def test_wrong_argument_count_prints_usage(tmp_path):
    assert _refused(_run("HEAD"), "usage:")
    assert _refused(_run("HEAD", tmp_path / "out", "extra"), "usage:")
    assert list(tmp_path.iterdir()) == []


def test_existing_out_dir_is_left_untouched(tmp_path):
    (tmp_path / "keep.txt").write_text("keep\n")
    assert _refused(_run("HEAD", tmp_path), "already exists")
    assert [p.name for p in tmp_path.iterdir()] == ["keep.txt"]
    assert (tmp_path / "keep.txt").read_text() == "keep\n"


def test_bad_rev_creates_nothing(tmp_path):
    assert _refused(_run("no-such-rev", tmp_path / "out"), "no-such-rev is not a commit")
    assert list(tmp_path.iterdir()) == []
