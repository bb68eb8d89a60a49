"""``scripts/acceptance_pipeline.sh``, the one-command check that two
checkouts agree on every output, is itself deterministic."""
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "acceptance_pipeline.sh"


def _run(out_dir: Path) -> subprocess.CompletedProcess:
    # The script runs `python`: make that the interpreter running the tests.
    env = dict(os.environ, PATH=os.pathsep.join(
        p for p in (os.path.dirname(sys.executable), os.environ.get("PATH")) if p))
    return subprocess.run(["sh", str(SCRIPT), str(out_dir)], capture_output=True, text=True,
                          env=env, timeout=300)


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_reruns_are_byte_identical(tmp_path):
    for name in ("a", "b"):
        done = _run(tmp_path / name)
        assert done.returncode == 0, done.stderr
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    assert "verify.txt" in a and "posterior/prior.csv" in a
    assert "convert_exact_nosnap.tsv" in a and "convert_model_nosnap.tsv" in a
    assert "convert_arch_nosnap.tsv" in a and "sweep_arch.csv" in a
    assert sorted(a) == sorted(b)
    assert [name for name in a if a[name] != b[name]] == []


def test_refuses_an_existing_out_dir(tmp_path):
    (tmp_path / "keep.txt").write_text("keep\n")
    done = _run(tmp_path)
    assert done.returncode == 2 and "already exists" in done.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["keep.txt"]
