#!/bin/sh
# Run the acceptance pipeline from git revision REV and from this checkout's
# working tree, and compare the two output trees.  REV is extracted with
# `git archive` into OUT_DIR/rev-tree (no worktree, no network), and this
# checkout's scripts/acceptance_pipeline.sh is copied over the extracted
# one, so both sides run the same steps; each side's pipeline runs from its
# own src/ into OUT_DIR/rev and OUT_DIR/head.  Exits with the status of
# `diff -r OUT_DIR/rev OUT_DIR/head`: 0 when every output and every error
# message is byte-identical; 2, with nothing created, on a wrong argument
# count, an existing OUT_DIR or a REV that names no commit.
#
#   scripts/pipeline_diff.sh REV OUT_DIR
set -eu
[ $# -eq 2 ] || { echo "usage: $0 REV OUT_DIR" >&2; exit 2; }
rev=$1
out=$2
[ ! -e "$out" ] || { echo "$0: $out already exists" >&2; exit 2; }
root=$(cd "$(dirname "$0")/.." && pwd)
git -C "$root" rev-parse --verify --quiet "$rev^{commit}" >/dev/null 2>&1 ||
    { echo "$0: $rev is not a commit" >&2; exit 2; }

mkdir -p "$out/rev-tree"
git -C "$root" archive "$rev" | tar -x -C "$out/rev-tree"
mkdir -p "$out/rev-tree/scripts"
cp "$root/scripts/acceptance_pipeline.sh" "$out/rev-tree/scripts/acceptance_pipeline.sh"
"$out/rev-tree/scripts/acceptance_pipeline.sh" "$out/rev"
"$root/scripts/acceptance_pipeline.sh" "$out/head"
exec diff -r "$out/rev" "$out/head"
