#!/bin/sh
# Run the acceptance pipeline into OUT_DIR (which must not exist yet):
# gen-world, gen-data, train, exact and model converts with diagnostics,
# exact and model sweeps, posterior curves and the oracle suites.  Every
# step is seeded, so two checkouts that agree on every output give
# identical trees: compare them with `diff -r OUT_A OUT_B`.
#
#   scripts/acceptance_pipeline.sh OUT_DIR
set -eu
[ $# -eq 1 ] || { echo "usage: $0 OUT_DIR" >&2; exit 2; }
out=$1
[ ! -e "$out" ] || { echo "$0: $out already exists" >&2; exit 2; }
root=$(cd "$(dirname "$0")/.." && pwd)
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
run() { python -m priorshift.cli -q "$@"; }

mkdir -p "$out"
run gen-world --out "$out/world.json" --seed 11 --dim 4 --labels 6 --codebook-size 24
run gen-data --world "$out/world.json" --out "$out/data.tsv" --seed 12 --n-seq 30 --seq-len 20
run train --data "$out/data.tsv" --out "$out/model.txt" --seed 13 --epochs 3
for model in exact model; do
    src=$model
    [ "$model" = exact ] || src="$out/model.txt"
    run convert --world "$out/world.json" --model "$src" --data "$out/data.tsv" \
        --out "$out/convert_$model.tsv" --seed 14 --t-start 60 \
        --diagnostics "$out/diag_$model.csv"
    run sweep --world "$out/world.json" --model "$src" --out "$out/sweep_$model.csv" \
        --seed 15 --n-seq 6 --seq-len 20
done
run posterior --world "$out/world.json" --out-dir "$out/posterior" --x0 1.5
run verify > "$out/verify.txt"
