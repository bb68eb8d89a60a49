#!/bin/sh
# Run the acceptance pipeline into OUT_DIR (which must not exist yet):
# gen-world, gen-data, train, exact and model converts with diagnostics,
# the same converts unsnapped (snapping hides rounding-level changes in the
# reverse chain), exact and model sweeps, a second model trained from a
# --config file whose residual head has hidden layers (the default head has
# none) with one unsnapped convert and one sweep, posterior curves and the
# oracle suites.  Every step is seeded, so two checkouts that agree on every output
# give identical trees: compare them with `diff -r OUT_A OUT_B`.
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
    run convert --world "$out/world.json" --model "$src" --data "$out/data.tsv" \
        --out "$out/convert_${model}_nosnap.tsv" --seed 14 --t-start 60 --no-snap
    run sweep --world "$out/world.json" --model "$src" --out "$out/sweep_$model.csv" \
        --seed 15 --n-seq 6 --seq-len 20
done
cat > "$out/config.json" <<'EOF'
{"hidden": [16, 12], "residual_hidden": [8, 6], "cond_dim": 8, "time_dim": 4}
EOF
run train --data "$out/data.tsv" --out "$out/model_arch.txt" --seed 16 --epochs 3 \
    --config "$out/config.json"
run convert --world "$out/world.json" --model "$out/model_arch.txt" --data "$out/data.tsv" \
    --out "$out/convert_arch_nosnap.tsv" --seed 14 --t-start 60 --no-snap
run sweep --world "$out/world.json" --model "$out/model_arch.txt" --out "$out/sweep_arch.csv" \
    --seed 15 --n-seq 6 --seq-len 20
run posterior --world "$out/world.json" --out-dir "$out/posterior" --x0 1.5
run verify > "$out/verify.txt"
