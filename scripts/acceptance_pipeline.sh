#!/bin/sh
# Run the acceptance pipeline into OUT_DIR (which must not exist yet):
# gen-world, gen-data (shifted data to convert, native data to train on),
# train, exact and model converts with diagnostics, the same converts
# unsnapped (snapping hides rounding-level changes in the reverse chain),
# exact and model sweeps, an exact sweep averaging per-label means, a second
# model trained from a --config file whose residual head has hidden layers
# (the default head has none) with one unsnapped convert and one sweep,
# posterior curves and the oracle suites.
# Then a fixed list of failing invocations (bad output paths, malformed
# files, oversized or misordered flags) runs from inside OUT_DIR on relative
# paths, each under a 10 s timeout; each one's command line, exit status and
# stderr go to OUT_DIR/errors.txt.  Every step is seeded, so two checkouts
# that agree on every output and every error message give identical trees:
# compare them with `diff -r OUT_A OUT_B`.
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
run gen-data --world "$out/world.json" --out "$out/native.tsv" --seed 17 --source native \
    --n-seq 30 --seq-len 20
run train --data "$out/native.tsv" --out "$out/model.txt" --seed 13 --epochs 3
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
run sweep --world "$out/world.json" --model exact --out "$out/sweep_exact_strat.csv" \
    --seed 15 --n-seq 6 --seq-len 20 --stratify-labels
cat > "$out/config.json" <<'EOF'
{"hidden": [16, 12], "residual_hidden": [8, 6], "cond_dim": 8, "time_dim": 4}
EOF
run train --data "$out/native.tsv" --out "$out/model_arch.txt" --seed 16 --epochs 3 \
    --config "$out/config.json"
run convert --world "$out/world.json" --model "$out/model_arch.txt" --data "$out/data.tsv" \
    --out "$out/convert_arch_nosnap.tsv" --seed 14 --t-start 60 --no-snap
run sweep --world "$out/world.json" --model "$out/model_arch.txt" --out "$out/sweep_arch.csv" \
    --seed 15 --n-seq 6 --seq-len 20
run posterior --world "$out/world.json" --out-dir "$out/posterior" --x0 1.5
run verify > "$out/verify.txt"

cd "$out"
mkdir bad
printf '#dim=4 labels=6\ns0\t99999999999999999999\t0,0,0,0\n' > bad/big_label.tsv
{ cat model.txt; echo extra; } > bad/trailing_line.txt
python - <<'EOF'
import json

for name, edit in (("huge_int.json", lambda d: d["codebook"][0].__setitem__(0, 10 ** 400)),
                   ("native_extra.json", lambda d: d["native"].update(extra=0))):
    with open("world.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    with open(f"bad/{name}", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
EOF
fail() {
    status=0
    timeout 10 python -m priorshift.cli -q "$@" 2> bad/stderr.txt || status=$?
    { echo "\$ priorshift -q $*"; echo "exit $status"; cat bad/stderr.txt; } >> errors.txt
    rm bad/stderr.txt
}
exact="--world world.json --model exact"
fail gen-world --out nodir/world.json --seed 1
fail gen-data --world world.json --out nodir/data.tsv --seed 1
fail train --data native.tsv --out nodir/model.txt --seed 1
fail convert $exact --data data.tsv --out nodir/c.tsv --seed 1 --t-start 10
fail convert $exact --data data.tsv --out bad/c.tsv --seed 1 --t-start 10 \
    --diagnostics nodir/diag.csv
fail sweep $exact --out nodir/s.csv --seed 1
fail posterior --world world.json --out-dir world.json --x0 1.5
fail convert $exact --data bad/big_label.tsv --out bad/c.tsv --seed 1 --t-start 10
fail gen-data --world bad/huge_int.json --out bad/d.tsv --seed 1
fail gen-data --world bad/native_extra.json --out bad/d.tsv --seed 1
fail convert --world world.json --model bad/trailing_line.txt --data data.tsv --out bad/c.tsv \
    --seed 1 --t-start 10
fail gen-data --world world.json --out bad/d.tsv --seed 1 --n-seq 99999999999999999999
fail sweep $exact --out bad/s.csv --seed 1 --n-seq 99999999999999999999
fail sweep $exact --out bad/s.csv --seed 1 --t-starts 50,25
fail gen-world --out bad/w.json --seed 1 --labels 99999999999999999999
fail train --data native.tsv --out bad/m.txt --seed 1 --epochs 99999999999999999999
