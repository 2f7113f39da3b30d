#!/bin/sh
# Run a small end-to-end CLI pipeline from the source tree TREE and write all
# of its artifacts under OUT: a 24-image 32x32 corpus, a standard and an
# adversarial model, the robustness CSV, and heatmaps plus a coverage table
# for all four attribution methods under zero and under mean references.
# A third manifest, all.json, sets every run-manifest key explicitly, most
# of them away from their defaults, and drives a warm-started adversarial
# training run, a robustness CSV, heatmaps and a coverage table of its own.
#
#   tools/cli_tree.sh TREE OUT      (under 10 s on a 2-vCPU host)
#
# A change that keeps the arithmetic gives identical trees: run the script
# once from a checkout of the parent commit and once from the change, then
# compare the two OUT directories with `diff -r`. BLAS is pinned to one
# thread so that both runs sum in the same order.
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 TREE OUT" >&2
    exit 2
fi
src=$(cd "$1" && pwd)/src
mkdir -p "$2"
out=$(cd "$2" && pwd)

fm() {
    PYTHONPATH="$src" OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        python3 -m fracmap.cli "$@" >/dev/null
}

methods=saliency,occlusion,deeplift,integrated_gradients
images="img_0000 img_0001 img_0020 img_0021 img_0022 img_0023"

fm synth --seed 5 --n 24 --size 32 --out "$out/data"
for ref in zero mean; do
    cat >"$out/$ref.json" <<JSON
{
  "seed": 5,
  "dataset": "data/dataset.txt",
  "train": {"epochs": 12, "batch_size": 6},
  "attack": {"epsilon": 0.0157, "step_size": 0.0039, "iters": 10},
  "train_attack": {"epsilon": 0.0157, "step_size": 0.0078, "iters": 5},
  "occlusion": {"patch": [8, 8], "stride": [4, 4]},
  "integrated_gradients": {"n_steps": 20, "baseline": "$ref"},
  "deeplift": {"reference": "$ref"},
  "coverage": {"percentiles": [0, 15, 75, 85, 95], "split": "test"}
}
JSON
done

cat >"$out/all.json" <<JSON
{
  "seed": 7,
  "dataset": "data/dataset.txt",
  "train": {"epochs": 3, "learning_rate": 0.002, "batch_size": 5},
  "attack": {"epsilon": 0.0196, "step_size": 0.0059, "iters": 4, "random_start": true},
  "train_attack": {"epsilon": 0.0118, "step_size": 0.0039, "iters": 3, "random_start": false},
  "occlusion": {"patch": [6, 4], "stride": [3, 2], "baseline_value": 0.25, "per_channel": true},
  "integrated_gradients": {"n_steps": 12, "baseline": "mean"},
  "deeplift": {"reference": "zero"},
  "coverage": {"percentiles": [0, 50, 90], "split": "val"}
}
JSON

fm train --manifest "$out/zero.json" --mode standard --out "$out/models/std.mwf"
fm train --manifest "$out/zero.json" --mode adversarial --out "$out/models/adv.mwf"
fm attack --manifest "$out/zero.json" --models "$out/models/std.mwf" "$out/models/adv.mwf" \
    --out "$out/attack.csv"
for ref in zero mean; do
    # shellcheck disable=SC2086
    fm attribute --manifest "$out/$ref.json" --model "$out/models/std.mwf" --methods "$methods" \
        --images $images --out "$out/maps_$ref"
    fm coverage --manifest "$out/$ref.json" --models "$out/models/std.mwf" "$out/models/adv.mwf" \
        --methods "$methods" --out "$out/coverage_$ref.csv"
done
fm train --manifest "$out/all.json" --mode adversarial --init "$out/models/std.mwf" \
    --out "$out/models/all_adv.mwf"
fm attack --manifest "$out/all.json" --models "$out/models/std.mwf" "$out/models/all_adv.mwf" \
    --out "$out/attack_all.csv"
# shellcheck disable=SC2086
fm attribute --manifest "$out/all.json" --model "$out/models/all_adv.mwf" --methods "$methods" \
    --images $images --out "$out/maps_all"
fm coverage --manifest "$out/all.json" --models "$out/models/std.mwf" "$out/models/all_adv.mwf" \
    --methods "$methods" --out "$out/coverage_all.csv"
