#!/bin/sh
# Writes the analytic golden CSVs: one default-knob CSV per analytic
# scenario whose numbers must stay bit-identical across refactors of the
# timing model, the TLB and the page enumeration.
#
# Usage: analytic_golden.sh MACOSIM OUTDIR
#
# CI writes them to a scratch directory and diffs it against tests/golden/;
# after an intended model change, re-record with OUTDIR=tests/golden and
# commit the diff. fig8_dl_comparison is left out: its geomean goes through
# libm pow, which may round differently across C library versions; so is
# micro_dram, which BENCH_dram.json already gates.
set -eu

if [ "$#" -ne 2 ]; then
  echo "usage: $0 MACOSIM OUTDIR" >&2
  exit 2
fi
macosim=$1
out=$2
mkdir -p "$out"

run() {
  name=$1
  shift
  "$macosim" "$@" --quiet --threads 4 --csv "$out/$name.csv"
}

run graph --scenario graph \
  --sweep model_file=resnet50-stage,bert-block,gpt3-block,tiny,moe-mlp \
  --sweep phase=prefill,decode
run fig6_translation --scenario fig6_translation
run gemm --scenario gemm --sweep size=256,1024,4096,9216 --sweep nodes=1,16
run hpl --scenario hpl
run baselines --scenario baselines
run ablation_features --scenario ablation_features
run area_power --scenario area_power
run ext_sparsity --scenario ext_sparsity
run tables --scenario tables
