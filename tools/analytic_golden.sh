#!/bin/sh
# Writes the golden CSVs: one CSV per paper figure, table or sensitivity
# study that an analytic `macosim` command reproduces; detailed_counters.csv,
# a detailed gemm sweep over every DRAM and interconnect backend with
# profile=counters (its host_* wall-time columns dropped); and two sampled
# runs, sampled_gemm.csv (a gemm beyond the detailed cap over every backend
# and 1/4 nodes) and sampled_graph.csv (gpt3-block decode, macobench's
# sampled_llm point). Their numbers must stay bit-identical across refactors
# of the timing model, the TLB, the page enumeration, the detailed machine
# and the sampled estimator. The sampled files are as portable as the
# analytic ones: the estimator's only libm call is sqrt, which is correctly
# rounded, and its estimates do not depend on the worker count.
#
# Usage: analytic_golden.sh MACOSIM OUTDIR
#
# CI writes them to a scratch directory and diffs it against tests/golden/;
# after an intended model change, re-record with OUTDIR=tests/golden and
# commit the diff. micro_dram is left out: BENCH_dram.json already gates it.
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
  "$macosim" "$@" --quiet --threads 4 --output "$out/$name.csv"
}

run graph --scenario graph \
  --sweep model_file=resnet50-stage,bert-block,gpt3-block,tiny,moe-mlp \
  --sweep phase=prefill,decode
# Fig. 6: one node with and without predictive translation.
run fig6 --scenario gemm --set nodes=1 \
  --sweep size=256,512,1024,2048,4096,9216 --sweep matlb=true,false
# Fig. 7: independent GEMMs on 1-16 nodes over the paper's size axis.
run gemm --scenario gemm \
  --sweep size=256,512,1024,2048,3072,4096,5120,6144,7168,8192,9216 \
  --sweep nodes=1,2,4,8,16
# Feature ablation: mATLB x stash+lock on 16 nodes.
run ablation --scenario gemm --set size=4096 \
  --sweep matlb=true,false --sweep stash_lock=true,false
# Sensitivity to the second-level tile, the page size and DDR efficiency.
run inner_tile --scenario gemm --set size=2048 --set nodes=1 \
  --sweep inner=16,32,64,128
run page_size --scenario gemm --set size=2048 --set nodes=1 \
  --sweep page_bytes=4096,65536,1048576 --sweep matlb=true,false
run dram_efficiency --scenario gemm --set size=4096 \
  --sweep dram_efficiency=0.6,0.72,0.85,1.0 --sweep nodes=1,16
run hpl --scenario hpl
# Fig. 8: the five systems on each network.
run baselines --scenario baselines \
  --sweep model_file=resnet50-stage,bert-block,gpt3-block
run area_power --scenario area_power
run ext_sparsity --scenario ext_sparsity \
  --sweep k=64,128,256,1024 --sweep kept=2,1
run tables --scenario tables
# The detailed machine and its counter-derived metrics, on every backend.
run detailed_counters_with_host --scenario gemm --set fidelity=detailed \
  --set size=256 --set profile=counters --sweep nodes=1,4 \
  --sweep dram=simple,queued --sweep icnt=analytic,flit
# Beyond the detailed cap: statistical tile sampling on the detailed
# machine, over every backend and node count, and an LLM decode step.
run sampled_gemm --scenario gemm --set fidelity=sampled --set size=2304 \
  --set tile=256 --set sample_frac=0.005 --sweep nodes=1,4 \
  --sweep dram=simple,queued --sweep icnt=analytic,flit
run sampled_graph --scenario graph --set model_file=gpt3-block \
  --set phase=decode --set fidelity=sampled
awk -F, '
  NR == 1 { for (i = 1; i <= NF; i++) keep[i] = $i !~ /^host_/ }
  {
    line = ""; sep = ""
    for (i = 1; i <= NF; i++) if (keep[i]) { line = line sep $i; sep = "," }
    print line
  }' "$out/detailed_counters_with_host.csv" > "$out/detailed_counters.csv"
rm "$out/detailed_counters_with_host.csv"
