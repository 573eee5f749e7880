#!/bin/sh
# Writes the golden CSVs: one CSV per paper figure, table or sensitivity
# study that an analytic `macosim` command reproduces; serve.csv, the
# analytic serve loop over its arrival kinds, tenant counts up to 1,024,
# batch policies, instance counts and two loads; detailed_counters.csv,
# a detailed gemm sweep over every DRAM and interconnect backend with
# profile=counters; detailed_geometry.csv, the same sweep on 4 nodes over
# 12 slices of 1,536 sets, so a slice count and an L3 set count other than
# a power of two (the set index's modulo path) are pinned too;
# detailed_writeback.csv, a 512 gemm on 4 nodes over 12 slices of 192 KiB,
# whose evictions write dirty lines back through both DRAM backends (the
# banked one prices each write-back at the victim's own address);
# detailed_scaling.csv, the 256 and 512 gemms on 1, 4 and 16 nodes that
# macobench's detailed_scaling workload times; detailed_graph.csv, the
# tiny and moe-mlp manifests at fidelity=detailed, every layer of a point
# on one machine, with profile=counters; serve_detailed.csv, serve's
# detailed batch oracle over 1/2 instances and 2/4 nodes with
# profile=counters (all six with their host_* wall-time columns dropped);
# and two sampled runs, sampled_gemm.csv (a
# gemm beyond the detailed cap over every backend and 1/4 nodes) and
# sampled_graph.csv (gpt3-block decode, macobench's sampled_llm point).
# Their numbers must stay bit-identical across refactors of the timing
# model, the TLB, the page enumeration, the detailed machine, the OS
# scheduler, the serve loop and the sampled estimator. The sampled files
# are as portable as the analytic ones: the estimator's only libm call is
# sqrt, which is correctly rounded, and its estimates do not depend on the
# worker count.
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
# The analytic serve loop: every arrival kind over 1 to 1,024 tenants,
# unbatched and batched, on 1 and 4 instances, lightly and over-loaded.
run serve --scenario serve --set requests=20000 \
  --sweep arrival=poisson,uniform,closed --sweep tenants=1,3,64,1024 \
  --sweep max_batch=1,8 --sweep batch_timeout_us=0,200 \
  --sweep instances=1,4 --sweep arrival_rate_rps=200,20000
# The detailed machine and its counter-derived metrics, on every backend.
run detailed_counters_with_host --scenario gemm --set fidelity=detailed \
  --set size=256 --set profile=counters --sweep nodes=1,4 \
  --sweep dram=simple,queued --sweep icnt=analytic,flit
# Twelve slices of 1,536 sets: neither count is a power of two.
run detailed_geometry_with_host --scenario gemm --set fidelity=detailed \
  --set size=256 --set nodes=4 --set profile=counters --set ccm_count=12 \
  --set l3_slice_kib=1536 --sweep dram=simple,queued \
  --sweep icnt=analytic,flit
# Small slices that evict: dirty victims write back to their own lines.
run detailed_writeback_with_host --scenario gemm --set fidelity=detailed \
  --set size=512 --set nodes=4 --set profile=counters --set ccm_count=12 \
  --set l3_slice_kib=192 --sweep dram=simple,queued
# Fig. 7's detailed points, macobench's detailed_scaling workload.
run detailed_scaling_with_host --scenario gemm --set fidelity=detailed \
  --set profile=counters --sweep size=256,512 --sweep nodes=1,4,16
# A DNN's layer list on the detailed machine: one machine per point.
run detailed_graph_with_host --scenario graph --set fidelity=detailed \
  --set cooperative=false --set profile=counters \
  --sweep model_file=tiny,moe-mlp
# Serve's detailed batch oracle, the third path onto the detailed machine.
run serve_detailed_with_host --scenario serve --set fidelity=detailed \
  --set requests=300 --set profile=counters --sweep instances=1,2 \
  --sweep nodes=2,4
# Beyond the detailed cap: statistical tile sampling on the detailed
# machine, over every backend and node count, and an LLM decode step.
run sampled_gemm --scenario gemm --set fidelity=sampled --set size=2304 \
  --set tile=256 --set sample_frac=0.005 --sweep nodes=1,4 \
  --sweep dram=simple,queued --sweep icnt=analytic,flit
run sampled_graph --scenario graph --set model_file=gpt3-block \
  --set phase=decode --set fidelity=sampled
# Drop the host_* wall-time columns, which differ from run to run.
for name in detailed_counters detailed_geometry detailed_writeback \
  detailed_scaling detailed_graph serve_detailed; do
  awk -F, '
    NR == 1 { for (i = 1; i <= NF; i++) keep[i] = $i !~ /^host_/ }
    {
      line = ""; sep = ""
      for (i = 1; i <= NF; i++) if (keep[i]) { line = line sep $i; sep = "," }
      print line
    }' "$out/${name}_with_host.csv" > "$out/$name.csv"
  rm "$out/${name}_with_host.csv"
done
