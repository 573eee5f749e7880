// Micro-benchmarks of the simulator's component models.
//
// These are not paper figures; they quantify the substrate itself — how
// fast each detailed model simulates — and catch performance regressions
// that would make the paper-scale sweeps intractable. Built against
// google-benchmark when available, the vendored minibench harness (same
// API subset) otherwise.
#ifdef MACO_HAVE_GOOGLE_BENCHMARK
#include <benchmark/benchmark.h>
#else
#include "minibench.hpp"
#endif

#include "core/timing_model.hpp"
#include "isa/assembler.hpp"
#include "mem/cache.hpp"
#include "mem/directory.hpp"
#include "mem/dram.hpp"
#include "sa/systolic_array.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"
#include "vm/matlb.hpp"
#include "vm/tlb.hpp"

namespace {

using namespace maco;

// Cycle-accurate systolic-array GEMM (functional + timing).
void BM_SystolicArrayTile(benchmark::State& state) {
  const std::uint64_t dim = static_cast<std::uint64_t>(state.range(0));
  sa::SystolicArray array(sa::SaConfig{});
  util::Rng rng(1);
  const auto a = sa::HostMatrix::random(dim, dim, rng);
  const auto b = sa::HostMatrix::random(dim, dim, rng);
  for (auto _ : state) {
    sa::HostMatrix c(dim, dim);
    const auto result = array.run(a, b, c);
    benchmark::DoNotOptimize(result.cycles);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim * dim * dim));
}
BENCHMARK(BM_SystolicArrayTile)->Arg(16)->Arg(32)->Arg(64);

// Closed-form tile latency (used millions of times by the timing model).
void BM_SaLatencyClosedForm(benchmark::State& state) {
  const sa::SaConfig config{};
  for (auto _ : state) {
    const auto timing =
        sa::compute_sa_timing(sa::TileShape{64, 64, 64}, config);
    benchmark::DoNotOptimize(timing.total_cycles);
  }
}
BENCHMARK(BM_SaLatencyClosedForm);

// Fully-associative TLB lookup under a thrashing VPN stream.
void BM_TlbLookup(benchmark::State& state) {
  vm::Tlb tlb("bench.tlb", static_cast<std::size_t>(state.range(0)));
  const vm::Asid asid = 1;
  std::uint64_t vpn = 0;
  for (auto _ : state) {
    if (!tlb.lookup(asid, vpn)) tlb.insert(asid, vpn, vpn);
    vpn = (vpn + 1) % (2 * static_cast<std::uint64_t>(state.range(0)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbLookup)->Arg(48)->Arg(1024);

// mATLB page-entry prediction for one inner tile (Fig. 4 enumeration).
void BM_MatlbPrediction(benchmark::State& state) {
  const vm::MatrixDesc matrix{0x10000000, 4096, 4096, 8, 0};
  for (auto _ : state) {
    const auto pages =
        vm::predict_page_entries(matrix, vm::TileDesc{1024, 2048, 64, 64});
    benchmark::DoNotOptimize(pages.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MatlbPrediction);

// Set-associative cache stream (hit path).
void BM_CacheHitStream(benchmark::State& state) {
  mem::SetAssocCache cache("bench.l1d",
                           mem::CacheConfig{48 * 1024, 4, mem::kLineBytes});
  for (std::uint64_t line = 0; line < 48 * 1024 / 64; ++line) {
    cache.access(line * 64, false, mem::CoherenceState::kShared);
  }
  std::uint64_t addr = 0;
  for (auto _ : state) {
    const auto result =
        cache.access(addr, false, mem::CoherenceState::kShared);
    benchmark::DoNotOptimize(result.hit);
    addr = (addr + 64) % (48 * 1024);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHitStream);

// Directory CCM request handling (GetS on a warm L3).
void BM_DirectoryGetS(benchmark::State& state) {
  mem::DramController dram("bench.dram", mem::DramConfig{});
  mem::DirectoryCcm ccm("bench.ccm", mem::CcmConfig{}, dram,
                        [](int, std::uint64_t) { return sim::TimePs{5000}; });
  sim::TimePs now = 0;
  std::uint64_t addr = 0;
  for (auto _ : state) {
    const auto response =
        ccm.handle({mem::CcmReqType::kGetS, 0, addr % (1 << 20)}, now);
    benchmark::DoNotOptimize(response.latency);
    now += 1000;
    addr += 64;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DirectoryGetS);

// MPAIS assembler throughput.
void BM_Assembler(benchmark::State& state) {
  const std::string source =
      "ma_stash x7, x16\n"
      "ma_cfg   x5, x10\n"
      "ma_read  x6, x5\n"
      "ma_state x6, x5\n";
  for (auto _ : state) {
    const auto result = isa::assemble(source);
    benchmark::DoNotOptimize(result.program.size());
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_Assembler);

// Whole-system timing model: one Fig. 7 data point.
void BM_SystemTimingModel(benchmark::State& state) {
  const core::SystemTimingModel model(core::SystemConfig::maco_default());
  core::TimingOptions options;
  options.shape = sa::TileShape{2048, 2048, 2048};
  options.active_nodes = 16;
  for (auto _ : state) {
    const auto timing = model.run(options);
    benchmark::DoNotOptimize(timing.mean_efficiency);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SystemTimingModel);

}  // namespace

BENCHMARK_MAIN();
