#include "mmae/dma.hpp"

#include <algorithm>
#include <vector>

#include "util/assert.hpp"

namespace maco::mmae {

DmaEngine::DmaEngine(std::string name, int node, const DmaConfig& config,
                     MemoryBackend& backend)
    : name_(std::move(name)), node_(node), config_(config),
      backend_(backend) {}

sim::TimePs DmaEngine::translate(vm::VirtAddr va,
                                 const TranslationContext& ctx, sim::TimePs t,
                                 DmaResult& result, vm::PhysAddr* pa) {
  if (ctx.matlb != nullptr) {
    const auto hit = ctx.matlb->lookup(va, t);
    if (hit.hit) {
      ++result.matlb_hits;
      // A late prediction exposes only the residual walk time.
      result.translation_stall_ps += hit.wait;
      *pa = hit.phys;
      return t + hit.wait;
    }
  }
  // Blocking path: shared TLB, then the walker; the stream stalls.
  MACO_ASSERT_MSG(ctx.mmu != nullptr && ctx.table != nullptr,
                  name_ << ": no translation path configured");
  const cpu::TranslationResult tr =
      ctx.mmu->translate_for_accelerator(ctx.asid, *ctx.table, va);
  if (!tr.valid) {
    result.fault = true;
    return t;
  }
  ++result.blocking_walks;
  result.translation_stall_ps += tr.latency;
  *pa = tr.phys;
  return t + tr.latency;
}

DmaResult DmaEngine::run(const Region2D& region, Op op,
                         std::span<std::uint8_t> read_out,
                         std::span<const std::uint8_t> write_data, bool lock,
                         std::uint64_t pattern,
                         const TranslationContext& ctx, sim::TimePs start) {
  DmaResult result;
  // Bursts pipeline: `issue` paces the engine's port at link rate and
  // stalls on translation misses or when max_outstanding requests are in
  // flight; individual burst latencies overlap.
  sim::TimePs issue = std::max(start, busy_until_) + config_.setup_ps;
  sim::TimePs done = issue;
  // The last max_outstanding completions, as a ring: a burst waits for
  // the one whose slot it takes (0, no wait, while the ring fills).
  std::vector<sim::TimePs> outstanding(config_.max_outstanding, 0);
  std::size_t slot = 0;
  // MA_INIT writes the same bytes at the start of every burst, and no burst
  // is longer than a row or crosses a page.
  std::vector<std::uint8_t> fill;
  if (op == Op::kInit) {
    fill.resize(std::min(region.row_bytes, vm::kPageSize));
    for (std::size_t i = 0; i < fill.size(); ++i) {
      fill[i] = static_cast<std::uint8_t>(pattern >> ((i % 8) * 8));
    }
  }

  std::uint64_t buffer_offset = 0;
  for (std::uint64_t row = 0; row < region.rows && !result.fault; ++row) {
    vm::VirtAddr va = region.base + row * region.effective_stride();
    std::uint64_t remaining = region.row_bytes;
    while (remaining > 0) {
      // Burst length: to the end of the page or the row, whichever first.
      const std::uint64_t to_page_end =
          vm::kPageSize - vm::page_offset(va);
      const std::uint32_t burst =
          static_cast<std::uint32_t>(std::min(remaining, to_page_end));

      vm::PhysAddr pa = 0;
      issue = translate(va, ctx, issue, result, &pa);
      if (result.fault) break;

      issue = std::max(issue, outstanding[slot]);

      sim::TimePs completion = issue;
      switch (op) {
        case Op::kRead:
          MACO_ASSERT(buffer_offset + burst <= read_out.size());
          completion = backend_.read(
              node_, pa, read_out.data() + buffer_offset, burst, issue);
          break;
        case Op::kWrite:
          MACO_ASSERT(buffer_offset + burst <= write_data.size());
          completion = backend_.write(
              node_, pa, write_data.data() + buffer_offset, burst, issue);
          break;
        case Op::kStash:
          completion = backend_.stash(node_, pa, burst, lock, issue);
          break;
        case Op::kInit:
          // Functional fill through the backend write path.
          completion = backend_.write(node_, pa, fill.data(), burst, issue);
          break;
      }
      outstanding[slot] = completion;
      if (++slot == outstanding.size()) slot = 0;
      done = std::max(done, completion);
      issue += static_cast<sim::TimePs>(
          static_cast<double>(burst) /
          config_.issue_bandwidth_bytes_per_second * 1e12);

      result.bytes += burst;
      buffer_offset += burst;
      va += burst;
      remaining -= burst;
    }
  }

  busy_until_ = std::max(done, issue);
  result.end_time = busy_until_;
  return result;
}

DmaResult DmaEngine::read_region(const Region2D& region,
                                 std::span<std::uint8_t> out,
                                 const TranslationContext& ctx,
                                 sim::TimePs start) {
  MACO_ASSERT_MSG(out.size() >= region.total_bytes(),
                  name_ << ": read buffer too small");
  return run(region, Op::kRead, out, {}, false, 0, ctx, start);
}

DmaResult DmaEngine::write_region(const Region2D& region,
                                  std::span<const std::uint8_t> data,
                                  const TranslationContext& ctx,
                                  sim::TimePs start) {
  MACO_ASSERT_MSG(data.size() >= region.total_bytes(),
                  name_ << ": write data too small");
  return run(region, Op::kWrite, {}, data, false, 0, ctx, start);
}

DmaResult DmaEngine::stash_region(const Region2D& region, bool lock,
                                  const TranslationContext& ctx,
                                  sim::TimePs start) {
  return run(region, Op::kStash, {}, {}, lock, 0, ctx, start);
}

DmaResult DmaEngine::init_region(const Region2D& region, std::uint64_t pattern,
                                 const TranslationContext& ctx,
                                 sim::TimePs start) {
  return run(region, Op::kInit, {}, {}, false, pattern, ctx, start);
}

}  // namespace maco::mmae
