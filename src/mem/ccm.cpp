#include "mem/ccm.hpp"

#include "util/assert.hpp"

namespace maco::mem {

Ccm::Ccm(const std::string& name, const CcmConfig& config, DramModel& dram,
         unsigned slice, unsigned slices)
    : config_(config), slice_(slice), slices_(slices), dram_(dram),
      l3_(name + ".l3", config.l3) {
  MACO_ASSERT_MSG(slice < slices,
                  name << ": slice " << slice << " of " << slices);
}

sim::TimePs Ccm::fill(std::uint64_t line, bool write, sim::TimePs now,
                      bool queue_dram) {
  const auto result = l3_.access(cache_addr(line), write);
  if (result.hit) return config_.l3_latency_ps;
  if (!queue_dram) {
    // Unqueued estimate: same state transitions, service-time latency.
    sim::TimePs latency = config_.l3_latency_ps;
    if (result.victim_dirty) latency += dram_.service_latency(kLineBytes);
    return latency + dram_.service_latency(kLineBytes);
  }
  // Victim writeback rides the same DRAM bus before the fill.
  sim::TimePs t = now + config_.l3_latency_ps;
  if (result.victim_dirty) {
    t = dram_.access(t, victim_line(result.victim_addr), kLineBytes);
  }
  // With every way locked the line is not allocated and is served
  // uncached by the same DRAM read.
  return dram_.access(t, line, kLineBytes) - now;
}

sim::TimePs Ccm::handle(CcmReqType type, std::uint64_t addr,
                        sim::TimePs arrival, bool queue_dram) {
  const std::uint64_t line = line_addr(addr);
  sim::TimePs latency = config_.lookup_latency_ps;
  switch (type) {
    case CcmReqType::kGetS:
    case CcmReqType::kGetM:
      latency += fill(line, type == CcmReqType::kGetM, arrival + latency,
                      queue_dram);
      break;
    case CcmReqType::kPutFull: {
      // Full-line store: the writer overwrites every byte, so no fetch.
      const auto result = l3_.access(cache_addr(line), /*write=*/true);
      latency += config_.l3_latency_ps;
      if (result.victim_dirty && queue_dram) {
        // Posted victim writeback: books the bus, off the critical path.
        dram_.access(arrival + latency, victim_line(result.victim_addr),
                     kLineBytes);
      }
      if (!result.allocated) {
        // Every way locked: the store streams straight to DRAM.
        const sim::TimePs at = arrival + latency;
        latency += queue_dram ? dram_.access(at, line, kLineBytes) - at
                              : dram_.service_latency(kLineBytes);
      }
      break;
    }
    case CcmReqType::kStash:
      if (l3_.probe(cache_addr(line))) {
        ++stash_hits_;
        latency += config_.l3_latency_ps;
      } else {
        ++stash_fills_;
        latency += fill(line, /*write=*/false, arrival + latency, queue_dram);
      }
      break;
    case CcmReqType::kStashLock:
      // Same fill/hit accounting as kStash, plus the lock.
      if (l3_.probe(cache_addr(line))) {
        ++stash_hits_;
      } else {
        ++stash_fills_;
      }
      latency += fill(line, /*write=*/false, arrival + latency, queue_dram);
      l3_.lock(cache_addr(line));
      break;
    case CcmReqType::kUnlock:
      l3_.unlock(cache_addr(line));
      break;
  }
  return latency;
}

}  // namespace maco::mem
