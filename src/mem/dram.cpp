#include "mem/dram.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mem/queued_dram.hpp"
#include "util/assert.hpp"

namespace maco::mem {

std::string_view dram_kind_name(DramKind kind) noexcept {
  switch (kind) {
    case DramKind::kSimple: return "simple";
    case DramKind::kQueued: return "queued";
  }
  return "?";
}

DramKind parse_dram_kind(std::string_view name) {
  if (name == "simple") return DramKind::kSimple;
  if (name == "queued") return DramKind::kQueued;
  throw std::invalid_argument("unknown dram backend '" + std::string(name) +
                              "' (want simple|queued)");
}

DramModel::DramModel(std::string name, const DramConfig& config)
    : name_(std::move(name)), config_(config) {
  MACO_ASSERT_MSG(config.bandwidth_bytes_per_second > 0,
                  name_ << ": bandwidth must be positive");
}

DramModel::~DramModel() = default;

sim::TimePs DramModel::transfer_ps(std::uint64_t bytes) const noexcept {
  return static_cast<sim::TimePs>(std::llround(
      static_cast<double>(bytes) / config_.bandwidth_bytes_per_second * 1e12));
}

sim::TimePs DramModel::service_latency(std::uint64_t bytes) const noexcept {
  return config_.access_latency_ps +
         static_cast<sim::TimePs>(static_cast<double>(bytes) /
                                  config_.bandwidth_bytes_per_second * 1e12);
}

DramController::DramController(std::string name, const DramConfig& config)
    : DramModel(std::move(name), config) {}

sim::TimePs DramController::access(sim::TimePs now, std::uint64_t /*addr*/,
                                   std::uint64_t bytes) {
  const sim::TimePs xfer = transfer_ps(bytes);
  const sim::TimePs start = std::max(now, bus_free_at_);
  bus_free_at_ = start + xfer;
  record(bytes, xfer);
  return bus_free_at_ + config().access_latency_ps;
}

std::unique_ptr<DramModel> make_dram_model(std::string name,
                                           const DramConfig& config) {
  switch (config.kind) {
    case DramKind::kSimple:
      return std::make_unique<DramController>(std::move(name), config);
    case DramKind::kQueued:
      return std::make_unique<QueuedDramController>(std::move(name), config);
  }
  throw std::invalid_argument("unknown dram backend kind");
}

}  // namespace maco::mem
