// DRAM backend models behind one interface.
//
// The `dram` hardware knob selects the timing backend per sweep point:
// `simple` is the original flat-latency + bandwidth token-bucket controller
// (behavior-preserving default), `queued` a vendored bank/row-buffer model
// (see queued_dram.hpp). Both share DramModel: address-aware access
// scheduling plus traffic statistics over an explicit observation window.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "sim/time.hpp"

namespace maco::mem {

// Selectable DRAM timing backend (the `dram` hardware knob).
enum class DramKind : std::uint8_t {
  kSimple,  // flat latency + data-bus token bucket
  kQueued,  // banked row-buffer model with per-bank FCFS queues
};

std::string_view dram_kind_name(DramKind kind) noexcept;
// Throws std::invalid_argument naming the valid choices.
DramKind parse_dram_kind(std::string_view name);

struct DramConfig {
  double bandwidth_bytes_per_second = 25.6e9;  // one DDR4-3200 channel
  sim::TimePs access_latency_ps = 60'000;      // row activation + CAS, ~60 ns
  DramKind kind = DramKind::kSimple;

  // Banked model (kind == kQueued) only.
  //
  // Calibration invariant: the command timings are chosen so a cold
  // closed-row access (t_rcd + t_cas) equals the flat model's
  // access_latency_ps exactly. At low load with cold rows the two
  // backends therefore agree by construction — row hits come in cheaper,
  // row conflicts dearer — and tests/test_backends.cpp pins the
  // invariant, so retune t_rcd_ps/t_cas_ps and access_latency_ps
  // together or the cross-validation suite fails.
  unsigned banks = 8;                     // banks per channel
  std::uint64_t row_buffer_bytes = 2048;  // DRAM page held open per bank
  sim::TimePs t_rcd_ps = 30'000;  // ACT -> column command
  sim::TimePs t_cas_ps = 30'000;  // column command -> first data
  sim::TimePs t_rp_ps = 15'000;   // precharge before reopening (conflict)
  sim::TimePs t_rc_ps = 75'000;   // minimum ACT -> ACT spacing, same bank
};

// Common interface of the DRAM backends. Accesses are address-aware so
// banked models can classify row hits/misses/conflicts; the flat model
// ignores the address.
class DramModel {
 public:
  DramModel(std::string name, const DramConfig& config);
  virtual ~DramModel();

  DramModel(const DramModel&) = delete;
  DramModel& operator=(const DramModel&) = delete;

  // Schedules a `bytes`-sized transfer of physical address `addr` arriving
  // at `now`; returns the absolute completion time.
  //
  // Arrival-time servicing rule: `now` is when the request REACHES the
  // controller (e.g. after the interconnect's request leg), never the
  // time it was issued upstream. Queueing backends charge waiting from
  // `now` forward; passing an earlier timestamp bills the same backlog
  // twice — once in the network wait, once in the bank queue.
  virtual sim::TimePs access(sim::TimePs now, std::uint64_t addr,
                             std::uint64_t bytes) = 0;

  // Completion time the data bus frees up (for back-pressure decisions).
  virtual sim::TimePs busy_until() const noexcept = 0;

  // Unqueued best-case service time for `bytes` (latency + transfer, no
  // queue or bus booking) — for callers with no notion of current time.
  virtual sim::TimePs service_latency(std::uint64_t bytes) const noexcept;

  const std::string& name() const noexcept { return name_; }
  const DramConfig& config() const noexcept { return config_; }
  std::uint64_t bytes_transferred() const noexcept { return bytes_; }
  std::uint64_t requests() const noexcept { return requests_; }
  // Absolute data-bus busy time this window (utilization's numerator).
  std::uint64_t busy_ps() const noexcept { return busy_ps_; }

  // Fraction of the observation window the data bus was busy. The window
  // opens at construction and reopens at each reset_stats(now); dividing
  // by wall time since construction after a reset would silently
  // underreport.
  double utilization(sim::TimePs now) const noexcept {
    return now > window_start_ps_
               ? static_cast<double>(busy_ps_) /
                     static_cast<double>(now - window_start_ps_)
               : 0.0;
  }
  void reset_stats(sim::TimePs now = 0) noexcept {
    bytes_ = requests_ = busy_ps_ = 0;
    window_start_ps_ = now;
  }

 protected:
  // Pure data-bus occupancy of a `bytes` transfer.
  sim::TimePs transfer_ps(std::uint64_t bytes) const noexcept;
  // Books one request into the shared statistics.
  void record(std::uint64_t bytes, sim::TimePs bus_busy_ps) noexcept {
    ++requests_;
    bytes_ += bytes;
    busy_ps_ += static_cast<std::uint64_t>(bus_busy_ps);
  }

 private:
  std::string name_;
  DramConfig config_;
  std::uint64_t bytes_ = 0;
  std::uint64_t requests_ = 0;
  std::uint64_t busy_ps_ = 0;
  sim::TimePs window_start_ps_ = 0;
};

// `dram=simple`: fixed access latency plus a bandwidth-limited service
// queue (token-bucket on the data bus).
class DramController final : public DramModel {
 public:
  DramController(std::string name, const DramConfig& config);

  // The flat model has no banks, so the address cannot matter.
  sim::TimePs access(sim::TimePs now, std::uint64_t addr,
                     std::uint64_t bytes) override;

  sim::TimePs busy_until() const noexcept override { return bus_free_at_; }

 private:
  sim::TimePs bus_free_at_ = 0;
};

// Builds the backend `config.kind` selects.
std::unique_ptr<DramModel> make_dram_model(std::string name,
                                           const DramConfig& config);

}  // namespace maco::mem
