// Serving load generation: request streams in simulated time.
//
// A serving simulation starts from an arrival process. This header owns
// everything up to admission: the Arrival record (what is known of a
// request before it runs: its id, tenant and arrival time), the
// seeded-deterministic open-loop arrival streams (Poisson, uniform,
// trace-driven replay) and the model catalogue that maps a served model
// name to the GEMM layer list one batch of B requests executes. An
// ArrivalStream yields one arrival at a time, so the serve loop holds only
// the requests in flight; LoadGenerator drains a stream into the full
// schedule. Closed-loop (fixed-concurrency, think time) arrivals depend on
// completions, so serve::serve produces them incrementally with its own
// seeded stream.
//
// Determinism contract: the same ArrivalConfig (including seed) yields a
// bit-identical schedule — arrival times, tenants, order — on every run,
// platform and thread count. All randomness flows through util::Rng.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sa/types.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"
#include "workloads/gemm_workload.hpp"

namespace maco::serve {

// One request as the arrival process produces it. Ids are dense and follow
// arrival order; a u32 id bounds a stream at 2^32 - 1 requests.
struct Arrival {
  sim::TimePs arrival_ps = 0;  // enters the tenant's admission queue
  std::uint32_t id = 0;
  std::uint32_t tenant = 0;
};

enum class ArrivalKind {
  kPoisson,  // exponential inter-arrival times at rate_rps
  kUniform,  // deterministic equal spacing at rate_rps
  kTrace,    // replay of explicit arrival timestamps
};

const char* arrival_kind_name(ArrivalKind kind) noexcept;
// Throws std::invalid_argument on an unknown spelling.
ArrivalKind parse_arrival_kind(const std::string& name);

// One trace-driven arrival: a timestamp, optionally pinned to a tenant
// (-1 = assigned from the seeded tenant stream like generated arrivals).
struct TraceEntry {
  double arrival_s = 0.0;
  int tenant = -1;
};

struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::kPoisson;
  double rate_rps = 100.0;        // aggregate open-loop arrival rate
  unsigned tenants = 1;           // requests are assigned uniformly
  std::uint64_t requests = 1000;  // schedule length (kPoisson/kUniform)
  std::uint64_t seed = 1;
  // kTrace: arrivals replayed verbatim (sorted internally);
  // `requests`/`rate_rps` are ignored for the timeline.
  std::vector<TraceEntry> trace;
};

// `base_ps` plus `seconds` of simulated time, rounded to the nearest
// picosecond. A serve run keeps every arrival below 2^63 ps (about 106.7
// simulated days); a later, negative or non-finite time throws
// std::invalid_argument naming `knob`, the setting that produced it.
sim::TimePs arrival_time_ps(double seconds, const char* knob,
                            sim::TimePs base_ps = 0);

// The open-loop arrival process, one arrival at a time in arrival order.
// Poisson and uniform arrivals are generated on demand; a trace is
// validated, given its tenants (in trace order) and stable-sorted by time
// when the stream is built. Throws std::invalid_argument on zero tenants,
// a non-positive rate, 2^32 or more requests, or an empty or too long
// trace; next() throws when an arrival time does not fit (arrival_time_ps).
class ArrivalStream {
 public:
  explicit ArrivalStream(const ArrivalConfig& config);

  // Writes the next arrival to `out`; false once the stream is exhausted.
  bool next(Arrival& out);

 private:
  ArrivalKind kind_;
  double rate_rps_;
  unsigned tenants_;
  std::uint64_t count_;      // arrivals the stream yields
  std::uint64_t index_ = 0;  // arrivals yielded so far
  double clock_s_ = 0.0;     // kPoisson: time of the last arrival
  // Two independent seeded streams so the arrival timeline is unchanged
  // by the tenant count (and vice versa): sweeping `tenants` compares the
  // same traffic divided differently.
  util::Rng arrival_rng_;
  util::Rng tenant_rng_;
  std::vector<Arrival> trace_;  // kTrace: the sorted replay
};

class LoadGenerator {
 public:
  explicit LoadGenerator(const ArrivalConfig& config);

  // The full open-loop schedule: a fresh ArrivalStream drained into a
  // vector, sorted by arrival time, ids in arrival order. Deterministic in
  // the config (see header contract); throws as ArrivalStream does.
  std::vector<Arrival> schedule() const;

  const ArrivalConfig& config() const noexcept { return config_; }

 private:
  ArrivalConfig config_;
};

// Parses trace text into ArrivalConfig::trace: one arrival per line,
// either "SECONDS" or "SECONDS TENANT"; blank lines and #-comments are
// skipped. Lines with an explicit tenant pin the request to that tenant
// (modulo the configured tenant count); others are assigned from the
// seeded stream. Throws std::runtime_error on a malformed line.
std::vector<TraceEntry> parse_trace(const std::string& text);

// ---- served models ----

// A model the serve loop can host: `layers(batch)` is the GEMM task list
// one admitted batch of `batch` requests executes (batch scales the GEMM
// M/N dims exactly as the offline workload generators do).
struct ServeModel {
  std::string name;
  sa::Precision precision = sa::Precision::kFp32;
  unsigned seq_len = 0;  // 0 when the model has no sequence dimension

  std::vector<sa::TileShape> layers(unsigned batch) const;
};

// Catalogue: tiny (a three-layer MLP small enough for the detailed
// machine), resnet50, bert, gpt3 (the offline workload generators at the
// batch size of the admitted batch). Throws std::invalid_argument on an
// unknown name.
ServeModel serve_model(const std::string& name, unsigned seq_len);

}  // namespace maco::serve
