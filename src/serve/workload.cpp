#include "serve/workload.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "graph/builtin_models.hpp"
#include "graph/lowering.hpp"

namespace maco::serve {

const char* arrival_kind_name(ArrivalKind kind) noexcept {
  switch (kind) {
    case ArrivalKind::kPoisson: return "poisson";
    case ArrivalKind::kUniform: return "uniform";
    case ArrivalKind::kTrace: return "trace";
  }
  return "?";
}

ArrivalKind parse_arrival_kind(const std::string& name) {
  if (name == "poisson") return ArrivalKind::kPoisson;
  if (name == "uniform") return ArrivalKind::kUniform;
  if (name == "trace") return ArrivalKind::kTrace;
  throw std::invalid_argument("unknown arrival process '" + name +
                              "' (want poisson|uniform|trace)");
}

sim::TimePs arrival_time_ps(double seconds, const char* knob,
                            sim::TimePs base_ps) {
  // 2^63 ps: llround is exact below it, and arrival + timeout + makespan
  // sums stay far from wrapping the unsigned clock.
  constexpr double kLimitPs = 0x1p63;
  constexpr auto kLimit = static_cast<sim::TimePs>(kLimitPs);
  const double ps = seconds * static_cast<double>(sim::kPsPerSecond);
  if (ps >= 0.0 && ps < kLimitPs && base_ps < kLimit) {
    const auto offset = static_cast<sim::TimePs>(std::llround(ps));
    if (offset < kLimit - base_ps) return base_ps + offset;
  }
  std::ostringstream message;
  message << knob << ": an arrival at " << sim::to_seconds(base_ps) + seconds
          << " s is outside the simulated clock's range of 0 to 2^63 ps "
             "(about 106.7 days)";
  throw std::invalid_argument(message.str());
}

ArrivalStream::ArrivalStream(const ArrivalConfig& config)
    : kind_(config.kind),
      rate_rps_(config.rate_rps),
      tenants_(config.tenants),
      count_(config.kind == ArrivalKind::kTrace ? config.trace.size()
                                                : config.requests),
      arrival_rng_(0x5eefull ^ (config.seed * 0x9e3779b97f4a7c15ull)),
      tenant_rng_(0x7e4a ^ (config.seed * 0xbf58476d1ce4e5b9ull)) {
  if (tenants_ == 0) {
    throw std::invalid_argument("load generator needs >= 1 tenant");
  }
  if (kind_ != ArrivalKind::kTrace && !(rate_rps_ > 0.0)) {
    throw std::invalid_argument(std::string(arrival_kind_name(kind_)) +
                                " arrivals need rate_rps > 0");
  }
  if (count_ > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        kind_ == ArrivalKind::kTrace
            ? "a trace holds at most 2^32 - 1 arrivals"
            : "requests must be below 2^32 (request ids are 32-bit)");
  }
  if (kind_ != ArrivalKind::kTrace) return;
  if (config.trace.empty()) {
    throw std::invalid_argument("trace arrivals need a non-empty trace");
  }
  trace_.reserve(config.trace.size());
  for (const TraceEntry& entry : config.trace) {
    Arrival arrival;
    arrival.arrival_ps = arrival_time_ps(entry.arrival_s, "trace time");
    arrival.tenant =
        entry.tenant >= 0
            ? static_cast<unsigned>(entry.tenant) % tenants_
            : static_cast<unsigned>(tenant_rng_.next_below(tenants_));
    trace_.push_back(arrival);
  }
  // Poisson and uniform arrivals come out in non-decreasing order; only a
  // trace can be out of order. Stable: simultaneous arrivals keep trace
  // order.
  std::stable_sort(trace_.begin(), trace_.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.arrival_ps < b.arrival_ps;
                   });
  for (std::size_t i = 0; i < trace_.size(); ++i) {
    trace_[i].id = static_cast<std::uint32_t>(i);
  }
}

bool ArrivalStream::next(Arrival& out) {
  if (index_ == count_) return false;
  switch (kind_) {
    case ArrivalKind::kPoisson:
      // Exponential inter-arrival; 1 - U keeps the argument in (0, 1].
      clock_s_ += -std::log(1.0 - arrival_rng_.next_double()) / rate_rps_;
      out.arrival_ps =
          arrival_time_ps(clock_s_, "arrival_rate_rps and requests");
      break;
    case ArrivalKind::kUniform:
      out.arrival_ps =
          arrival_time_ps(static_cast<double>(index_ + 1) / rate_rps_,
                          "arrival_rate_rps and requests");
      break;
    case ArrivalKind::kTrace:
      out = trace_[index_++];
      return true;
  }
  out.id = static_cast<std::uint32_t>(index_++);
  out.tenant = static_cast<unsigned>(tenant_rng_.next_below(tenants_));
  return true;
}

LoadGenerator::LoadGenerator(const ArrivalConfig& config) : config_(config) {}

std::vector<Arrival> LoadGenerator::schedule() const {
  ArrivalStream stream(config_);
  std::vector<Arrival> arrivals;
  arrivals.reserve(config_.kind == ArrivalKind::kTrace ? config_.trace.size()
                                                        : config_.requests);
  for (Arrival arrival; stream.next(arrival);) arrivals.push_back(arrival);
  return arrivals;
}

std::vector<TraceEntry> parse_trace(const std::string& text) {
  std::vector<TraceEntry> entries;
  std::istringstream lines(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::istringstream fields(line);
    TraceEntry entry;
    if (!(fields >> entry.arrival_s)) {
      throw std::runtime_error("trace line " + std::to_string(lineno) +
                               ": expected 'SECONDS [TENANT]', got '" +
                               line + "'");
    }
    if (fields >> entry.tenant) {
      if (entry.tenant < 0) {
        throw std::runtime_error("trace line " + std::to_string(lineno) +
                                 ": tenant must be >= 0");
      }
    }
    std::string trailing;
    if (fields >> trailing) {
      throw std::runtime_error("trace line " + std::to_string(lineno) +
                               ": trailing text '" + trailing + "'");
    }
    if (!std::isfinite(entry.arrival_s) || entry.arrival_s < 0.0) {
      throw std::runtime_error("trace line " + std::to_string(lineno) +
                               ": arrival seconds must be finite and >= 0");
    }
    entries.push_back(entry);
  }
  return entries;
}

std::vector<sa::TileShape> ServeModel::layers(unsigned batch) const {
  if (batch == 0) {
    throw std::invalid_argument("a served batch has >= 1 request");
  }
  // Each served model is a builtin manifest. tiny is a three-layer MLP
  // over 16 tokens per request (its manifest's seq_len default): small
  // enough that one batch fits the detailed machine (m = 16*batch <= 2048
  // for batch <= 128) yet batch-sensitive like the real models. tiny and
  // resnet50 carry seq_len 0, so their manifest default applies.
  const char* manifest = name == "tiny"       ? "tiny"
                         : name == "resnet50" ? "resnet50-stage"
                         : name == "bert"     ? "bert-block"
                         : name == "gpt3"     ? "gpt3-block"
                                              : nullptr;
  if (manifest == nullptr) {
    throw std::invalid_argument("unknown served model '" + name + "'");
  }
  graph::LoweringOptions options;
  options.batch = batch;
  options.seq_len = seq_len;
  return graph::lower(graph::builtin_graph(manifest), options)
      .workload.expanded_shapes();
}

ServeModel serve_model(const std::string& name, unsigned seq_len) {
  ServeModel model;
  model.name = name;
  model.seq_len = seq_len;
  if (name == "tiny") {
    model.precision = sa::Precision::kFp32;
    model.seq_len = 0;
  } else if (name == "resnet50") {
    model.seq_len = 0;
  } else if (name != "bert" && name != "gpt3") {
    throw std::invalid_argument("unknown served model '" + name +
                                "' (want tiny|resnet50|bert|gpt3)");
  }
  // Validate eagerly so a bad name fails at configuration time.
  (void)model.layers(1);
  return model;
}

}  // namespace maco::serve
