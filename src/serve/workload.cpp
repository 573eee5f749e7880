#include "serve/workload.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "graph/builtin_models.hpp"
#include "graph/lowering.hpp"
#include "util/rng.hpp"

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

LoadGenerator::LoadGenerator(const ArrivalConfig& config) : config_(config) {}

std::vector<Request> LoadGenerator::schedule() const {
  if (config_.tenants == 0) {
    throw std::invalid_argument("load generator needs >= 1 tenant");
  }
  // Two independent seeded streams so the arrival timeline is unchanged
  // by the tenant count (and vice versa): sweeping `tenants` compares the
  // same traffic divided differently.
  util::Rng arrival_rng(0x5eefull ^ (config_.seed * 0x9e3779b97f4a7c15ull));
  util::Rng tenant_rng(0x7e4a ^ (config_.seed * 0xbf58476d1ce4e5b9ull));

  std::vector<Request> requests;
  const auto push = [&](double arrival_s, int pinned_tenant) {
    Request request;
    request.id = requests.size();
    request.tenant =
        pinned_tenant >= 0
            ? static_cast<unsigned>(pinned_tenant) % config_.tenants
            : static_cast<unsigned>(tenant_rng.next_below(config_.tenants));
    request.arrival_ps = static_cast<sim::TimePs>(
        std::llround(arrival_s * static_cast<double>(sim::kPsPerSecond)));
    requests.push_back(request);
  };

  switch (config_.kind) {
    case ArrivalKind::kPoisson: {
      if (!(config_.rate_rps > 0.0)) {
        throw std::invalid_argument("poisson arrivals need rate_rps > 0");
      }
      requests.reserve(config_.requests);
      double t = 0.0;
      for (std::uint64_t i = 0; i < config_.requests; ++i) {
        // Exponential inter-arrival; 1 - U keeps the argument in (0, 1].
        t += -std::log(1.0 - arrival_rng.next_double()) / config_.rate_rps;
        push(t, -1);
      }
      break;
    }
    case ArrivalKind::kUniform: {
      if (!(config_.rate_rps > 0.0)) {
        throw std::invalid_argument("uniform arrivals need rate_rps > 0");
      }
      requests.reserve(config_.requests);
      for (std::uint64_t i = 0; i < config_.requests; ++i) {
        push(static_cast<double>(i + 1) / config_.rate_rps, -1);
      }
      break;
    }
    case ArrivalKind::kTrace: {
      if (config_.trace.empty()) {
        throw std::invalid_argument("trace arrivals need a non-empty trace");
      }
      requests.reserve(config_.trace.size());
      for (const TraceEntry& entry : config_.trace) {
        if (!(entry.arrival_s >= 0.0) || !std::isfinite(entry.arrival_s)) {
          throw std::invalid_argument(
              "trace arrival times must be finite and >= 0");
        }
        push(entry.arrival_s, entry.tenant);
      }
      // Poisson and uniform arrivals come out in non-decreasing order;
      // only a trace can be out of order. Stable: simultaneous arrivals
      // keep trace order.
      std::stable_sort(requests.begin(), requests.end(),
                       [](const Request& a, const Request& b) {
                         return a.arrival_ps < b.arrival_ps;
                       });
      for (std::size_t i = 0; i < requests.size(); ++i) {
        requests[i].id = i;
      }
      break;
    }
  }
  return requests;
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
