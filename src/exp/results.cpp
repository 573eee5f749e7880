#include "exp/results.hpp"

#include <cmath>
#include <cstddef>
#include <sstream>
#include <string_view>

namespace maco::exp {

namespace {

bool is_percentile_token(std::string_view token) noexcept {
  if (token.size() < 2 || token.front() != 'p') return false;
  for (const char c : token.substr(1)) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

}  // namespace

bool lower_is_better_metric_name(std::string_view name) noexcept {
  if (name.find("latency") != std::string_view::npos) return true;
  while (!name.empty()) {
    const std::size_t underscore = name.find('_');
    if (is_percentile_token(name.substr(0, underscore))) return true;
    if (underscore == std::string_view::npos) break;
    name.remove_prefix(underscore + 1);
  }
  return false;
}

const Metric* ScenarioResult::find(std::string_view name) const noexcept {
  for (const Metric& metric : metrics) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

std::string format_metric_value(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::abs(value) < 1e15) {
    std::ostringstream out;
    out << static_cast<long long>(value);
    return out.str();
  }
  std::ostringstream out;
  out.precision(10);
  out << value;
  return out.str();
}

}  // namespace maco::exp
