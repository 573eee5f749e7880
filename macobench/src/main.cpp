// macobench: runs one benchmark workload once and prints one JSON line.
//
//   macobench --workload NAME --mode measure|setup|traced|check
//             [--serve-seed N] [--sample-seed N] [--trace-out FILE]
//
// run.py derives the seeds from the benchmark's --seed and starts one
// process per repetition, so no memoized or static state carries over.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace {

using macobench::Mode;

// JSON has no NaN or infinity; run.py treats null as a failed value.
std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string object(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ", ";
    out += quoted(name) + ": " + number(value);
  }
  return out + "}";
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Mode parse_mode(const std::string& name) {
  if (name == "measure") return Mode::kMeasure;
  if (name == "setup") return Mode::kSetup;
  if (name == "traced") return Mode::kTraced;
  if (name == "check") return Mode::kCheck;
  throw std::invalid_argument("unknown mode '" + name + "'");
}

std::uint64_t parse_u64(const std::string& text) {
  std::size_t used = 0;
  const unsigned long long value = std::stoull(text, &used);
  if (used != text.size()) {
    throw std::invalid_argument("not an integer: '" + text + "'");
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  Mode mode = Mode::kMeasure;
  std::string trace_out;
  macobench::Inputs inputs;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      const std::string value = argv[++i];
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--mode") {
        mode = parse_mode(value);
      } else if (flag == "--serve-seed") {
        inputs.serve_seed = parse_u64(value);
      } else if (flag == "--sample-seed") {
        inputs.sample_seed = parse_u64(value);
      } else if (flag == "--trace-out") {
        trace_out = value;
      } else {
        throw std::invalid_argument("unknown flag " + flag);
      }
    }
    if (workload.empty()) throw std::invalid_argument("--workload is required");
  } catch (const std::exception& error) {
    std::cerr << "macobench: " << error.what() << "\n";
    return 2;
  }

  const macobench::Output out =
      macobench::run_workload(workload, mode, inputs, trace_out);

  std::string errors = "[";
  for (const std::string& error : out.errors) {
    if (errors.size() > 1) errors += ", ";
    errors += quoted(error);
  }
  errors += "]";
  std::cout << "{\"wall_s\": " << number(out.wall_s)
            << ", \"setup_s\": " << number(out.setup_s)
            << ", \"peak_rss_mib\": " << number(peak_rss_mib())
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"errors\": " << errors
            << ", \"sim\": " << object(out.sim)
            << ", \"sweep\": " << object(out.sweep)
            << ", \"layers\": " << object(out.layers)
            << ", \"trace_file\": " << quoted(out.trace_file) << "}"
            << std::endl;
  return 0;
}
