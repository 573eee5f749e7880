// Shared types of the macosim benchmark harness.
//
// One process runs one workload once, in one of four modes:
//  * measure — the untraced run: the public entry points the `macosim`
//    scenarios call, timed from outside (wall_s, setup_s);
//  * traced  — the same simulated work decomposed into the calls each
//    layer exposes, each call timed from outside into the per-layer
//    metrics and a host-time span file;
//  * setup   — the set-up part of measure only, for the workloads whose
//    set-up takes microseconds: run.py samples it from more processes;
//  * check   — the output checks that are too costly for every
//    repetition, outside any timed region: driver::run_sweep on the
//    equivalent scenario points, plus (detailed_scaling) the traced
//    decomposition with C read back and compared against a host A·B.
// run.py starts the processes, compares their simulated results and
// prints the benchmark's JSON result.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/observation.hpp"

namespace macobench {

namespace obs = maco::obs;
namespace sim = maco::sim;

enum class Mode { kMeasure, kSetup, kTraced, kCheck };

// Generated by run.py from the workload seed; the program sees only these.
struct Inputs {
  std::uint64_t serve_seed = 1;   // serve arrival/tenant stream
  std::uint64_t sample_seed = 1;  // fidelity=sampled draws and tile operands
  std::uint64_t requests = 3'000'000;  // serve_stream, fixed
};

// Host wall-clock seconds since construction.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Host-time spans of the traced run, one track per layer, written with
// obs::to_perfetto_json so `macosim trace` renders them as a Gantt.
// Timestamps are host time since the traced run began, in the picoseconds
// SpanRec carries, so the rendered times are host times.
class HostSpans {
 public:
  // Runs `fn`, records its span on `track`, returns its seconds.
  template <typename Fn>
  double time(const std::string& track, const std::string& name, Fn&& fn) {
    const double begin = clock_.seconds();
    fn();
    const double end = clock_.seconds();
    spans_.push_back(obs::SpanRec{track, name, to_ps(begin), to_ps(end)});
    return end - begin;
  }
  const std::vector<obs::SpanRec>& spans() const noexcept { return spans_; }

 private:
  static sim::TimePs to_ps(double seconds) {
    return static_cast<sim::TimePs>(seconds * 1e12);
  }
  Stopwatch clock_;
  std::vector<obs::SpanRec> spans_;
};

// What one process reports back to run.py.
struct Output {
  double wall_s = 0.0;   // the timed region (measure/traced)
  double setup_s = 0.0;  // its set-up part (measure)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  // Simulated results, bit-exact across modes and repetitions; run.py
  // digests them. Keys also name the driver::run_sweep values in `sweep`.
  std::map<std::string, double> sim;
  std::map<std::string, double> sweep;  // check mode
  std::map<std::string, double> layers; // traced mode: per-layer metrics
  std::string trace_file;               // traced mode: span file written

  void fail(std::uint64_t operations, const std::string& what) {
    failed += operations;
    errors.push_back(what);
  }
};

// Every per-layer metric name, zero-initialised: a layer a workload does
// not exercise reports 0.
std::map<std::string, double> empty_layers();

// mem.*, vm.*, noc.* and engine.events/clock_edges from collected
// counters (obs::collect under profile=counters).
void add_counter_layers(const obs::RunObservation& observation,
                        std::map<std::string, double>& layers);

// Nearest-rank percentile of `values` (q in [0, 1]); 0 when empty.
double percentile(std::vector<double> values, double q);

// Runs `workload` in `mode`; never throws (errors land in Output).
Output run_workload(const std::string& workload, Mode mode,
                    const Inputs& inputs, const std::string& trace_path);

}  // namespace macobench
