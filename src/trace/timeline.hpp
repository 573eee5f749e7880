// Execution timelines: collect per-component activity spans and render
// them as an ASCII Gantt chart for terminal output. Trace files for
// chrome://tracing or Perfetto come from obs::to_perfetto_json.
//
// The spans come from the simulator's own bookkeeping — MMAE task reports,
// GEMM+ schedules — so a timeline is a faithful picture of what the timing
// model computed, not a separate estimate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mmae/accelerator_controller.hpp"
#include "sim/time.hpp"

namespace maco::trace {

struct Span {
  std::string track;  // row label, e.g. "node0.mmae"
  std::string name;   // span label, e.g. "MA_CFG 64x64x64"
  sim::TimePs start = 0;
  sim::TimePs end = 0;

  sim::TimePs duration() const noexcept {
    return end > start ? end - start : 0;
  }
};

class Timeline {
 public:
  void add(Span span);
  void add(std::string track, std::string name, sim::TimePs start,
           sim::TimePs end);

  // Imports every task report of an MMAE as spans on `track`.
  void import_reports(const std::string& track,
                      const std::vector<mmae::TaskReport>& reports);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  sim::TimePs begin_ps() const noexcept;
  sim::TimePs end_ps() const noexcept;

  // ASCII Gantt: one row per track, `width` columns spanning the timeline.
  // Span cells show the first letter of the span name; '.' is idle.
  std::string render_ascii(std::size_t width = 72) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace maco::trace
