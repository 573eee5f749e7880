#include "trace/timeline.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "isa/encoding.hpp"
#include "util/assert.hpp"

namespace maco::trace {

void Timeline::add(Span span) {
  MACO_ASSERT_MSG(span.end >= span.start,
                  "span '" << span.name << "' ends before it starts");
  spans_.push_back(std::move(span));
}

void Timeline::add(std::string track, std::string name, sim::TimePs start,
                   sim::TimePs end) {
  add(Span{std::move(track), std::move(name), start, end});
}

void Timeline::import_reports(const std::string& track,
                              const std::vector<mmae::TaskReport>& reports) {
  for (const mmae::TaskReport& report : reports) {
    Span span;
    span.track = track;
    span.name = isa::mnemonic_name(report.op);
    span.start = report.start;
    span.end = report.end;
    add(std::move(span));
  }
}

sim::TimePs Timeline::begin_ps() const noexcept {
  sim::TimePs begin = ~sim::TimePs{0};
  for (const Span& span : spans_) begin = std::min(begin, span.start);
  return spans_.empty() ? 0 : begin;
}

sim::TimePs Timeline::end_ps() const noexcept {
  sim::TimePs end = 0;
  for (const Span& span : spans_) end = std::max(end, span.end);
  return end;
}

std::string Timeline::render_ascii(std::size_t width) const {
  if (spans_.empty() || width == 0) return "(empty timeline)\n";
  const sim::TimePs t0 = begin_ps();
  const sim::TimePs t1 = end_ps();
  const double span_ps = std::max<double>(1.0, static_cast<double>(t1 - t0));

  // Stable track order: first appearance.
  std::vector<std::string> order;
  std::map<std::string, std::string> rows;
  std::size_t label_width = 0;
  for (const Span& span : spans_) {
    if (!rows.count(span.track)) {
      order.push_back(span.track);
      rows[span.track] = std::string(width, '.');
      label_width = std::max(label_width, span.track.size());
    }
  }
  for (const Span& span : spans_) {
    std::string& row = rows[span.track];
    const auto col = [&](sim::TimePs t) {
      const double f = static_cast<double>(t - t0) / span_ps;
      return std::min(width - 1,
                      static_cast<std::size_t>(f * static_cast<double>(width)));
    };
    const char mark = span.name.empty()
                          ? '#'
                          : static_cast<char>(std::toupper(
                                static_cast<unsigned char>(span.name.back())));
    for (std::size_t c = col(span.start); c <= col(span.end == span.start
                                                       ? span.end
                                                       : span.end - 1);
         ++c) {
      row[c] = mark;
    }
  }

  std::ostringstream out;
  out << "timeline " << (t1 - t0) / 1e6 << " us ("
      << "1 col = " << span_ps / static_cast<double>(width) / 1e6 << " us)\n";
  for (const std::string& track : order) {
    out << "  " << track << std::string(label_width - track.size(), ' ')
        << " |" << rows[track] << "|\n";
  }
  return out.str();
}

}  // namespace maco::trace
