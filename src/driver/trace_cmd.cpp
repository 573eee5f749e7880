#include "driver/trace_cmd.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "noc/mesh_config.hpp"
#include "obs/observation.hpp"
#include "util/json.hpp"

namespace maco::driver {
namespace {

// A JSON number as an integer of type T in [lo, hi]. Converting a double
// that is not finite, not whole or outside T's range is undefined
// behaviour, so every such value throws naming `what` instead.
template <typename T>
T whole_number(double value, const std::string& what,
               T lo = std::numeric_limits<T>::min(),
               T hi = std::numeric_limits<T>::max()) {
  using limits = std::numeric_limits<T>;
  // T's bounds as exact doubles: min() is 0 or -2^digits, and 2^digits is
  // the first value past max().
  const bool fits = std::isfinite(value) && value == std::trunc(value) &&
                    value >= static_cast<double>(limits::min()) &&
                    value < std::ldexp(1.0, limits::digits);
  if (!fits || static_cast<T>(value) < lo || static_cast<T>(value) > hi) {
    std::ostringstream message;
    message << what << " must be a whole number in [" << lo << ", " << hi
            << "], got " << value;
    throw std::runtime_error(message.str());
  }
  return static_cast<T>(value);
}

// Event times are microseconds at picosecond resolution
// (obs/trace_writer.cpp); they round to the nearest picosecond.
sim::TimePs us_to_ps(double us, const char* key) {
  return whole_number<sim::TimePs>(std::round(us * 1e6),
                                   std::string("trace event '") + key +
                                       "' in picoseconds");
}

struct NocLink {
  unsigned node = 0;
  std::string dir;
  std::uint64_t flits = 0;
  std::uint64_t busy_ps = 0;
};

struct NocSection {
  unsigned width = 0;
  unsigned height = 0;
  std::uint64_t window_ps = 0;
  std::vector<NocLink> links;
};

double link_util(const NocLink& link, std::uint64_t window_ps) {
  if (window_ps == 0) return 0.0;
  return static_cast<double>(link.busy_ps) /
         static_cast<double>(window_ps);
}

// A required member of the NoC sidecar; throws naming the missing key
// instead of dereferencing find()'s nullptr.
const util::JsonValue& member(const util::JsonValue& object,
                              const char* key) {
  const util::JsonValue* value = object.find(key);
  if (value == nullptr) {
    throw std::runtime_error(
        std::string("trace \"maco\".\"noc\" section is missing '") + key +
        "'");
  }
  return *value;
}

// A required integer member of the NoC sidecar, checked by whole_number.
template <typename T>
T integer_member(const util::JsonValue& object, const char* key,
                 T lo = std::numeric_limits<T>::min(),
                 T hi = std::numeric_limits<T>::max()) {
  return whole_number(
      member(object, key).as_number(),
      std::string("trace \"maco\".\"noc\" member '") + key + "'", lo, hi);
}

// The writer's sidecar ("maco"."noc") when present; an empty section
// otherwise. Field errors throw through JsonValue's checked accessors and
// integer_member, naming the malformed member. The mesh is at most
// kMaxMeshSide on a side, as the mesh_width/mesh_height knobs allow.
NocSection parse_noc(const util::JsonValue& doc) {
  NocSection section;
  if (!doc.is_object()) return section;
  const util::JsonValue* maco = doc.find("maco");
  if (maco == nullptr) return section;
  const util::JsonValue* noc = maco->find("noc");
  if (noc == nullptr) return section;
  section.width = integer_member(*noc, "width", 1u, noc::kMaxMeshSide);
  section.height = integer_member(*noc, "height", 1u, noc::kMaxMeshSide);
  section.window_ps = integer_member<std::uint64_t>(*noc, "window_ps");
  for (const util::JsonValue& entry : member(*noc, "links").as_array()) {
    NocLink link;
    link.node = integer_member(entry, "node", 0u,
                               section.width * section.height - 1);
    link.dir = member(entry, "dir").as_string();
    link.flits = integer_member<std::uint64_t>(entry, "flits");
    link.busy_ps = integer_member<std::uint64_t>(entry, "busy_ps");
    section.links.push_back(std::move(link));
  }
  return section;
}

// The ASCII Gantt: a summary line, then one row per track in order of
// first appearance, `width` columns spanning the trace. A span's cells
// show the last letter of its name, upper-cased; '.' is idle.
std::string render_gantt(const std::vector<obs::SpanRec>& spans,
                         std::size_t width) {
  if (spans.empty()) return "trace has no complete ('X') events to render\n";
  sim::TimePs t0 = ~sim::TimePs{0};
  sim::TimePs t1 = 0;
  std::vector<std::string> order;
  std::map<std::string, std::string> rows;
  std::size_t label_width = 0;
  for (const obs::SpanRec& span : spans) {
    t0 = std::min(t0, span.start);
    t1 = std::max(t1, span.end);
    if (rows.emplace(span.track, std::string(width, '.')).second) {
      order.push_back(span.track);
      label_width = std::max(label_width, span.track.size());
    }
  }
  std::ostringstream out;
  out << spans.size() << " span(s) on " << order.size() << " track(s), "
      << static_cast<double>(t1 - t0) / 1e6 << " us\n";
  if (width == 0) return out.str() + "(empty timeline)\n";

  const double span_ps = std::max<double>(1.0, static_cast<double>(t1 - t0));
  const auto col = [&](sim::TimePs t) {
    const double f = static_cast<double>(t - t0) / span_ps;
    return std::min(width - 1,
                    static_cast<std::size_t>(f * static_cast<double>(width)));
  };
  for (const obs::SpanRec& span : spans) {
    const char mark = span.name.empty()
                          ? '#'
                          : static_cast<char>(std::toupper(
                                static_cast<unsigned char>(span.name.back())));
    std::string& row = rows[span.track];
    const sim::TimePs last = span.end == span.start ? span.end : span.end - 1;
    for (std::size_t c = col(span.start); c <= col(last); ++c) row[c] = mark;
  }
  out << "timeline " << (t1 - t0) / 1e6 << " us ("
      << "1 col = " << span_ps / static_cast<double>(width) / 1e6 << " us)\n";
  for (const std::string& track : order) {
    out << "  " << track << std::string(label_width - track.size(), ' ')
        << " |" << rows[track] << "|\n";
  }
  return out.str();
}

std::string render_noc_text(const NocSection& noc) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(1);
  out << "NoC " << noc.width << "x" << noc.height
      << " link utilization over "
      << static_cast<double>(noc.window_ps) / 1e6
      << " us (max over each node's directed links, %):\n";
  // Per-node peak across its eject/north/south/east/west links: the grid
  // stays terminal-sized however many links the mesh has.
  std::vector<double> node_util(
      static_cast<std::size_t>(noc.width) * noc.height, 0.0);
  for (const NocLink& link : noc.links) {
    node_util[link.node] =
        std::max(node_util[link.node], link_util(link, noc.window_ps));
  }
  // "x" + to_string(...) as one expression trips GCC 12's -Wrestrict
  // false positive under -Werror; append instead.
  const auto label = [](char axis, unsigned i) {
    std::string text(1, axis);
    text += std::to_string(i);
    return text;
  };
  out << "     ";
  for (unsigned x = 0; x < noc.width; ++x) {
    out << std::setw(6) << label('x', x);
  }
  out << "\n";
  for (unsigned y = 0; y < noc.height; ++y) {
    out << std::setw(5) << label('y', y);
    for (unsigned x = 0; x < noc.width; ++x) {
      out << std::setw(6) << 100.0 * node_util[y * noc.width + x];
    }
    out << "\n";
  }

  std::vector<const NocLink*> hottest;
  hottest.reserve(noc.links.size());
  for (const NocLink& link : noc.links) hottest.push_back(&link);
  std::sort(hottest.begin(), hottest.end(),
            [](const NocLink* a, const NocLink* b) {
              return a->busy_ps != b->busy_ps ? a->busy_ps > b->busy_ps
                                              : a->node < b->node;
            });
  const std::size_t shown = std::min<std::size_t>(hottest.size(), 8);
  out << "hottest links:\n";
  for (std::size_t i = 0; i < shown; ++i) {
    const NocLink& link = *hottest[i];
    out << "  node " << link.node << " (x" << link.node % noc.width
        << ",y" << link.node / noc.width << ") " << link.dir << ": "
        << 100.0 * link_util(link, noc.window_ps) << "% (" << link.flits
        << " flit(s))\n";
  }
  return out.str();
}

std::string render_noc_csv(const NocSection& noc) {
  std::ostringstream out;
  out << "node,x,y,dir,flits,busy_ps,util\n";
  for (const NocLink& link : noc.links) {
    out << link.node << ',' << link.node % noc.width << ','
        << link.node / noc.width << ',' << link.dir << ',' << link.flits
        << ',' << link.busy_ps << ','
        << link_util(link, noc.window_ps) << "\n";
  }
  return out.str();
}

}  // namespace

TraceRender render_trace(const std::string& json_text, std::size_t width) {
  const util::JsonValue doc = util::parse_json(json_text);
  const util::JsonValue* events = nullptr;
  if (doc.is_array()) {
    events = &doc;
  } else if (doc.is_object()) {
    events = doc.find("traceEvents");
  }
  if (events == nullptr || !events->is_array()) {
    throw std::runtime_error(
        "not a Chrome trace: expected a top-level array or an object with "
        "a traceEvents array");
  }

  std::vector<obs::SpanRec> spans;
  for (const util::JsonValue& event : events->as_array()) {
    const util::JsonValue* ph = event.find("ph");
    if (ph == nullptr || !ph->is_string() || ph->as_string() != "X") {
      continue;  // only complete events carry a renderable interval
    }
    const util::JsonValue* name = event.find("name");
    const util::JsonValue* tid = event.find("tid");
    const util::JsonValue* ts = event.find("ts");
    const util::JsonValue* dur = event.find("dur");
    if (name == nullptr || tid == nullptr || ts == nullptr ||
        dur == nullptr || !ts->is_number() || !dur->is_number()) {
      continue;
    }
    // Foreign traces may use numeric thread ids; ours are track strings.
    const std::string track =
        tid->is_string()
            ? tid->as_string()
            : "tid" + std::to_string(whole_number<long long>(
                          tid->as_number(), "trace event 'tid'"));
    const sim::TimePs start = us_to_ps(ts->as_number(), "ts");
    const sim::TimePs duration = us_to_ps(dur->as_number(), "dur");
    if (duration > std::numeric_limits<sim::TimePs>::max() - start) {
      throw std::runtime_error(
          "trace event 'ts' + 'dur' overflows the picosecond clock");
    }
    spans.push_back(
        obs::SpanRec{track, name->as_string(), start, start + duration});
  }

  TraceRender render;
  render.gantt = render_gantt(spans, width);
  const NocSection noc = parse_noc(doc);
  if (!noc.links.empty()) {
    render.noc_text = render_noc_text(noc);
    render.noc_csv = render_noc_csv(noc);
  }
  return render;
}

}  // namespace maco::driver
