#include "store/query.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "util/json.hpp"
#include "util/table.hpp"

namespace maco::store {
namespace {

using exp::format_metric_value;
using util::json_escape;

std::string param_or_empty(const CampaignRecord& record,
                           const std::string& key) {
  const auto it = record.params.find(key);
  return it == record.params.end() ? std::string() : it->second;
}

const exp::Metric* find_metric(const CampaignRecord& record,
                               const std::string& name) {
  for (const exp::Metric& metric : record.metrics) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

// X_ci95 / X_se columns are statistical qualifiers of metric X, and the
// tile-coverage counters describe the sampling plan rather than the
// machine (both emitted by fidelity=sampled) — none are results to diff
// on their own.
bool is_error_bar_metric(const std::string& name) {
  return name.ends_with("_ci95") || name.ends_with("_se") ||
         name == "sampled_tiles" || name == "total_tiles";
}

// The 95% half-width companion of `name` (0 when the record carries none —
// an exhaustive run's value is a point, not an interval).
double ci95_of(const CampaignRecord& record, const std::string& name) {
  const exp::Metric* ci = find_metric(record, name + "_ci95");
  return ci != nullptr && std::isfinite(ci->value) ? std::abs(ci->value)
                                                   : 0.0;
}

// "gemm size=512! nodes=4" — the scenario plus the user-set knobs, the
// compact human identity of a point in comparison output.
std::string point_label(const CampaignRecord& record) {
  std::string label = record.scenario;
  for (const std::string& key : record.explicit_params) {
    label += ' ';
    label += key;
    label += '=';
    label += param_or_empty(record, key);
  }
  return label;
}

std::string percent_text(double rel_change) {
  if (std::isnan(rel_change)) return "n/a";
  if (!std::isfinite(rel_change)) return rel_change > 0 ? "+inf%" : "-inf%";
  std::ostringstream out;
  out.precision(2);
  out << std::fixed << (rel_change >= 0 ? "+" : "") << rel_change * 100.0
      << '%';
  return out.str();
}

const char* delta_status(const MetricDelta& delta) {
  if (delta.regression) return "REGRESSION";
  if (delta.improvement) return "improvement";
  return "ok";
}

}  // namespace

std::vector<const CampaignRecord*> select(
    const std::vector<CampaignRecord>& records,
    const std::map<std::string, std::string>& where) {
  std::vector<const CampaignRecord*> selected;
  for (const CampaignRecord& record : records) {
    const bool matches = std::all_of(
        where.begin(), where.end(), [&](const auto& clause) {
          if (clause.first == "scenario") {
            return record.scenario == clause.second;
          }
          const auto it = record.params.find(clause.first);
          return it != record.params.end() && it->second == clause.second;
        });
    if (matches) selected.push_back(&record);
  }
  return selected;
}

std::size_t CampaignTable::failures() const noexcept {
  std::size_t count = 0;
  for (const CampaignRecord* row : rows) {
    if (!row->ok()) ++count;
  }
  return count;
}

CampaignTable build_table(const std::vector<const CampaignRecord*>& records,
                          const std::vector<std::string>& metrics) {
  CampaignTable table;
  table.rows = records;
  if (records.empty()) return table;

  // A parameter column is "fixed" when every record agrees on its value
  // (absence counts as a distinct value, so cross-scenario mixes keep the
  // column); fixed columns collapse into the preamble.
  std::map<std::string, std::string> first_value;
  std::map<std::string, bool> varies;
  const bool one_scenario = std::all_of(
      records.begin(), records.end(), [&](const CampaignRecord* r) {
        return r->scenario == records.front()->scenario;
      });
  for (const CampaignRecord* record : records) {
    for (const auto& [key, value] : record->params) {
      const auto [it, inserted] = first_value.emplace(key, value);
      if (!inserted && it->second != value) varies[key] = true;
    }
  }
  for (const CampaignRecord* record : records) {
    for (auto& [key, value] : first_value) {
      if (record->params.count(key) == 0) varies[key] = true;
    }
  }
  if (!one_scenario) table.param_columns.push_back("scenario");
  for (const auto& [key, value] : first_value) {
    if (varies.count(key) != 0) {
      table.param_columns.push_back(key);
    } else {
      table.fixed_params.emplace(key, value);
    }
  }

  // A metric sharing its name with a parameter (a scenario echoing a swept
  // `size`) is dropped — the parameter column already carries the value.
  const auto want_metric = [&](const std::string& name) {
    if (first_value.count(name) != 0) return false;
    return metrics.empty() ||
           std::find(metrics.begin(), metrics.end(), name) != metrics.end();
  };
  for (const CampaignRecord* record : records) {
    for (const exp::Metric& metric : record->metrics) {
      if (!want_metric(metric.name)) continue;
      const bool seen = std::any_of(
          table.metric_columns.begin(), table.metric_columns.end(),
          [&](const TableColumn& column) {
            return column.name == metric.name;
          });
      if (!seen) {
        table.metric_columns.push_back(TableColumn{
            metric.name, metric.unit, metric.higher_is_better});
      }
    }
  }
  return table;
}

namespace {

void write_table_csv(std::ostream& out, const CampaignTable& table) {
  // CSV keeps every parameter (fixed ones first) so the file stands alone
  // for machine processing; only the console/markdown views collapse them.
  bool first = true;
  const auto emit = [&](const std::string& cell) {
    if (!first) out << ',';
    util::write_csv_cell(out, cell);
    first = false;
  };
  for (const auto& [key, value] : table.fixed_params) emit(key);
  for (const std::string& key : table.param_columns) emit(key);
  for (const TableColumn& column : table.metric_columns) emit(column.name);
  emit("error");
  out << '\n';
  for (const CampaignRecord* record : table.rows) {
    first = true;
    for (const auto& [key, value] : table.fixed_params) {
      emit(param_or_empty(*record, key));
    }
    for (const std::string& key : table.param_columns) {
      emit(key == "scenario" && record->params.count(key) == 0
               ? record->scenario
               : param_or_empty(*record, key));
    }
    for (const TableColumn& column : table.metric_columns) {
      const exp::Metric* metric = find_metric(*record, column.name);
      emit(metric == nullptr ? std::string()
                             : format_metric_value(metric->value));
    }
    emit(record->error);
    out << '\n';
  }
}

void write_table_json(std::ostream& out, const CampaignTable& table) {
  out << "{\"fixed_params\":{";
  bool first = true;
  for (const auto& [key, value] : table.fixed_params) {
    if (!first) out << ',';
    out << '"' << json_escape(key) << "\":\"" << json_escape(value) << '"';
    first = false;
  }
  out << "},\"columns\":[";
  first = true;
  for (const TableColumn& column : table.metric_columns) {
    if (!first) out << ',';
    out << "{\"name\":\"" << json_escape(column.name) << "\",\"unit\":\""
        << json_escape(column.unit) << "\",\"higher_is_better\":"
        << (column.higher_is_better ? "true" : "false") << '}';
    first = false;
  }
  out << "],\"rows\":[";
  bool first_row = true;
  for (const CampaignRecord* record : table.rows) {
    if (!first_row) out << ',';
    first_row = false;
    out << "{\"scenario\":\"" << json_escape(record->scenario)
        << "\",\"fidelity\":\"" << json_escape(record->fidelity)
        << "\",\"params\":{";
    first = true;
    for (const auto& [key, value] : record->params) {
      if (!first) out << ',';
      out << '"' << json_escape(key) << "\":\"" << json_escape(value)
          << '"';
      first = false;
    }
    out << "},\"metrics\":{";
    first = true;
    for (const exp::Metric& metric : record->metrics) {
      if (!first) out << ',';
      out << '"' << json_escape(metric.name) << "\":";
      if (std::isfinite(metric.value)) {
        out << format_metric_value(metric.value);
      } else {
        out << "null";
      }
      first = false;
    }
    out << "},\"wall_ms\":" << format_metric_value(record->wall_ms);
    if (!record->ok()) {
      out << ",\"error\":\"" << json_escape(record->error) << '"';
    }
    out << '}';
  }
  out << "]}\n";
}

std::string markdown_escape(const std::string& text) {
  std::string escaped;
  escaped.reserve(text.size());
  for (const char c : text) {
    if (c == '|') escaped += "\\|";
    else if (c == '\n') escaped += ' ';
    else escaped += c;
  }
  return escaped;
}

void write_table_markdown(std::ostream& out, const CampaignTable& table) {
  if (!table.fixed_params.empty()) {
    out << "Fixed:";
    for (const auto& [key, value] : table.fixed_params) {
      out << " `" << key << "=" << value << "`";
    }
    out << "\n\n";
  }
  out << '|';
  for (const std::string& key : table.param_columns) {
    out << ' ' << markdown_escape(key) << " |";
  }
  for (const TableColumn& column : table.metric_columns) {
    out << ' ' << markdown_escape(column.name);
    if (!column.unit.empty()) out << " [" << markdown_escape(column.unit)
                                  << ']';
    out << " |";
  }
  out << " error |\n|";
  for (std::size_t i = 0;
       i < table.param_columns.size() + table.metric_columns.size() + 1;
       ++i) {
    out << "---|";
  }
  out << '\n';
  for (const CampaignRecord* record : table.rows) {
    out << '|';
    for (const std::string& key : table.param_columns) {
      out << ' '
          << markdown_escape(
                 key == "scenario" && record->params.count(key) == 0
                     ? record->scenario
                     : param_or_empty(*record, key))
          << " |";
    }
    for (const TableColumn& column : table.metric_columns) {
      const exp::Metric* metric = find_metric(*record, column.name);
      out << ' '
          << (metric == nullptr ? std::string()
                                : format_metric_value(metric->value))
          << " |";
    }
    out << ' ' << markdown_escape(record->error) << " |\n";
  }
}

void write_table_console(std::ostream& out, const CampaignTable& table) {
  for (const auto& [key, value] : table.fixed_params) {
    out << "  fixed: " << key << " = " << value << "\n";
  }
  std::vector<std::string> headers = table.param_columns;
  for (const TableColumn& column : table.metric_columns) {
    headers.push_back(column.unit.empty()
                          ? column.name
                          : column.name + " [" + column.unit + "]");
  }
  headers.push_back("error");
  util::Table t(headers);
  for (const CampaignRecord* record : table.rows) {
    auto row = t.row();
    for (const std::string& key : table.param_columns) {
      row.cell(key == "scenario" && record->params.count(key) == 0
                   ? record->scenario
                   : param_or_empty(*record, key));
    }
    for (const TableColumn& column : table.metric_columns) {
      if (const exp::Metric* metric = find_metric(*record, column.name)) {
        row.cell(metric->value, 4);
      } else {
        row.cell("");
      }
    }
    row.cell(record->error);
  }
  std::ostringstream title;
  title << table.rows.size() << " point(s)";
  if (table.failures() > 0) title << ", " << table.failures() << " FAILED";
  t.print(out, title.str());
}

}  // namespace

void write_table(std::ostream& out, const CampaignTable& table,
                 ReportFormat format) {
  switch (format) {
    case ReportFormat::kTable: write_table_console(out, table); return;
    case ReportFormat::kCsv: write_table_csv(out, table); return;
    case ReportFormat::kJson: write_table_json(out, table); return;
    case ReportFormat::kMarkdown: write_table_markdown(out, table); return;
  }
}

std::size_t CampaignComparison::regressions() const noexcept {
  std::size_t count = 0;
  for (const PointComparison& point : points) {
    for (const MetricDelta& delta : point.deltas) {
      count += delta.regression ? 1 : 0;
    }
  }
  return count;
}

std::size_t CampaignComparison::improvements() const noexcept {
  std::size_t count = 0;
  for (const PointComparison& point : points) {
    for (const MetricDelta& delta : point.deltas) {
      count += delta.improvement ? 1 : 0;
    }
  }
  return count;
}

CampaignComparison compare_campaigns(
    const std::vector<const CampaignRecord*>& current,
    const std::vector<const CampaignRecord*>& baseline,
    const CompareOptions& options) {
  CampaignComparison comparison;
  // Latest error-free record per (possibly ignore-reduced) fingerprint.
  // A later record with the same full fingerprint supersedes a re-run;
  // one with a DIFFERENT full fingerprint means --ignore collapsed two
  // genuinely distinct points (the store sweeps an ignored knob) — count
  // it so the summary can say data was excluded.
  const auto index = [&](const std::vector<const CampaignRecord*>& records,
                         std::size_t& collapsed) {
    std::unordered_map<std::uint64_t, const CampaignRecord*> map;
    for (const CampaignRecord* record : records) {
      if (!record->ok()) continue;
      const auto [it, inserted] =
          map.emplace(record->computed_fingerprint(options.ignore), record);
      if (!inserted) {
        if (it->second->fingerprint != record->fingerprint) ++collapsed;
        it->second = record;
      }
    }
    return map;
  };
  const auto current_index = index(current, comparison.current_collapsed);
  const auto baseline_index =
      index(baseline, comparison.baseline_collapsed);
  for (const CampaignRecord* record : current) {
    if (!record->ok()) continue;
    const std::uint64_t key = record->computed_fingerprint(options.ignore);
    if (current_index.at(key) != record) continue;  // superseded duplicate
    const auto partner = baseline_index.find(key);
    if (partner == baseline_index.end()) {
      ++comparison.current_only;
      continue;
    }
    PointComparison point;
    point.current = record;
    point.baseline = partner->second;
    for (const exp::Metric& metric : record->metrics) {
      if (!options.metrics.empty() &&
          std::find(options.metrics.begin(), options.metrics.end(),
                    metric.name) == options.metrics.end()) {
        continue;
      }
      if (is_error_bar_metric(metric.name)) continue;
      const exp::Metric* reference =
          find_metric(*point.baseline, metric.name);
      if (reference == nullptr) continue;
      MetricDelta delta;
      delta.metric = metric.name;
      delta.unit = metric.unit;
      delta.higher_is_better = metric.higher_is_better;
      delta.baseline = reference->value;
      delta.current = metric.value;
      if (!std::isfinite(reference->value) ||
          !std::isfinite(metric.value)) {
        // NaN/inf cannot be judged numerically, and letting a metric that
        // degraded to NaN read as "ok" would green-light exactly what the
        // gate exists to catch: only an identical non-finite pair passes.
        const bool unchanged =
            reference->value == metric.value ||
            (std::isnan(reference->value) && std::isnan(metric.value));
        delta.rel_change =
            unchanged ? 0.0 : std::numeric_limits<double>::quiet_NaN();
        delta.regression = !unchanged;
        point.deltas.push_back(std::move(delta));
        continue;
      }
      if (reference->value != 0.0) {
        delta.rel_change = (metric.value - reference->value) /
                           std::abs(reference->value);
      } else if (metric.value == 0.0) {
        delta.rel_change = 0.0;
      } else {
        delta.rel_change = metric.value > 0.0
                               ? std::numeric_limits<double>::infinity()
                               : -std::numeric_limits<double>::infinity();
      }
      const double worsening =
          metric.higher_is_better ? -delta.rel_change : delta.rel_change;
      delta.regression = worsening > options.tolerance;
      delta.improvement = -worsening > options.tolerance;
      // Error-bar widening: sampled estimates carry X_ci95 companions;
      // when the two intervals overlap, the movement is within the
      // estimates' joint uncertainty and is neither a regression nor an
      // improvement.
      delta.ci_current = ci95_of(*record, metric.name);
      delta.ci_baseline = ci95_of(*point.baseline, metric.name);
      if ((delta.regression || delta.improvement) &&
          std::abs(metric.value - reference->value) <=
              delta.ci_current + delta.ci_baseline) {
        delta.regression = false;
        delta.improvement = false;
      }
      point.deltas.push_back(std::move(delta));
    }
    comparison.points.push_back(std::move(point));
  }
  std::size_t matched_baseline = 0;
  for (const auto& [key, record] : baseline_index) {
    matched_baseline += current_index.count(key) != 0 ? 1 : 0;
  }
  comparison.baseline_only = baseline_index.size() - matched_baseline;
  return comparison;
}

namespace {

void write_comparison_console(std::ostream& out,
                              const CampaignComparison& comparison,
                              const CompareOptions& options,
                              bool markdown) {
  std::ostringstream summary;
  summary << comparison.points.size() << " matched point(s), "
          << comparison.regressions() << " regression(s), "
          << comparison.improvements() << " improvement(s)";
  if (comparison.current_only > 0 || comparison.baseline_only > 0) {
    summary << ", " << comparison.current_only << " current-only, "
            << comparison.baseline_only << " baseline-only";
  }
  if (comparison.current_collapsed > 0 ||
      comparison.baseline_collapsed > 0) {
    summary << ", " << comparison.current_collapsed << "+"
            << comparison.baseline_collapsed
            << " point(s) EXCLUDED by --ignore collapse";
  }
  summary << " (tolerance " << percent_text(options.tolerance).substr(1)
          << ")";
  if (markdown) {
    out << "**" << summary.str() << "**\n\n"
        << "| point | metric | baseline | current | change | status |\n"
        << "|---|---|---|---|---|---|\n";
    for (const PointComparison& point : comparison.points) {
      for (const MetricDelta& delta : point.deltas) {
        out << "| " << markdown_escape(point_label(*point.current)) << " | "
            << markdown_escape(delta.metric) << " | "
            << format_metric_value(delta.baseline) << " | "
            << format_metric_value(delta.current) << " | "
            << percent_text(delta.rel_change) << " | "
            << delta_status(delta) << " |\n";
      }
    }
    return;
  }
  util::Table t(
      {"point", "metric", "baseline", "current", "change", "status"});
  for (const PointComparison& point : comparison.points) {
    for (const MetricDelta& delta : point.deltas) {
      t.row()
          .cell(point_label(*point.current))
          .cell(delta.metric)
          .cell(format_metric_value(delta.baseline))
          .cell(format_metric_value(delta.current))
          .cell(percent_text(delta.rel_change))
          .cell(delta_status(delta));
    }
  }
  t.print(out, summary.str());
}

void write_comparison_csv(std::ostream& out,
                          const CampaignComparison& comparison) {
  out << "point,metric,unit,baseline,current,rel_change,status\n";
  for (const PointComparison& point : comparison.points) {
    for (const MetricDelta& delta : point.deltas) {
      util::write_csv_cell(out, point_label(*point.current));
      out << ',';
      util::write_csv_cell(out, delta.metric);
      out << ',';
      util::write_csv_cell(out, delta.unit);
      out << ',' << format_metric_value(delta.baseline) << ','
          << format_metric_value(delta.current) << ','
          << format_metric_value(delta.rel_change) << ','
          << delta_status(delta) << '\n';
    }
  }
}

// inf/nan metric values round-trip through the store but have no JSON
// literal; every number in the comparison document goes through this.
std::string json_number(double value) {
  return std::isfinite(value) ? format_metric_value(value)
                              : std::string("null");
}

void write_comparison_json(std::ostream& out,
                           const CampaignComparison& comparison,
                           const CompareOptions& options) {
  out << "{\"tolerance\":" << format_metric_value(options.tolerance)
      << ",\"matched\":" << comparison.points.size()
      << ",\"regressions\":" << comparison.regressions()
      << ",\"improvements\":" << comparison.improvements()
      << ",\"current_only\":" << comparison.current_only
      << ",\"baseline_only\":" << comparison.baseline_only
      << ",\"current_collapsed\":" << comparison.current_collapsed
      << ",\"baseline_collapsed\":" << comparison.baseline_collapsed
      << ",\"points\":[";
  bool first_point = true;
  for (const PointComparison& point : comparison.points) {
    if (!first_point) out << ',';
    first_point = false;
    out << "{\"point\":\"" << json_escape(point_label(*point.current))
        << "\",\"deltas\":[";
    bool first = true;
    for (const MetricDelta& delta : point.deltas) {
      if (!first) out << ',';
      first = false;
      out << "{\"metric\":\"" << json_escape(delta.metric)
          << "\",\"baseline\":" << json_number(delta.baseline)
          << ",\"current\":" << json_number(delta.current);
      if (delta.ci_baseline > 0.0 || delta.ci_current > 0.0) {
        out << ",\"ci95_baseline\":" << json_number(delta.ci_baseline)
            << ",\"ci95_current\":" << json_number(delta.ci_current);
      }
      out << ",\"rel_change\":" << json_number(delta.rel_change)
          << ",\"status\":\"" << delta_status(delta) << "\"}";
    }
    out << "]}";
  }
  out << "]}\n";
}

}  // namespace

void write_comparison(std::ostream& out,
                      const CampaignComparison& comparison,
                      ReportFormat format, const CompareOptions& options) {
  switch (format) {
    case ReportFormat::kTable:
      write_comparison_console(out, comparison, options, false);
      return;
    case ReportFormat::kMarkdown:
      write_comparison_console(out, comparison, options, true);
      return;
    case ReportFormat::kCsv:
      write_comparison_csv(out, comparison);
      return;
    case ReportFormat::kJson:
      write_comparison_json(out, comparison, options);
      return;
  }
}

}  // namespace maco::store
