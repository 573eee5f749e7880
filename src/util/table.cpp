#include "util/table.hpp"

#include <algorithm>
#include <cstdio>

#include "util/assert.hpp"

namespace maco::util {

std::string format_double(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)), aligns_(headers_.size(), Align::kRight) {
  MACO_ASSERT(!headers_.empty());
  aligns_[0] = Align::kLeft;  // first column is usually a label
}

void Table::add_row(std::vector<std::string> cells) {
  MACO_ASSERT_MSG(cells.size() == headers_.size(),
                  "row has " << cells.size() << " cells, expected "
                             << headers_.size());
  rows_.push_back(std::move(cells));
}

Table::RowBuilder& Table::RowBuilder::cell(std::string value) {
  cells_.push_back(std::move(value));
  return *this;
}

Table::RowBuilder& Table::RowBuilder::cell(double value, int precision) {
  return cell(format_double(value, precision));
}

Table::RowBuilder& Table::RowBuilder::cell(std::uint64_t value) {
  return cell(std::to_string(value));
}

Table::RowBuilder& Table::RowBuilder::percent(double fraction, int precision) {
  return cell(format_double(fraction * 100.0, precision) + "%");
}

void Table::set_align(std::size_t column, Align align) {
  MACO_ASSERT(column < aligns_.size());
  aligns_[column] = align;
}

void Table::print(std::ostream& os, const std::string& title) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto print_cell = [&](const std::string& text, std::size_t c) {
    const std::size_t pad = widths[c] - text.size();
    if (aligns_[c] == Align::kRight) os << std::string(pad, ' ') << text;
    else os << text << std::string(pad, ' ');
  };
  auto print_rule = [&] {
    os << '+';
    for (std::size_t c = 0; c < widths.size(); ++c) {
      os << std::string(widths[c] + 2, '-') << '+';
    }
    os << '\n';
  };

  if (!title.empty()) os << title << '\n';
  print_rule();
  os << '|';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << ' ';
    print_cell(headers_[c], c);
    os << " |";
  }
  os << '\n';
  print_rule();
  for (const auto& row : rows_) {
    os << '|';
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << ' ';
      print_cell(row[c], c);
      os << " |";
    }
    os << '\n';
  }
  print_rule();
}

void write_csv_cell(std::ostream& os, const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) {
    os << cell;
    return;
  }
  os << '"';
  for (const char c : cell) {
    if (c == '"') os << '"';
    os << c;
  }
  os << '"';
}

}  // namespace maco::util
