// ASCII table formatting for `macosim`'s terminal output (sweep results,
// --list-scenarios, the hardware-knob table, `graph show`), plus the CSV
// cell writer behind sweep CSVs and `report`.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace maco::util {

enum class Align { kLeft, kRight };

// Row-oriented table; all formatting happens at print time.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  // Each add_row must supply exactly one cell per header.
  void add_row(std::vector<std::string> cells);

  // Convenience: build a row from heterogeneous values.
  class RowBuilder {
   public:
    explicit RowBuilder(Table& table) : table_(table) {}
    ~RowBuilder() { table_.add_row(std::move(cells_)); }
    RowBuilder(const RowBuilder&) = delete;
    RowBuilder& operator=(const RowBuilder&) = delete;

    RowBuilder& cell(std::string value);
    RowBuilder& cell(const char* value) { return cell(std::string(value)); }
    RowBuilder& cell(double value, int precision = 2);
    RowBuilder& cell(std::uint64_t value);
    // Percentage with one decimal, e.g. 93.4%.
    RowBuilder& percent(double fraction, int precision = 1);

   private:
    Table& table_;
    std::vector<std::string> cells_;
  };

  RowBuilder row() { return RowBuilder(*this); }

  void set_align(std::size_t column, Align align);
  void print(std::ostream& os, const std::string& title = "") const;

  std::size_t num_rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<Align> aligns_;
};

// Formats a double with fixed precision (no locale surprises).
std::string format_double(double value, int precision);

// Writes one RFC-4180 CSV cell: fields containing commas, quotes or
// newlines are quoted, embedded quotes doubled.
void write_csv_cell(std::ostream& os, const std::string& cell);

}  // namespace maco::util
