// CSV reading/writing for flow traces and bench output.
//
// The dialect is deliberately simple: comma separator, no quoting (trace
// fields never contain commas), '#'-prefixed comment lines, first
// non-comment line is the header.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace keddah::util {

/// A parsed CSV document: header names plus row-major string cells.
class CsvTable {
 public:
  CsvTable() = default;

  /// Builds an empty table with the given column names.
  explicit CsvTable(std::vector<std::string> header);

  /// Parses CSV text. Throws std::runtime_error on ragged rows.
  static CsvTable parse(std::istream& in);

  /// Reads and parses a file. Throws std::runtime_error if unreadable.
  static CsvTable load(const std::string& path);

  const std::vector<std::string>& header() const { return header_; }
  std::size_t num_rows() const { return rows_.size(); }
  std::size_t num_cols() const { return header_.size(); }

  /// Index of a named column; throws std::out_of_range when absent.
  std::size_t column(const std::string& name) const;

  /// True if the header contains `name`.
  bool has_column(const std::string& name) const;

  const std::string& cell(std::size_t row, std::size_t col) const { return rows_.at(row).at(col); }
  const std::string& cell(std::size_t row, const std::string& col) const {
    return rows_.at(row).at(column(col));
  }

  /// Appends a row; must match the header width.
  void add_row(std::vector<std::string> row);

  /// Serializes (header + rows) to a stream.
  void write(std::ostream& out) const;

  /// Serializes to a file; throws std::runtime_error if unwritable.
  void save(const std::string& path) const;

 private:
  std::vector<std::string> header_;
  std::map<std::string, std::size_t> index_;
  std::vector<std::vector<std::string>> rows_;
};

/// Reads a CsvTable one row at a time, with typed cell readers for
/// loaders. Every rejection throws std::runtime_error formatted as
/// `source: row N: column: message` (rows count data rows from 1).
class CsvRowReader {
 public:
  /// Throws naming `source: header` when a `required` column is missing.
  /// The reader keeps references to `table` and `source`.
  CsvRowReader(const CsvTable& table, const std::string& source,
               std::span<const char* const> required);

  void seek(std::size_t row) { row_ = row; }

  [[noreturn]] void fail(const char* column, const std::string& message) const;

  /// The raw cell text.
  const std::string& text(const char* column) const { return table_.cell(row_, column); }

  /// A whole decimal integer in 0..max.
  std::uint64_t integer(const char* column, std::uint64_t max) const;

  /// A finite number >= 0.
  double number(const char* column) const;

 private:
  const CsvTable& table_;
  const std::string& source_;
  std::size_t row_ = 0;
};

}  // namespace keddah::util
