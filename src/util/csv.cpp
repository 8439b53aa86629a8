#include "util/csv.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/diagnostic.h"
#include "util/strings.h"

namespace keddah::util {

CsvTable::CsvTable(std::vector<std::string> header) : header_(std::move(header)) {
  for (std::size_t i = 0; i < header_.size(); ++i) index_[header_[i]] = i;
}

CsvTable CsvTable::parse(std::istream& in) {
  CsvTable table;
  std::string line;
  bool saw_header = false;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view stripped = trim(line);
    if (stripped.empty() || stripped.front() == '#') continue;
    auto fields = split(stripped, ',');
    for (auto& f : fields) f = std::string(trim(f));
    if (!saw_header) {
      table = CsvTable(std::move(fields));
      saw_header = true;
      continue;
    }
    if (fields.size() != table.header_.size()) {
      throw std::runtime_error("csv: ragged row at line " + std::to_string(line_no) + " (" +
                               std::to_string(fields.size()) + " fields, expected " +
                               std::to_string(table.header_.size()) + ")");
    }
    table.rows_.push_back(std::move(fields));
  }
  return table;
}

CsvTable CsvTable::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("csv: cannot open " + path);
  return parse(in);
}

std::size_t CsvTable::column(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) throw std::out_of_range("csv: no column named '" + name + "'");
  return it->second;
}

bool CsvTable::has_column(const std::string& name) const { return index_.count(name) != 0; }

void CsvTable::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    throw std::invalid_argument("csv: row width " + std::to_string(row.size()) +
                                " does not match header width " + std::to_string(header_.size()));
  }
  rows_.push_back(std::move(row));
}

void CsvTable::write(std::ostream& out) const {
  out << join(header_, ",") << "\n";
  for (const auto& row : rows_) out << join(row, ",") << "\n";
}

void CsvTable::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("csv: cannot write " + path);
  write(out);
}

namespace {

/// Parses all of `cell` as a T: false on junk, trailing junk or overflow.
template <typename T>
bool parse_whole(const std::string& cell, T& value) {
  const auto [end, ec] = std::from_chars(cell.data(), cell.data() + cell.size(), value);
  return ec == std::errc() && end == cell.data() + cell.size();
}

}  // namespace

CsvRowReader::CsvRowReader(const CsvTable& table, const std::string& source,
                           std::span<const char* const> required)
    : table_(table), source_(source) {
  for (const char* column : required) {
    if (!table.has_column(column)) {
      throw std::runtime_error(
          format_diagnostic(source, "header", format("no '%s' column", column), ""));
    }
  }
}

void CsvRowReader::fail(const char* column, const std::string& message) const {
  throw std::runtime_error(
      format_diagnostic(source_, format("row %zu: %s", row_ + 1, column), message, ""));
}

std::uint64_t CsvRowReader::integer(const char* column, std::uint64_t max) const {
  const std::string& cell = text(column);
  std::uint64_t value = 0;
  if (!parse_whole(cell, value) || value > max) {
    fail(column, format("'%s' is not an integer in 0..%llu", cell.c_str(),
                        static_cast<unsigned long long>(max)));
  }
  return value;
}

double CsvRowReader::number(const char* column) const {
  const std::string& cell = text(column);
  double value = 0.0;
  if (!parse_whole(cell, value) || !std::isfinite(value) || value < 0.0) {
    fail(column, "'" + cell + "' is not a finite number >= 0");
  }
  return value;
}

}  // namespace keddah::util
