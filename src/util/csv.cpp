#include "util/csv.hpp"

#include <charconv>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace coca::util {
namespace {

std::vector<std::string> split_line(std::string_view line) {
  std::vector<std::string> cells;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == ',') {
      std::string_view cell = line.substr(start, i - start);
      // Trim surrounding whitespace.
      while (!cell.empty() && (cell.front() == ' ' || cell.front() == '\t')) {
        cell.remove_prefix(1);
      }
      while (!cell.empty() && (cell.back() == ' ' || cell.back() == '\t' ||
                               cell.back() == '\r')) {
        cell.remove_suffix(1);
      }
      cells.emplace_back(cell);
      start = i + 1;
    }
  }
  return cells;
}

double parse_double(const std::string& cell) {
  double value = std::numeric_limits<double>::quiet_NaN();
  const char* begin = cell.data();
  const char* end = begin + cell.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return value;
}

}  // namespace

void CsvWriter::header(const std::vector<std::string>& columns) {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i) *out_ << ',';
    *out_ << columns[i];
  }
  *out_ << '\n';
}

void CsvWriter::row(const std::vector<double>& values) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) *out_ << ',';
    std::ostringstream cell;
    cell.precision(10);
    cell << values[i];
    *out_ << cell.str();
  }
  *out_ << '\n';
}

void CsvWriter::row(std::string_view label, const std::vector<double>& values) {
  *out_ << label;
  for (double v : values) {
    std::ostringstream cell;
    cell.precision(10);
    cell << v;
    *out_ << ',' << cell.str();
  }
  *out_ << '\n';
}

std::size_t CsvTable::column_index(std::string_view name) const {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == name) return i;
  }
  throw std::out_of_range("CsvTable: no column named '" + std::string(name) + "'");
}

std::vector<double> CsvTable::column(std::string_view name) const {
  const std::size_t index = column_index(name);
  std::vector<double> out;
  out.reserve(rows.size());
  for (const auto& row : rows) out.push_back(row[index]);
  return out;
}

CsvTable parse_csv(std::string_view text) {
  CsvTable table;
  std::size_t pos = 0;
  bool saw_header = false;
  while (pos <= text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line == "\r") {
      if (pos > text.size()) break;
      continue;
    }
    auto cells = split_line(line);
    if (!saw_header) {
      table.columns = std::move(cells);
      saw_header = true;
    } else {
      if (cells.size() != table.columns.size()) {
        throw std::invalid_argument("parse_csv: ragged row");
      }
      std::vector<double> row;
      row.reserve(cells.size());
      for (const auto& cell : cells) row.push_back(parse_double(cell));
      table.rows.push_back(std::move(row));
    }
    if (pos > text.size()) break;
  }
  return table;
}

}  // namespace coca::util
