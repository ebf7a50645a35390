#pragma once
// Minimal CSV reading/writing: used to export figure series from the bench
// binaries and to let users feed real traces into the workload/energy layers.

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace coca::util {

/// Stream-backed CSV writer.  Does not own the stream.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(&out) {}

  /// Write a header row from column names.
  void header(const std::vector<std::string>& columns);
  /// Write a data row of doubles (formatted with up to 10 significant digits).
  void row(const std::vector<double>& values);
  /// Write a row with a leading string label followed by doubles.
  void row(std::string_view label, const std::vector<double>& values);

 private:
  std::ostream* out_;
};

/// One parsed CSV table: column names plus row-major numeric cells.
struct CsvTable {
  std::vector<std::string> columns;
  std::vector<std::vector<double>> rows;

  /// Index of a named column; throws std::out_of_range if absent.
  std::size_t column_index(std::string_view name) const;
  /// Extract a whole column by name.
  std::vector<double> column(std::string_view name) const;
};

/// Parse numeric CSV text with a header row.  Cells that fail to parse as
/// double become NaN.  Throws std::invalid_argument on ragged rows.
CsvTable parse_csv(std::string_view text);

}  // namespace coca::util
