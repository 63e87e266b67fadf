#pragma once
// Aligned ASCII table printer used by every bench harness to emit the
// rows/series the paper's tables and figures report.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace h3dfact::util {

/// Column-aligned text table with a title and optional footnotes.
class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  /// Set the header row. Must be called before rows are added.
  void set_header(std::vector<std::string> header);

  /// Append a data row; must match header width if header is set.
  void add_row(std::vector<std::string> row);

  /// Append a footnote printed under the table.
  void add_note(std::string note) { notes_.push_back(std::move(note)); }

  /// Render to a stream with box-drawing separators.
  void print(std::ostream& os) const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

  /// Format helpers for numeric cells.
  static std::string fmt(double v, int precision = 2);
  static std::string fmt_int(long long v);
  static std::string fmt_pct(double fraction, int precision = 1);

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::string> notes_;
};

}  // namespace h3dfact::util
