#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace h3dfact::util {

void Table::set_header(std::vector<std::string> header) {
  if (!rows_.empty()) throw std::logic_error("set_header after rows added");
  header_ = std::move(header);
}

void Table::add_row(std::vector<std::string> row) {
  if (!header_.empty() && row.size() != header_.size()) {
    throw std::invalid_argument("row width does not match header");
  }
  rows_.push_back(std::move(row));
}

void Table::print(std::ostream& os) const {
  // Compute column widths over header + rows.
  std::size_t ncol = header_.size();
  for (const auto& r : rows_) ncol = std::max(ncol, r.size());
  std::vector<std::size_t> width(ncol, 0);
  auto widen = [&](const std::vector<std::string>& r) {
    for (std::size_t c = 0; c < r.size(); ++c) width[c] = std::max(width[c], r[c].size());
  };
  widen(header_);
  for (const auto& r : rows_) widen(r);

  auto rule = [&](char fill) {
    os << '+';
    for (std::size_t c = 0; c < ncol; ++c) {
      os << std::string(width[c] + 2, fill) << '+';
    }
    os << '\n';
  };
  auto emit = [&](const std::vector<std::string>& r) {
    os << '|';
    for (std::size_t c = 0; c < ncol; ++c) {
      const std::string& cell = c < r.size() ? r[c] : std::string{};
      os << ' ' << cell << std::string(width[c] - cell.size() + 1, ' ') << '|';
    }
    os << '\n';
  };

  os << "== " << title_ << " ==\n";
  rule('-');
  if (!header_.empty()) {
    emit(header_);
    rule('=');
  }
  for (const auto& r : rows_) emit(r);
  rule('-');
  for (const auto& n : notes_) os << "  * " << n << '\n';
  os.flush();
}

std::string Table::fmt(double v, int precision) {
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(precision) << v;
  return ss.str();
}

std::string Table::fmt_int(long long v) { return std::to_string(v); }

std::string Table::fmt_pct(double fraction, int precision) {
  return fmt(fraction * 100.0, precision) + "%";
}

}  // namespace h3dfact::util
