#include "common/table.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>

#include "common/prelude.hpp"

namespace treesched {

void Table::set_header(std::vector<std::string> header) {
  TS_REQUIRE(rows_.empty());
  header_ = std::move(header);
}

void Table::add_row(std::vector<std::string> row) {
  TS_REQUIRE(header_.empty() || row.size() == header_.size());
  rows_.push_back(std::move(row));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size(), 0);
  auto widen = [&](const std::vector<std::string>& row) {
    if (width.size() < row.size()) width.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i)
      width[i] = std::max(width[i], row[i].size());
  };
  widen(header_);
  for (const auto& r : rows_) widen(r);

  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      os << (i ? "  " : "");
      os << row[i];
      for (std::size_t p = row[i].size(); p < width[i]; ++p) os << ' ';
    }
    os << '\n';
  };

  if (!title_.empty()) os << "== " << title_ << " ==\n";
  if (!header_.empty()) {
    emit(header_);
    std::size_t total = 0;
    for (std::size_t i = 0; i < width.size(); ++i)
      total += width[i] + (i ? 2 : 0);
    for (std::size_t i = 0; i < total; ++i) os << '-';
    os << '\n';
  }
  for (const auto& r : rows_) emit(r);
}

Stopwatch::Stopwatch() { reset(); }

void Stopwatch::reset() {
  start_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count();
}

double Stopwatch::elapsed_s() const {
  const long long now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now().time_since_epoch())
                            .count();
  return static_cast<double>(now - start_ns_) * 1e-9;
}

}  // namespace treesched
