// ASCII table writer for benchmark output.  Every bench binary prints
// one or more of these tables; EXPERIMENTS.md records the rows.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace treesched {

// Column-aligned ASCII table with an optional title.  Cells are strings;
// numeric formatting is the caller's job (common/stats.hpp fmt()).
class Table {
 public:
  explicit Table(std::string title = {}) : title_(std::move(title)) {}

  // Set the header row.  Must be called before add_row.
  void set_header(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);

  // Render with column alignment and a rule under the header.
  void print(std::ostream& os) const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Convenience: a stopwatch for wall-clock sections of benches.
class Stopwatch {
 public:
  Stopwatch();
  // Seconds since construction or last reset.
  double elapsed_s() const;
  void reset();

 private:
  long long start_ns_;
};

}  // namespace treesched
