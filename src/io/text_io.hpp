// Plain-text (de)serialization of problems, and the solution writer
// behind `treesched_cli solve --out`.  The formats are line-oriented and
// versioned.  Tree problems round-trip through the automatic demand x
// access instance expansion; line problems serialize the window model
// and are re-lowered on load, so instance ids remain stable in both
// cases.
#pragma once

#include <iosfwd>
#include <string>

#include "model/line_problem.hpp"
#include "model/problem.hpp"
#include "model/solution.hpp"

namespace treesched {

void write_problem(std::ostream& os, const Problem& problem);
Problem read_problem(std::istream& is);

void write_line_problem(std::ostream& os, const LineProblem& line);
LineProblem read_line_problem(std::istream& is);

void write_solution(std::ostream& os, const Solution& solution);

// File convenience wrappers (throw std::runtime_error on IO failure).
void save_problem(const std::string& path, const Problem& problem);
Problem load_problem(const std::string& path);
void save_solution(const std::string& path, const Solution& solution);

}  // namespace treesched
