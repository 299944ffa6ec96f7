// treesched: common type aliases and contract-checking macros.
//
// Every module in the library includes this header first.  It deliberately
// stays tiny: integer id types for the entities of the scheduling problem,
// a handful of numeric constants, and assertion macros that stay active in
// release builds for cheap checks (TS_REQUIRE) while the expensive ones
// compile away (TS_DCHECK).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

namespace treesched {

// Entity ids.  Signed 32-bit throughout: instances are bounded by m*r (or
// m*r*n for line placements) and all benchmark scales fit comfortably.
using VertexId = std::int32_t;
using EdgeId = std::int32_t;      // edge index, local to a network or global
using NetworkId = std::int32_t;
using DemandId = std::int32_t;
using ProcessorId = std::int32_t; // processor i owns demand i (paper, Sec. 2)
using InstanceId = std::int32_t;

using Profit = double;
using Height = double;
using Capacity = double;

inline constexpr VertexId kNoVertex = -1;
inline constexpr EdgeId kNoEdge = -1;
inline constexpr InstanceId kNoInstance = -1;

// Tolerance for floating-point feasibility and tightness checks.  Profits
// and heights are O(1)..O(1e6); 1e-7 absolute slack is far below any real
// raise amount while absorbing accumulated rounding.
inline constexpr double kEps = 1e-7;

[[noreturn]] inline void contract_failure(const char* kind, const char* expr,
                                          const char* file, int line) {
  std::fprintf(stderr, "treesched %s failed: %s at %s:%d\n", kind, expr, file,
               line);
  std::abort();
}

// TS_REQUIRE: precondition/invariant check that survives in release builds.
#define TS_REQUIRE(expr)                                                     \
  do {                                                                       \
    if (!(expr))                                                             \
      ::treesched::contract_failure("REQUIRE", #expr, __FILE__, __LINE__);   \
  } while (0)

// TS_DCHECK: expensive consistency check, debug builds only.
#ifdef NDEBUG
#define TS_DCHECK(expr) ((void)0)
#else
#define TS_DCHECK(expr)                                                      \
  do {                                                                       \
    if (!(expr))                                                             \
      ::treesched::contract_failure("DCHECK", #expr, __FILE__, __LINE__);    \
  } while (0)
#endif

// Throwing check for user-facing input validation (parsers, builders).
// A literal message binds to the const char* overload, which builds the
// exception's string only when the check fails, so a check on a hot
// builder path (one per lowered placement) allocates nothing; a composed
// message arrives as a std::string.
inline void check_input(bool ok, const char* message) {
  if (!ok) [[unlikely]]
    throw std::invalid_argument(std::string("treesched: ") + message);
}
inline void check_input(bool ok, const std::string& message) {
  if (!ok) [[unlikely]]
    throw std::invalid_argument("treesched: " + message);
}

}  // namespace treesched
