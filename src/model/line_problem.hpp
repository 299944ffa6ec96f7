// LineProblem: the line-networks-with-windows formulation (paper, Sections
// 1 and 7).  The timeline is divided into `num_slots` discrete timeslots
// 0..num_slots-1; each of the r resources offers the whole timeline; a
// demand specifies a window [release, deadline], a processing time rho, a
// profit and a height, and may run on any accessible resource, occupying
// rho *contiguous* slots inside its window.
//
// lower() reduces this to the tree formulation (paper, Section 7: "the
// time-line can be viewed as a tree-network with n+1 vertices"): each
// resource becomes a path network whose local edge i *is* timeslot i, and
// each feasible (resource, start) placement becomes an explicit demand
// instance.
//
// A line problem read from a file is untrusted, and a header in range can
// still declare far more work than memory holds.  So three documented caps
// bound what lower() may build, each checked with a check_input
// diagnostic before anything of that size is allocated:
//
//  - kMaxLineVertices: resources x (slots + 1), the vertices of the lowered
//    networks (checked by the constructor);
//  - kMaxLineInstances: the placements, i.e. demand instances;
//  - kMaxLinePathEntries: the summed path lengths of the placements, i.e.
//    the (instance, edge) pairs that every engine LHS walk and
//    feasibility check steps through.  lower() itself does not walk
//    them: the stores hold runs (model/id_runs.hpp), at most two entries
//    per placement and one or two per run of consecutive ids in a bucket,
//    and finalize() writes a placement's path as one run and indexes it
//    by the slots it gains and drops against the previous placement.
//
// They also keep every vertex, edge and instance id inside int32.  All
// three sit far above every shape the tests and benches build; the largest,
// perfbench's batch-line, lowers to 4,098 vertices, 275,958 instances and
// 47.7M path ids, stored as 0.55M path entries and 1.1M bucket entries.
#pragma once

#include <cstdint>
#include <vector>

#include "common/prelude.hpp"
#include "model/problem.hpp"

namespace treesched {

inline constexpr std::int64_t kMaxLineVertices = std::int64_t{1} << 22;
inline constexpr std::int64_t kMaxLineInstances = std::int64_t{1} << 24;
inline constexpr std::int64_t kMaxLinePathEntries = std::int64_t{1} << 28;

struct LineDemand {
  DemandId id = -1;
  int release = 0;    // first admissible slot
  int deadline = 0;   // last admissible slot (inclusive)
  int proc_time = 1;  // number of contiguous slots required
  Profit profit = 0.0;
  Height height = 1.0;
};

class LineProblem {
 public:
  LineProblem(int num_slots, int num_resources);

  // Adds a demand; access defaults to all resources.
  DemandId add_demand(int release, int deadline, int proc_time, Profit profit,
                      Height height = 1.0);
  void set_access(DemandId d, std::vector<NetworkId> resources);

  int num_slots() const { return num_slots_; }
  int num_resources() const { return num_resources_; }
  int num_demands() const { return static_cast<int>(demands_.size()); }
  const LineDemand& demand(DemandId d) const;
  const std::vector<NetworkId>& access(DemandId d) const;

  // Number of admissible start slots of a demand within its window.
  int num_starts(DemandId d) const;

  // Builds the equivalent tree Problem.  Every feasible placement of every
  // demand becomes one instance whose path covers slots
  // [start, start+rho-1] of the chosen resource.  The result is finalized.
  // Throws std::invalid_argument, before building anything, when the
  // placements exceed kMaxLineInstances or kMaxLinePathEntries.
  Problem lower() const;

 private:
  int num_slots_;
  int num_resources_;
  std::vector<LineDemand> demands_;
  std::vector<std::vector<NetworkId>> access_;
};

}  // namespace treesched
