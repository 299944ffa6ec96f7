#include "model/line_problem.hpp"

#include <gtest/gtest.h>

#include "model/solution.hpp"

namespace treesched {
namespace {

TEST(LineProblem, NumStartsCountsPlacements) {
  LineProblem line(10, 1);
  const DemandId d0 = line.add_demand(2, 7, 3, 1.0);  // starts 2,3,4,5
  const DemandId d1 = line.add_demand(0, 0, 1, 1.0);  // start 0 only
  EXPECT_EQ(line.num_starts(d0), 4);
  EXPECT_EQ(line.num_starts(d1), 1);
}

TEST(LineProblem, LoweringExpandsAllPlacements) {
  LineProblem line(10, 2);
  line.add_demand(2, 7, 3, 5.0);   // 4 starts x 2 resources
  line.add_demand(0, 9, 10, 2.0);  // 1 start x 2 resources
  const DemandId d2 = line.add_demand(1, 4, 2, 3.0);  // 3 starts
  line.set_access(d2, {1});                           // x 1 resource
  const Problem p = line.lower();
  EXPECT_EQ(p.num_vertices(), 11);
  EXPECT_EQ(p.num_networks(), 2);
  EXPECT_EQ(p.num_instances(), 4 * 2 + 1 * 2 + 3 * 1);
}

TEST(LineProblem, PlacementsCoverWindowSlots) {
  LineProblem line(10, 1);
  line.add_demand(2, 7, 3, 5.0);
  const Problem p = line.lower();
  for (InstanceId i = 0; i < p.num_instances(); ++i) {
    // Contiguous slots, length = proc_time, inside [release, deadline].
    const auto path = p.path(i);
    EXPECT_EQ(path.size(), 3u);
    EXPECT_EQ(path.back() - path.front(), 2);
    EXPECT_GE(path.front(), 2);
    EXPECT_LE(path.back(), 7);
  }
}

TEST(LineProblem, OverlappingPlacementsOfOneDemandConflict) {
  LineProblem line(6, 1);
  line.add_demand(0, 5, 4, 1.0);  // starts 0,1,2: placements overlap
  const Problem p = line.lower();
  ASSERT_EQ(p.num_instances(), 3);
  EXPECT_TRUE(p.overlap(0, 1));
  EXPECT_TRUE(p.conflicting(0, 1));
  EXPECT_TRUE(p.overlap(0, 2));  // slots 0-3 and 2-5 share slots 2,3
  // Only one placement of a demand may be selected.
  Solution s{{0, 1}};
  EXPECT_FALSE(check_feasibility(p, s).feasible);
}

TEST(LineProblem, WindowValidation) {
  LineProblem line(10, 1);
  EXPECT_THROW(line.add_demand(-1, 5, 2, 1.0), std::invalid_argument);
  EXPECT_THROW(line.add_demand(0, 10, 2, 1.0), std::invalid_argument);
  EXPECT_THROW(line.add_demand(5, 3, 1, 1.0), std::invalid_argument);
  EXPECT_THROW(line.add_demand(0, 5, 7, 1.0), std::invalid_argument);
  EXPECT_THROW(line.add_demand(0, 5, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(line.add_demand(0, 5, 2, 0.0), std::invalid_argument);
  EXPECT_THROW(line.add_demand(0, 5, 2, 1.0, 2.0), std::invalid_argument);
}

TEST(LineProblem, AccessValidation) {
  LineProblem line(10, 2);
  const DemandId d = line.add_demand(0, 5, 2, 1.0);
  EXPECT_THROW(line.set_access(d, {}), std::invalid_argument);
  EXPECT_THROW(line.set_access(d, {5}), std::invalid_argument);
  line.set_access(d, {1, 1, 0});  // dedup + sort
  EXPECT_EQ(line.access(d), (std::vector<NetworkId>{0, 1}));
}

TEST(LineProblem, CapsRejectOversizeWorkBeforeBuilding) {
  // Vertices: resources x (slots + 1), checked on construction.
  EXPECT_NO_THROW(LineProblem(static_cast<int>(kMaxLineVertices) - 1, 1));
  EXPECT_THROW(LineProblem(static_cast<int>(kMaxLineVertices), 1),
               std::invalid_argument);
  EXPECT_THROW(LineProblem(1, static_cast<int>(kMaxLineVertices / 2) + 1),
               std::invalid_argument);

  // Placements: five demands of 2 x (2^21 - 1) one-slot placements each
  // cover under 2^25 path entries but exceed the 2^24 instance cap.  The
  // path-entry cap is exercised by
  // Fuzz.TextInputRejectsTruncationAndOversizeCounts.
  const int slots = static_cast<int>(kMaxLineVertices / 2) - 1;
  LineProblem many(slots, 2);
  for (int k = 0; k < 5; ++k) many.add_demand(0, slots - 1, 1, 1.0);
  EXPECT_THROW(many.lower(), std::invalid_argument);
}

TEST(LineProblem, FixedPlacementHasOneInstancePerResource) {
  LineProblem line(8, 3);
  line.add_demand(2, 4, 3, 1.0);  // window == proc_time: one start
  const Problem p = line.lower();
  EXPECT_EQ(p.num_instances(), 3);
  for (const DemandInstance& inst : p.instances()) {
    EXPECT_EQ(p.path(inst.id).front() - p.global_edge(inst.network, 0), 2);
  }
}

}  // namespace
}  // namespace treesched
