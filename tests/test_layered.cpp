// Layered decompositions (Lemma 4.2/4.3 and the Section 7 line plan):
// interference property, critical-set sizes and group structure.
#include "decomp/layered.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "seq/sequential.hpp"
#include "test_util.hpp"
#include "workload/scenario.hpp"

namespace treesched {
namespace {

using testutil::small_line_problem;
using testutil::small_tree_problem;

void check_plan_structure(const Problem& problem, const LayeredPlan& plan) {
  ASSERT_EQ(plan.group.size(),
            static_cast<std::size_t>(problem.num_instances()));
  ASSERT_EQ(plan.critical_offset.size(),
            static_cast<std::size_t>(problem.num_instances()) + 1);
  std::size_t members = 0;
  for (const auto& g : plan.members) members += g.size();
  EXPECT_EQ(members, static_cast<std::size_t>(problem.num_instances()));
  for (InstanceId i = 0; i < problem.num_instances(); ++i) {
    EXPECT_GE(plan.group[static_cast<std::size_t>(i)], 0);
    EXPECT_LT(plan.group[static_cast<std::size_t>(i)], plan.num_groups);
    const auto crit = plan.critical(i);
    EXPECT_FALSE(crit.empty());
    EXPECT_LE(static_cast<int>(crit.size()), plan.delta);
    // Critical edges lie on the instance's path (by definition of pi).
    const auto path = problem.path(i);
    for (EdgeId e : crit)
      EXPECT_TRUE(std::binary_search(path.begin(), path.end(), e));
  }
}

class TreePlanProperty
    : public ::testing::TestWithParam<std::tuple<DecompKind, int>> {};

TEST_P(TreePlanProperty, InterferenceHoldsAndDeltaBounded) {
  const auto [kind, seed] = GetParam();
  const Problem problem =
      small_tree_problem(static_cast<std::uint64_t>(seed) * 31 + 5,
                         /*n=*/40, /*r=*/2, /*m=*/25);
  const LayeredPlan plan = build_tree_layered_plan(problem, kind);
  check_plan_structure(problem, plan);
  // Lemma 4.2: Delta <= 2 (theta + 1).
  const int theta = kind == DecompKind::kRootFixing ? 1
                    : kind == DecompKind::kIdeal    ? 2
                                                    : 12;  // log n bound
  EXPECT_LE(plan.delta, 2 * (theta + 1));
  const auto violation = interference_violation(problem, plan);
  EXPECT_FALSE(violation.has_value()) << *violation;
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, TreePlanProperty,
    ::testing::Combine(::testing::Values(DecompKind::kRootFixing,
                                         DecompKind::kBalancing,
                                         DecompKind::kIdeal),
                       ::testing::Values(1, 2, 3, 4, 5)),
    [](const auto& info) {
      std::string name = to_string(std::get<0>(info.param));
      for (char& c : name)
        if (c == '-') c = '_';
      return name + "_s" + std::to_string(std::get<1>(info.param));
    });

TEST(TreePlan, IdealPlanHasDeltaAtMostSix) {
  // Lemma 4.3: the ideal decomposition yields Delta = 6, length O(log n).
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    const Problem problem = small_tree_problem(seed, 100, 3, 60);
    const LayeredPlan plan =
        build_tree_layered_plan(problem, DecompKind::kIdeal);
    EXPECT_LE(plan.delta, 6);
    EXPECT_LE(plan.num_groups, 2 * 7 + 1);  // 2 ceil(log 100) + 1
  }
}

TEST(TreePlan, MuWingsOnlyHasDeltaTwo) {
  const Problem problem = small_tree_problem(7, 40, 2, 25);
  const LayeredPlan plan = build_tree_layered_plan(
      problem, DecompKind::kRootFixing, /*mu_wings_only=*/true);
  check_plan_structure(problem, plan);
  EXPECT_LE(plan.delta, 2);
  // Observation A.1: the property still holds with mu wings only.
  const auto violation = interference_violation(problem, plan);
  EXPECT_FALSE(violation.has_value()) << *violation;
}

TEST(LinePlan, LengthClassesAndThreeCriticalSlots) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const Problem problem = small_line_problem(seed, 40, 2, 14,
                                               HeightLaw::kUnit, 2.0);
    const LayeredPlan plan = build_line_layered_plan(problem);
    check_plan_structure(problem, plan);
    EXPECT_LE(plan.delta, 3);  // {start, mid, end}
    const auto violation = interference_violation(problem, plan);
    EXPECT_FALSE(violation.has_value()) << *violation;
    // Group = floor(log2(len / lmin)).
    for (InstanceId i = 0; i < problem.num_instances(); ++i) {
      const int len = static_cast<int>(problem.path(i).size());
      const int g = plan.group[static_cast<std::size_t>(i)];
      EXPECT_GE(len, problem.min_path_length() << g);
      EXPECT_LT(len, problem.min_path_length() << (g + 1));
    }
  }
}

TEST(LinePlan, SingleSlotInstances) {
  LineProblem line(6, 1);
  line.add_demand(0, 5, 1, 1.0);
  line.add_demand(2, 3, 1, 2.0);
  const Problem problem = line.lower();
  const LayeredPlan plan = build_line_layered_plan(problem);
  // Length-1 instances: start == mid == end, so |pi| == 1.
  for (InstanceId i = 0; i < problem.num_instances(); ++i)
    EXPECT_EQ(plan.critical(i).size(), 1u);
  EXPECT_FALSE(interference_violation(problem, plan).has_value());
}

TEST(EndtimePlan, DeltaOneOrderingIsInterferenceFree) {
  for (std::uint64_t seed : {5u, 6u, 7u}) {
    const Problem problem = small_line_problem(seed, 30, 2, 12,
                                               HeightLaw::kUnit, 1.8);
    const LayeredPlan plan = build_endtime_plan(problem);
    check_plan_structure(problem, plan);
    EXPECT_EQ(plan.delta, 1);
    const auto violation = interference_violation(problem, plan);
    EXPECT_FALSE(violation.has_value()) << *violation;
  }
}

TEST(InterferenceChecker, CatchesBrokenPlan) {
  // Two overlapping same-group instances whose critical edges miss each
  // other: checker must flag it.
  LineProblem line(8, 1);
  line.add_demand(0, 3, 4, 1.0);  // slots 0-3
  line.add_demand(2, 6, 5, 1.0);  // slots 2-6
  const Problem problem = line.lower();
  LayeredPlan plan;
  plan.num_groups = 1;
  plan.delta = 1;
  plan.group = {0, 0};
  // Slot 0 is not on path 2-6, and slot 6 is not on 0-3.
  plan.critical_offset = {0, 1, 2};
  plan.critical_edges = {0, 6};
  plan.members = {{0, 1}};
  EXPECT_TRUE(interference_violation(problem, plan).has_value());
}

}  // namespace
}  // namespace treesched
