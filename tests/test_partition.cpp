#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "partition/arc_partition.hpp"
#include "partition/metrics.hpp"
#include "util/stats.hpp"

namespace dg = dinfomap::graph;
namespace dp = dinfomap::partition;
namespace gen = dinfomap::graph::gen;

namespace {
dg::Csr star_plus_path() {
  // Hub 0 with 8 spokes, plus a path 9-10-11-12.
  dg::EdgeList edges;
  for (dg::VertexId v = 1; v <= 8; ++v) edges.push_back({0, v});
  edges.push_back({9, 10});
  edges.push_back({10, 11});
  edges.push_back({11, 12});
  return dg::build_csr(edges);
}

dg::Csr scale_free(std::uint64_t seed = 42) {
  const auto g = gen::barabasi_albert(3000, 2, seed);
  return dg::build_csr(g.edges, g.num_vertices);
}
}  // namespace

TEST(OneD, AssignsArcsBySourceOwner) {
  const auto g = star_plus_path();
  const auto part = dp::make_oned(g, 3);
  EXPECT_TRUE(dp::validate_partition(part, g));
  for (int r = 0; r < 3; ++r)
    for (const auto& arc : part.rank_arcs[r])
      EXPECT_EQ(part.owner(arc.source), r);
}

TEST(OneD, HubConcentratesLoad) {
  const auto g = star_plus_path();
  const auto part = dp::make_oned(g, 13);  // one vertex per rank
  const auto loads = dp::arcs_per_rank(part);
  EXPECT_EQ(loads[0], 8u);  // the whole star adjacency sits on rank 0
}

TEST(Delegate, DefaultThresholdIsRankCount) {
  const auto g = scale_free();
  const auto part = dp::make_delegate(g, 8);
  EXPECT_EQ(part.degree_threshold, 8u);
  EXPECT_EQ(part.strategy, dp::Strategy::kDelegate);
}

TEST(Delegate, EveryArcAssignedExactlyOnce) {
  const auto g = scale_free();
  for (int p : {2, 3, 5, 8}) {
    const auto part = dp::make_delegate(g, p);
    EXPECT_TRUE(dp::validate_partition(part, g)) << "p=" << p;
  }
}

TEST(Delegate, HubsAreFlagged) {
  const auto g = star_plus_path();
  const auto part = dp::make_delegate(g, 3, 4);
  EXPECT_TRUE(part.delegate(0));  // degree 8 > 4
  for (dg::VertexId v = 1; v < 13; ++v) EXPECT_FALSE(part.delegate(v));
}

TEST(Delegate, LowDegreeAdjacencyStaysWithOwner) {
  const auto g = scale_free();
  const auto part = dp::make_delegate(g, 4);
  // Count per-vertex arcs across ranks for non-delegates: all must be at the
  // owner (validate_partition also checks this, but assert the distribution).
  std::vector<std::uint64_t> at_owner(g.num_vertices(), 0);
  for (int r = 0; r < 4; ++r)
    for (const auto& arc : part.rank_arcs[r])
      if (!part.delegate(arc.source)) {
        EXPECT_EQ(part.owner(arc.source), r);
        ++at_owner[arc.source];
      }
  for (dg::VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!part.delegate(v)) {
      EXPECT_EQ(at_owner[v], g.degree(v));
    }
  }
}

TEST(OneDBalanced, ContiguousAndBalanced) {
  const auto g = scale_free();
  const auto part = dp::make_oned_balanced(g, 8);
  EXPECT_TRUE(dp::validate_partition(part, g));
  // Ownership is a monotone step function of vertex id.
  for (dg::VertexId v = 1; v < g.num_vertices(); ++v)
    EXPECT_GE(part.owner(v), part.owner(v - 1));
  const auto s = dinfomap::util::summarize_counts(dp::arcs_per_rank(part));
  // BA puts early hubs together, so balance is bounded by the largest hub;
  // it must still beat round-robin 1D substantially.
  const auto rr = dinfomap::util::summarize_counts(
      dp::arcs_per_rank(dp::make_oned(g, 8)));
  EXPECT_LT(s.imbalance, rr.imbalance);
}

TEST(HashPartition, ValidAndSeedStable) {
  const auto g = scale_free();
  const auto a = dp::make_hash(g, 4, 7);
  const auto b = dp::make_hash(g, 4, 7);
  const auto c = dp::make_hash(g, 4, 8);
  EXPECT_TRUE(dp::validate_partition(a, g));
  EXPECT_EQ(a.owners, b.owners);
  EXPECT_NE(a.owners, c.owners);
}

TEST(Ownership, RoundRobinDetection) {
  const auto g = scale_free();
  EXPECT_TRUE(dp::make_oned(g, 4).round_robin_ownership());
  EXPECT_TRUE(dp::make_delegate(g, 4).round_robin_ownership());
  EXPECT_FALSE(dp::make_oned_balanced(g, 4).round_robin_ownership());
}

TEST(Delegate, BalancesLoadBetterThanOneD) {
  const auto g = scale_free();
  for (int p : {4, 8, 16}) {
    const auto oned = dinfomap::util::summarize_counts(
        dp::arcs_per_rank(dp::make_oned(g, p)));
    const auto del = dinfomap::util::summarize_counts(
        dp::arcs_per_rank(dp::make_delegate(g, p)));
    EXPECT_LT(del.imbalance, oned.imbalance) << "p=" << p;
    EXPECT_LT(del.imbalance, 1.3) << "p=" << p;  // near-even, as the paper claims
  }
}

TEST(Delegate, ReducesWorstCaseGhosts) {
  const auto g = scale_free();
  const int p = 8;
  const auto g_1d = dp::ghosts_per_rank(dp::make_oned(g, p));
  const auto g_dp = dp::ghosts_per_rank(dp::make_delegate(g, p));
  const auto s1 = dinfomap::util::summarize_counts(g_1d);
  const auto s2 = dinfomap::util::summarize_counts(g_dp);
  EXPECT_LT(s2.max, s1.max);
}

TEST(Delegate, SinglePartitionDegenerate) {
  const auto g = star_plus_path();
  const auto part = dp::make_delegate(g, 1);
  EXPECT_TRUE(dp::validate_partition(part, g));
  EXPECT_EQ(part.rank_arcs[0].size(), g.num_arcs());
}

TEST(Delegate, ExplicitThresholdHonored) {
  const auto g = scale_free();
  const auto part = dp::make_delegate(g, 4, 1000000);
  // Threshold too high for any hub: behaves like 1D (all arcs at source
  // owner) but still validates.
  EXPECT_TRUE(dp::validate_partition(part, g));
  for (dg::VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_FALSE(part.delegate(v));
}

TEST(Metrics, GhostDefinitionMatchesLocality) {
  // Path 0-1-2 on 3 ranks, 1D: rank 0 holds arcs of vertex 0 (→1), so 1 is a
  // ghost there.
  const auto g = dg::build_csr({{0, 1}, {1, 2}});
  const auto part = dp::make_oned(g, 3);
  const auto ghosts = dp::ghosts_per_rank(part);
  EXPECT_EQ(ghosts[0], 1u);  // sees 1
  EXPECT_EQ(ghosts[1], 2u);  // sees 0 and 2
  EXPECT_EQ(ghosts[2], 1u);  // sees 1
}

class PartitionSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, PartitionSweep, ::testing::Values(1, 2, 3, 4, 7, 16));

TEST_P(PartitionSweep, BothStrategiesValidateOnLfr) {
  const auto g = gen::lfr_lite({}, 99);
  const auto csr = dg::build_csr(g.edges, g.num_vertices);
  EXPECT_TRUE(dp::validate_partition(dp::make_oned(csr, GetParam()), csr));
  EXPECT_TRUE(dp::validate_partition(dp::make_delegate(csr, GetParam()), csr));
}

// --- validate_partition rejects every kind of damage ------------------------

namespace {

/// A delegate partition of the scale-free graph with at least one arc
/// whose source is low-degree on every rank.
dp::ArcPartition valid_partition(const dg::Csr& g) {
  auto part = dp::make_delegate(g, 4);
  EXPECT_TRUE(dp::validate_partition(part, g));
  return part;
}

/// Index of the first arc on `rank` whose source is not a delegate.
std::size_t first_low_degree_arc(const dp::ArcPartition& part, int rank) {
  const auto& arcs = part.rank_arcs[rank];
  for (std::size_t i = 0; i < arcs.size(); ++i)
    if (!part.delegate(arcs[i].source)) return i;
  ADD_FAILURE() << "rank " << rank << " holds no low-degree arc";
  return 0;
}

}  // namespace

TEST(ValidatePartition, RejectsMissingArc) {
  const auto g = scale_free();
  auto part = valid_partition(g);
  part.rank_arcs[1].pop_back();
  EXPECT_FALSE(dp::validate_partition(part, g));
}

TEST(ValidatePartition, RejectsDuplicatedArc) {
  const auto g = scale_free();
  auto part = valid_partition(g);
  // Keep the arc count: one arc appears twice, another not at all.
  auto& arcs = part.rank_arcs[2];
  ASSERT_GE(arcs.size(), 2u);
  arcs.back() = arcs.front();
  EXPECT_FALSE(dp::validate_partition(part, g));
  // Appended instead, the count itself no longer matches.
  auto appended = valid_partition(g);
  appended.rank_arcs[2].push_back(appended.rank_arcs[2].front());
  EXPECT_FALSE(dp::validate_partition(appended, g));
}

TEST(ValidatePartition, RejectsReweightedArc) {
  const auto g = scale_free();
  auto part = valid_partition(g);
  part.rank_arcs[0][first_low_degree_arc(part, 0)].weight *= 2.0;
  EXPECT_FALSE(dp::validate_partition(part, g));
}

TEST(ValidatePartition, RejectsLowDegreeArcOnWrongRank) {
  const auto g = scale_free();
  auto part = valid_partition(g);
  // Same multiset of arcs, but one low-degree source's arc moves away from
  // its owner.
  const std::size_t i = first_low_degree_arc(part, 3);
  part.rank_arcs[0].push_back(part.rank_arcs[3][i]);
  part.rank_arcs[3].erase(part.rank_arcs[3].begin() +
                          static_cast<std::ptrdiff_t>(i));
  EXPECT_FALSE(dp::validate_partition(part, g));
}

TEST(ValidatePartition, ComparesParallelArcsAsAMultiset) {
  // A hand-built CSR with two parallel 0-1 edges of different weights.
  const dg::Csr g({0, 2, 4},
                  {{1, 1.0}, {1, 2.0}, {0, 2.0}, {0, 1.0}},
                  {0.0, 0.0});
  auto part = dp::make_oned(g, 2);
  EXPECT_TRUE(dp::validate_partition(part, g));
  std::swap(part.rank_arcs[0][0], part.rank_arcs[0][1]);  // order is free
  EXPECT_TRUE(dp::validate_partition(part, g));
  part.rank_arcs[0][1].weight = 2.0;  // {2, 2} is not {1, 2}
  EXPECT_FALSE(dp::validate_partition(part, g));
}
