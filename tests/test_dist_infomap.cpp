// End-to-end and invariant tests of the distributed Infomap (Alg. 2 + 3).
#include <gtest/gtest.h>

#include <cmath>

#include "core/dist_infomap.hpp"
#include "core/flowgraph.hpp"
#include "core/seq_infomap.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "quality/metrics.hpp"
#include "util/check.hpp"

namespace dc = dinfomap::core;
namespace dg = dinfomap::graph;
namespace gen = dinfomap::graph::gen;

namespace {
dc::DistInfomapConfig config_for(int p) {
  dc::DistInfomapConfig cfg;
  cfg.num_ranks = p;
  return cfg;
}
}  // namespace

TEST(DistInfomap, SingleRankMatchesProblemShape) {
  const auto gg = gen::ring_of_cliques(6, 4, 0);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto result = dc::distributed_infomap(g, config_for(1));
  EXPECT_EQ(result.assignment.size(), g.num_vertices());
  EXPECT_EQ(result.num_modules(), 6u);
  EXPECT_DOUBLE_EQ(
      dinfomap::quality::nmi(result.assignment, *gg.ground_truth), 1.0);
}

TEST(DistInfomap, RecoversRingOfCliquesAcrossRanks) {
  const auto gg = gen::ring_of_cliques(10, 5, 0);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto seq = dc::sequential_infomap(g);
  for (int p : {2, 3, 4}) {
    const auto result = dc::distributed_infomap(g, config_for(p));
    // The paper's own distributed-vs-sequential agreement is NMI ≈ 0.8
    // (Table 2); on this crisp testbed we hold it to ≥ 0.9 plus a tight
    // codelength bound.
    EXPECT_GT(dinfomap::quality::nmi(result.assignment, *gg.ground_truth), 0.9)
        << "p=" << p;
    EXPECT_LT(result.codelength, seq.codelength * 1.10) << "p=" << p;
  }
}

TEST(DistInfomap, SingletonCodelengthMatchesSequential) {
  // The exact-aggregation swap must reproduce the sequential singleton L
  // bit-for-bit (modulo reduction order) at startup.
  const auto gg = gen::lfr_lite({}, 3);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto seq = dc::sequential_infomap(g);
  for (int p : {1, 2, 4}) {
    const auto dist = dc::distributed_infomap(g, config_for(p));
    EXPECT_NEAR(dist.singleton_codelength, seq.singleton_codelength, 1e-9)
        << "p=" << p;
  }
}

TEST(DistInfomap, ReportedCodelengthMatchesGatheredAssignment) {
  // The distributed L (computed by allreduce over module homes) must equal
  // an independent sequential scoring of the gathered assignment.
  const auto gg = gen::sbm(240, 6, 0.25, 0.01, 7);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto fg = dc::make_flow_graph(g);
  for (int p : {1, 2, 3, 4}) {
    const auto dist = dc::distributed_infomap(g, config_for(p));
    EXPECT_NEAR(dist.codelength,
                dc::codelength_of_partition(fg, dist.assignment), 1e-9)
        << "p=" << p;
  }
}

TEST(DistInfomap, QualityCloseToSequential) {
  // Fig. 4's claim: distributed MDL converges close to sequential.
  const auto gg = gen::lfr_lite({}, 19);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto seq = dc::sequential_infomap(g);
  for (int p : {2, 4}) {
    const auto dist = dc::distributed_infomap(g, config_for(p));
    EXPECT_LT(dist.codelength, seq.singleton_codelength);
    // Within 5% of the sequential optimum.
    EXPECT_LT(dist.codelength, seq.codelength * 1.05) << "p=" << p;
  }
}

TEST(DistInfomap, DeterministicForFixedConfig) {
  const auto gg = gen::lfr_lite({}, 23);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto a = dc::distributed_infomap(g, config_for(3));
  const auto b = dc::distributed_infomap(g, config_for(3));
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.codelength, b.codelength);
}

TEST(DistInfomap, TraceMonotoneAndStagesRecorded) {
  const auto gg = gen::lfr_lite({}, 29);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto result = dc::distributed_infomap(g, config_for(4));
  ASSERT_GE(result.trace.size(), 1u);
  // Near-monotone: one synchronous overshoot per level is tolerated (the
  // level stops on regression); see test_dist_property for the sweep.
  for (const auto& row : result.trace)
    EXPECT_LE(row.codelength_after, row.codelength_before * 1.05 + 1e-9);
  EXPECT_GT(result.stage1_rounds, 0);
  EXPECT_GE(result.stage2_levels, 0);
  // Strong first merge, as in Fig. 5 (merging rate ≈ 50%+ after stage 1).
  EXPECT_LT(result.trace.front().num_modules,
            result.trace.front().level_vertices);
}

TEST(DistInfomap, PhaseWorkCountersPopulated) {
  const auto gg = gen::lfr_lite({}, 31);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const int p = 4;
  const auto result = dc::distributed_infomap(g, config_for(p));
  for (int ph = 0; ph < dc::kNumPhases; ++ph)
    ASSERT_EQ(result.work[ph].size(), static_cast<std::size_t>(p));
  std::uint64_t find_arcs = 0, swap_bytes = 0, bcast_msgs = 0;
  for (int r = 0; r < p; ++r) {
    find_arcs += result.work[0][r].arcs_scanned;
    bcast_msgs += result.work[1][r].messages;
    swap_bytes += result.work[2][r].bytes;
  }
  EXPECT_GT(find_arcs, 0u);
  EXPECT_GT(swap_bytes, 0u);
  EXPECT_GT(bcast_msgs, 0u);  // delegate consensus communicates
}

TEST(DistInfomap, HandlesHubGraph) {
  // BA graphs have strong hubs → exercises delegates hard.
  const auto gg = gen::barabasi_albert(1200, 2, 3);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto fg = dc::make_flow_graph(g);
  const auto seq = dc::sequential_infomap(g);
  const auto dist = dc::distributed_infomap(g, config_for(4));
  EXPECT_NEAR(dist.codelength,
              dc::codelength_of_partition(fg, dist.assignment), 1e-9);
  EXPECT_LT(dist.codelength, seq.singleton_codelength);
  EXPECT_LT(dist.codelength, seq.codelength * 1.10);
}

TEST(DistInfomap, IsolatedVerticesSurvive) {
  const auto g = dg::build_csr({{0, 1}, {1, 2}, {0, 2}}, 7);  // 3..6 isolated
  const auto result = dc::distributed_infomap(g, config_for(2));
  EXPECT_EQ(result.assignment.size(), 7u);
  // Isolated vertices keep distinct singleton modules.
  for (dg::VertexId v = 3; v < 7; ++v)
    for (dg::VertexId w = v + 1; w < 7; ++w)
      EXPECT_NE(result.assignment[v], result.assignment[w]);
}

TEST(DistInfomap, ExplicitPartitionOverloadAgrees) {
  const auto gg = gen::ring_of_cliques(6, 5, 0);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto cfg = config_for(3);
  const auto part = dinfomap::partition::make_delegate(
      g, 3, dc::resolve_degree_threshold(g, cfg));
  const auto a = dc::distributed_infomap(g, part, cfg);
  const auto b = dc::distributed_infomap(g, cfg);
  EXPECT_EQ(a.assignment, b.assignment);
}

TEST(DistInfomap, RejectsRankMismatch) {
  const auto g = dg::build_csr({{0, 1}, {1, 2}});
  const auto part = dinfomap::partition::make_delegate(g, 2);
  auto cfg = config_for(3);
  EXPECT_THROW(dc::distributed_infomap(g, part, cfg),
               dinfomap::ContractViolation);
}

TEST(DistInfomap, MinLabelBreaksTwoVertexBoundaryOscillation) {
  // The §3.4 anti-bouncing scenario in miniature: two cliques joined by a
  // single bridge, partitioned across two ranks (ownership is v mod p, so
  // the bridge endpoints land on different ranks). In a synchronous round
  // each bridge endpoint may greedily move into the other's module and swap
  // forever; the minimum-label strategy (dist_infomap.cpp, boundary-move
  // gate) must let exactly one side through so the rounds converge.
  dg::EdgeList edges;
  const auto clique = [&](dg::VertexId base) {
    for (dg::VertexId i = 0; i < 6; ++i)
      for (dg::VertexId j = i + 1; j < 6; ++j)
        edges.push_back({base + i, base + j, 1.0});
  };
  clique(0);
  clique(6);
  edges.push_back({5, 6, 1.0});  // the bridge: 5 is odd-rank, 6 even-rank at p=2
  const auto g = dg::build_csr(edges, 12);

  auto cfg = config_for(2);
  cfg.min_label = true;
  const auto with = dc::distributed_infomap(g, cfg);
  EXPECT_LT(with.stage1_rounds, cfg.max_rounds)
      << "min_label on: rounds must converge, not run to the cap";
  EXPECT_EQ(with.num_modules(), 2u);
  EXPECT_LT(with.codelength, with.singleton_codelength);

  // With the strategy off the protocol must still terminate (the round cap
  // and round_theta bound any residual bouncing) and produce a valid result.
  cfg.min_label = false;
  const auto without = dc::distributed_infomap(g, cfg);
  EXPECT_LE(without.stage1_rounds, cfg.max_rounds);
  EXPECT_EQ(without.assignment.size(), g.num_vertices());
  EXPECT_LT(without.codelength, without.singleton_codelength);
}

TEST(DistInfomap, MinLabelAblationStillConverges) {
  const auto gg = gen::lfr_lite({}, 37);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  auto cfg = config_for(4);
  cfg.min_label = false;
  const auto result = dc::distributed_infomap(g, cfg);
  EXPECT_LT(result.codelength, result.singleton_codelength);
}

TEST(DistInfomap, NaiveSwapAblationStillTerminatesConsistently) {
  // The A3 ablation (naive boundary-only swap) lets per-rank module tables
  // drift; the quantitative quality comparison is reported by
  // bench_ablation_swap. Here assert the invariants that must hold in both
  // modes: termination, a valid gathered assignment, and a reported L that
  // matches the exact rescoring (reporting always uses the aggregation).
  const auto gg = gen::lfr_lite({}, 41);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  auto full_cfg = config_for(4);
  auto naive_cfg = full_cfg;
  naive_cfg.whole_module_swap = false;
  const auto fg = dc::make_flow_graph(g);
  for (const auto& cfg : {full_cfg, naive_cfg}) {
    const auto result = dc::distributed_infomap(g, cfg);
    EXPECT_EQ(result.assignment.size(), g.num_vertices());
    EXPECT_NEAR(result.codelength,
                dc::codelength_of_partition(fg, result.assignment), 1e-9);
    EXPECT_LT(result.codelength, result.singleton_codelength);
  }
}

TEST(DistInfomap, ExactHubMovesKeepsInvariants) {
  // The exact-hub-moves extension must keep every consistency property; on
  // hub-heavy graphs it should match or beat the paper's local-proposal
  // consensus.
  const auto gg = gen::barabasi_albert(1200, 2, 3);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto fg = dc::make_flow_graph(g);
  auto base_cfg = config_for(4);
  auto exact_cfg = base_cfg;
  exact_cfg.exact_hub_moves = true;
  const auto base = dc::distributed_infomap(g, base_cfg);
  const auto exact = dc::distributed_infomap(g, exact_cfg);
  EXPECT_NEAR(exact.codelength,
              dc::codelength_of_partition(fg, exact.assignment), 1e-9);
  EXPECT_LT(exact.codelength, exact.singleton_codelength);
  // Not a strict guarantee per instance, but exactness should not be much
  // worse than the heuristic.
  EXPECT_LT(exact.codelength, base.codelength * 1.05);
}

TEST(DistInfomap, ExactHubMovesDeterministic) {
  const auto gg = gen::barabasi_albert(800, 2, 9);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  auto cfg = config_for(3);
  cfg.exact_hub_moves = true;
  const auto a = dc::distributed_infomap(g, cfg);
  const auto b = dc::distributed_infomap(g, cfg);
  EXPECT_EQ(a.assignment, b.assignment);
}

class DistRankSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, DistRankSweep, ::testing::Values(1, 2, 3, 5, 8));

TEST_P(DistRankSweep, CodelengthConsistencyOnSbm) {
  const auto gg = gen::sbm(200, 4, 0.25, 0.01, 43);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto fg = dc::make_flow_graph(g);
  const auto result = dc::distributed_infomap(g, config_for(GetParam()));
  EXPECT_NEAR(result.codelength,
              dc::codelength_of_partition(fg, result.assignment), 1e-9);
  EXPECT_LT(result.codelength, result.singleton_codelength);
}

// --- stage 2 on rank 0 (DESIGN.md §17) --------------------------------------

class Stage2Finish : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, Stage2Finish, ::testing::Values(1, 2, 4, 8));

TEST_P(Stage2Finish, ReportedLengthIsExactAndNoWorseThanStage1) {
  // The reported L must be the level-0 codelength of the gathered partition;
  // the finish only ever replaces the stage-1 partition with a better one,
  // and the refinement never ends above the finish. The trace is stage 1,
  // the finish's levels, then the refinement, and it ends at the reported L.
  const auto gg = gen::lfr_lite({}, 37);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto fg = dc::make_flow_graph(g);
  for (const bool use_async : {false, true}) {
    auto cfg = config_for(GetParam());
    cfg.async = use_async;
    const auto result = dc::distributed_infomap(g, cfg);
    const double exact = dc::codelength_of_partition(fg, result.assignment);
    EXPECT_LE(std::abs(result.codelength - exact), 1e-12 * exact)
        << "async=" << use_async << " L=" << result.codelength
        << " exact=" << exact;
    ASSERT_FALSE(result.trace.empty());
    EXPECT_LE(result.codelength, result.trace.front().codelength_after)
        << "async=" << use_async;
    EXPECT_GT(result.stage2_levels, 0) << "async=" << use_async;
    ASSERT_EQ(result.trace.size(),
              static_cast<std::size_t>(result.stage2_levels) + 2);
    // The finish's first level starts from the stage-1 partition.
    EXPECT_EQ(result.trace[1].level_vertices, result.trace[0].num_modules);
    const auto& refine = result.trace.back();
    EXPECT_EQ(refine.level_vertices, g.num_vertices());
    EXPECT_LE(refine.codelength_after, refine.codelength_before);
    EXPECT_EQ(refine.codelength_after, result.codelength);
    EXPECT_EQ(refine.num_modules, result.num_modules());
  }
}

TEST(Stage2Finish, RankZeroChargesItsWorkToStageTwo) {
  // The α-β cost model (Figs. 9–10) reads stage 2 from stage_work[1]:
  // rank 0 runs the finish's move search on top of its share of the
  // refinement rounds, which every rank runs.
  const auto gg = gen::lfr_lite({}, 31);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const int p = 4;
  const auto result = dc::distributed_infomap(g, config_for(p));
  const auto& stage2 = result.stage_work[1];
  ASSERT_EQ(stage2.size(), static_cast<std::size_t>(p));
  EXPECT_GT(stage2[0].arcs_scanned, 0u);
  EXPECT_GT(stage2[0].delta_evals, 0u);
  EXPECT_GT(stage2[0].module_updates, 0u);
  for (int r = 0; r < p; ++r) {
    EXPECT_GT(stage2[static_cast<std::size_t>(r)].messages, 0u) << "rank " << r;
    EXPECT_GT(stage2[static_cast<std::size_t>(r)].bytes, 0u) << "rank " << r;
    EXPECT_GT(stage2[static_cast<std::size_t>(r)].arcs_scanned, 0u)
        << "rank " << r;
    if (r > 0) {
      EXPECT_GT(stage2[0].delta_evals,
                stage2[static_cast<std::size_t>(r)].delta_evals)
          << "rank " << r;
    }
  }
}

TEST(Stage2Finish, MaxLevelsZeroRefinesTheStageOnePartition) {
  // No finish levels: the refinement starts from the stage-1 partition.
  const auto gg = gen::lfr_lite({}, 41);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto fg = dc::make_flow_graph(g);
  auto cfg = config_for(4);
  cfg.max_levels = 0;
  const auto result = dc::distributed_infomap(g, cfg);
  EXPECT_EQ(result.stage2_levels, 0);
  ASSERT_EQ(result.trace.size(), 2u);
  EXPECT_EQ(result.trace[1].codelength_before,
            result.trace[0].codelength_after);
  EXPECT_LE(result.codelength, result.trace[0].codelength_after);
  EXPECT_EQ(result.codelength, result.trace[1].codelength_after);
  EXPECT_NEAR(result.codelength,
              dc::codelength_of_partition(fg, result.assignment), 1e-9);
}
