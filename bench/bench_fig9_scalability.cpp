// Figure 9: total clustering time vs rank count, split into stage 1 (with
// delegates) and stage 2 (the merged graph, finished on rank 0). Reported in modeled time
// (per-rank work counters through the α-β model; see DESIGN.md S9) with wall
// time for reference — threads on one core cannot show real multi-node
// scaling, but the counter-exact model reproduces the inverse-p shape.
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace dinfomap;
  bench::banner("Figure 9 — scalability: modeled runtime vs rank count",
                "Zeng & Yu, ICPP'18, Fig. 9");
  const perf::CostModel model;
  bench::CsvSink csv("fig9_scalability",
                     {"dataset", "ranks", "stage1_ms", "stage2_ms", "total_ms",
                      "wall_ms", "final_L"});
  bench::JsonSink json("fig9_scalability");

  for (const char* name : {"uk2005", "webbase2001", "friendster", "uk2007"}) {
    const auto data = bench::load(name);
    std::printf("\n--- %s ---\n", data.spec.paper_name.c_str());
    std::printf("%-5s %-14s %-14s %-14s %-12s %-9s\n", "p", "stage1 (ms)",
                "stage2 (ms)", "total (ms)", "wall (ms)", "final L");
    for (int p : {2, 4, 8, 16, 32}) {
      core::DistInfomapConfig cfg;
      cfg.num_ranks = p;
      cfg.obs.enabled = true;  // flight recorder fills the run report
      const auto result = core::distributed_infomap(data.csr, cfg);
      const obs::RunReport& rep = result.report;
      const double s1 = 1000.0 * bench::modeled_stage_seconds(rep, 0, model);
      const double s2 = 1000.0 * bench::modeled_stage_seconds(rep, 1, model);
      const double wall =
          1000.0 * (rep.stage1_wall_seconds + rep.stage2_wall_seconds);
      std::printf("%-5d %-14.2f %-14.2f %-14.2f %-12.1f %-9.4f\n", p, s1, s2,
                  s1 + s2, wall, rep.codelength);
      csv.row(name, p, s1, s2, s1 + s2, wall, rep.codelength);
      json.begin_row()
          .field("dataset", name)
          .field("ranks", p)
          .field("stage1_ms", s1)
          .field("stage2_ms", s2)
          .field("total_ms", s1 + s2)
          .field("wall_ms", wall)
          .field("final_L", rep.codelength)
          .report_field("run_report", rep);
    }
  }
  std::printf(
      "\nexpected shape: modeled total time nearly inversely proportional to "
      "p (Fig. 9); stage 1 dominates on hub-heavy graphs.\n");
  return 0;
}
