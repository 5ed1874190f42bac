// Figure 5: vertex merging rate per outer iteration — sequential vs
// distributed. Rate_k = |V^{k+1}| / |V^k| (fraction of vertices surviving the
// merge); the paper highlights that stage 1 with delegates already merges
// ~50%+ of vertices in the first iteration.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/seq_infomap.hpp"

namespace {
void print_rates(const std::vector<dinfomap::core::OuterIterationInfo>& trace,
                 dinfomap::graph::VertexId n0, const char* label) {
  std::printf("%-12s", label);
  for (const auto& row : trace) {
    const double merged_fraction =
        1.0 - static_cast<double>(row.num_modules) /
                  static_cast<double>(row.level_vertices);
    std::printf(" %6.1f%%", 100.0 * merged_fraction);
  }
  // Cumulative reduction vs the original graph.
  if (!trace.empty()) {
    const double final_fraction =
        static_cast<double>(trace.back().num_modules) / static_cast<double>(n0);
    std::printf("   (final modules = %.2f%% of |V0|)", 100.0 * final_fraction);
  }
  std::printf("\n");
}
}  // namespace

int main() {
  using namespace dinfomap;
  bench::banner("Figure 5 — vertex merging rate per outer iteration",
                "Zeng & Yu, ICPP'18, Fig. 5");
  std::printf("per-iteration merged fraction = 1 - |modules|/|V^k|\n");

  for (const char* name : {"amazon", "dblp", "ndweb", "youtube"}) {
    const auto data = bench::load(name);
    const auto seq = core::sequential_infomap(data.csr);
    core::DistInfomapConfig cfg;
    cfg.num_ranks = 4;
    const auto dist = core::distributed_infomap(data.csr, cfg);

    std::printf("\n--- %s ---\n", data.spec.paper_name.c_str());
    print_rates(seq.trace, data.csr.num_vertices(), "sequential");
    // The last row is the level-0 refinement (DESIGN.md §17): it moves
    // vertices between the final modules but merges no level.
    const std::vector<core::OuterIterationInfo> levels(dist.trace.begin(),
                                                       dist.trace.end() - 1);
    print_rates(levels, data.csr.num_vertices(), "distributed");
  }
  return 0;
}
