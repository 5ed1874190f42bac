// Figure 6: per-processor workload (edge/arc count) under 1D vs delegate
// partitioning on the large stand-ins. Delegate partitioning must flatten the
// distribution (max ≈ mean); 1D leaves orders-of-magnitude spread.
#include <cstdio>

#include "bench_common.hpp"
#include "partition/metrics.hpp"
#include "util/stats.hpp"

int main() {
  using namespace dinfomap;
  bench::banner("Figure 6 — workload balance: 1D vs delegate partitioning (p=16)",
                "Zeng & Yu, ICPP'18, Fig. 6");
  const int p = 16;

  for (const char* name : {"uk2005", "webbase2001", "friendster", "uk2007"}) {
    const auto data = bench::load(name);
    const auto oned = partition::make_oned(data.csr, p);
    const auto del = partition::make_delegate(data.csr, p);

    const auto arcs_1d = partition::arcs_per_rank(oned);
    const auto arcs_dp = partition::arcs_per_rank(del);
    const auto s1 = util::summarize_counts(arcs_1d);
    const auto s2 = util::summarize_counts(arcs_dp);

    std::printf("\n--- %s (|E| = %s, d_high = %llu) ---\n",
                data.spec.paper_name.c_str(),
                util::with_commas(data.csr.num_edges()).c_str(),
                static_cast<unsigned long long>(del.degree_threshold));
    std::printf("%-6s %14s %14s\n", "rank", "1D arcs", "delegate arcs");
    for (int r = 0; r < p; ++r)
      std::printf("%-6d %14s %14s\n", r, util::with_commas(arcs_1d[r]).c_str(),
                  util::with_commas(arcs_dp[r]).c_str());
    std::printf("min/max/imb   1D: %s / %s / %.2fx    delegate: %s / %s / %.2fx\n",
                util::with_commas(static_cast<std::uint64_t>(s1.min)).c_str(),
                util::with_commas(static_cast<std::uint64_t>(s1.max)).c_str(),
                s1.imbalance,
                util::with_commas(static_cast<std::uint64_t>(s2.min)).c_str(),
                util::with_commas(static_cast<std::uint64_t>(s2.max)).c_str(),
                s2.imbalance);

    // Observed balance: the static arc counts above predict the stage-1
    // workload; the flight recorder's run report verifies it with the arcs
    // each rank actually scanned in stage 1 of a delegate-partitioned run
    // (stage 2 runs on rank 0 alone, DESIGN.md §17).
    core::DistInfomapConfig cfg;
    cfg.num_ranks = p;
    cfg.obs.enabled = true;
    const auto rep = core::distributed_infomap(data.csr, del, cfg).report;
    std::vector<std::uint64_t> scanned(static_cast<std::size_t>(p), 0);
    for (int r = 0; r < p; ++r)
      scanned[static_cast<std::size_t>(r)] =
          rep.stage_work[0][static_cast<std::size_t>(r)].arcs_scanned;
    const auto so = util::summarize_counts(scanned);
    std::printf("observed arcs scanned (run report): max %s, imb %.2fx\n",
                util::with_commas(static_cast<std::uint64_t>(so.max)).c_str(),
                so.imbalance);
  }
  return 0;
}
