#include "partition/metrics.hpp"

#include <algorithm>
#include <cstddef>
#include <unordered_set>

namespace dinfomap::partition {

std::vector<std::uint64_t> arcs_per_rank(const ArcPartition& part) {
  std::vector<std::uint64_t> counts(part.num_ranks);
  for (int r = 0; r < part.num_ranks; ++r) counts[r] = part.rank_arcs[r].size();
  return counts;
}

std::vector<std::uint64_t> ghosts_per_rank(const ArcPartition& part) {
  std::vector<std::uint64_t> counts(part.num_ranks, 0);
  for (int r = 0; r < part.num_ranks; ++r) {
    std::unordered_set<VertexId> ghosts;
    for (const Arc& a : part.rank_arcs[r]) {
      if (!part.local_on(a.source, r)) ghosts.insert(a.source);
      if (!part.local_on(a.target, r)) ghosts.insert(a.target);
    }
    counts[r] = ghosts.size();
  }
  return counts;
}

bool validate_partition(const ArcPartition& part, const GraphView& graph) {
  const VertexId n = graph.num_vertices();
  if (part.is_delegate.size() != n || part.owners.size() != n) return false;
  std::uint64_t assigned = 0;
  for (const auto& arcs : part.rank_arcs) assigned += arcs.size();
  if (assigned != graph.num_arcs()) return false;

  // Bucket the assigned arcs by source, using the graph's own degrees as the
  // bucket sizes; checking the owner rule on the way (low-degree sources
  // must sit with their owner). With the totals equal, no bucket overflowing
  // means every bucket is exactly full.
  std::vector<EdgeIndex> begin(static_cast<std::size_t>(n) + 1, 0);
  for (VertexId u = 0; u < n; ++u) begin[u + 1] = begin[u] + graph.degree(u);
  std::vector<EdgeIndex> fill(begin.begin(), begin.end() - 1);
  std::vector<Arc> bucket(assigned);
  for (std::size_t r = 0; r < part.rank_arcs.size(); ++r) {
    for (const Arc& a : part.rank_arcs[r]) {
      if (a.source >= n) return false;
      if (!part.delegate(a.source) &&
          part.owner(a.source) != static_cast<int>(r))
        return false;
      if (fill[a.source] == begin[a.source + 1]) return false;
      bucket[fill[a.source]++] = a;
    }
  }

  // Each bucket must equal its vertex's adjacency as a multiset of (target,
  // weight). Stamp the neighbours' weights by target and tick each off once;
  // a vertex with parallel arcs (a repeated target) is compared by sorting.
  const auto arc_less = [](const Arc& a, const Arc& b) {
    if (a.target != b.target) return a.target < b.target;
    return a.weight < b.weight;
  };
  std::vector<VertexId> stamp(n, 0);  // u + 1 while u's arcs are expected
  std::vector<Weight> weight(n, 0);
  std::vector<Arc> expected;
  auto cursor = graph.cursor();
  for (VertexId u = 0; u < n; ++u) {
    const auto nbs = graph.neighbors(u, cursor);
    bool parallel = false;
    for (const auto& nb : nbs) {
      if (nb.target >= n) return false;
      if (stamp[nb.target] == u + 1) parallel = true;
      stamp[nb.target] = u + 1;
      weight[nb.target] = nb.weight;
    }
    const auto first = bucket.begin() + static_cast<std::ptrdiff_t>(begin[u]);
    const auto last =
        bucket.begin() + static_cast<std::ptrdiff_t>(begin[u + 1]);
    if (parallel) {
      expected.clear();
      for (const auto& nb : nbs) expected.push_back({u, nb.target, nb.weight});
      std::sort(expected.begin(), expected.end(), arc_less);
      std::sort(first, last, arc_less);
      if (!std::equal(first, last, expected.begin())) return false;
      for (const auto& nb : nbs) stamp[nb.target] = 0;
      continue;
    }
    for (auto it = first; it != last; ++it) {
      if (it->target >= n || stamp[it->target] != u + 1 ||
          !(weight[it->target] == it->weight))
        return false;
      stamp[it->target] = 0;  // matched: a second copy finds no stamp
    }
  }
  return true;
}

bool validate_partition(const ArcPartition& part, const Csr& graph) {
  return validate_partition(part, GraphView(graph));
}

}  // namespace dinfomap::partition
