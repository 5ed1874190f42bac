// Balance metrics over an ArcPartition — the quantities plotted in the
// paper's Figs. 6 (workload = per-rank arc count) and 7 (communication =
// per-rank ghost-vertex count).
#pragma once

#include <cstdint>
#include <vector>

#include "partition/arc_partition.hpp"

namespace dinfomap::partition {

/// Arcs held by each rank.
std::vector<std::uint64_t> arcs_per_rank(const ArcPartition& part);

/// Ghost vertices per rank: distinct arc endpoints on the rank that are
/// neither owned there nor delegates.
std::vector<std::uint64_t> ghosts_per_rank(const ArcPartition& part);

/// Structural audit: the assigned arcs equal the graph's arcs as a multiset
/// (every arc on exactly one rank, with its weight), and every low-degree
/// source sits with its owner. O(V + E): arcs are bucketed by source using
/// the graph's degrees.
bool validate_partition(const ArcPartition& part, const GraphView& graph);
bool validate_partition(const ArcPartition& part, const Csr& graph);

}  // namespace dinfomap::partition
