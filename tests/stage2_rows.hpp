// Shared by the bit-identity suites (transport faults, blockgraph backend):
// a distributed run's stage 2 as one comparable string.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

#include "core/dist_infomap.hpp"

namespace dinfomap::test_util {

/// Per trace row (stage 1, the rank-0 finish's levels, the refinement) its
/// size, module count, moves and the bits of its closing codelength, then
/// every rank's stage-2 work.
inline std::string stage2_rows(const core::DistInfomapResult& r) {
  std::string s;
  for (const auto& row : r.trace) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &row.codelength_after, sizeof bits);
    s += std::to_string(row.level_vertices) + "/" +
         std::to_string(row.num_modules) + "/" + std::to_string(row.moves) +
         "/" + std::to_string(bits) + " ";
  }
  s += "work";
  for (const auto& w : r.stage_work[1])
    s += " " + std::to_string(w.arcs_scanned) + "/" +
         std::to_string(w.delta_evals) + "/" +
         std::to_string(w.module_updates);
  return s;
}

}  // namespace dinfomap::test_util
