// Post-run causal profiler (DESIGN.md §13): reconstructs the happens-before
// DAG of a finished run from the trace — per-rank spans, cross-rank flow
// edges (message send → consumption), and per-collective arrival stamps —
// and reduces it to a versioned digest: the run's critical path, a per-rank
// wall = wait + comm + compute decomposition, per-phase straggler/skew
// attribution, and per-channel delivery-latency/in-flight statistics.
//
// The profiler is strictly read-only over the trace buffers and runs after
// the ranks join, so it shares the flight recorder's zero-perturbation
// contract: building (or not building) the digest cannot change a run's
// partitions, MDL, or round traces.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"

namespace dinfomap::obs {

inline constexpr const char* kProfileSchema = "dinfomap.profile/1";

/// Span in which one rank computes alone by design while the others wait in
/// a collective: the distributed Infomap's stage 2, finished on rank 0
/// (DESIGN.md §17). Collectives directly inside it are exempt from the
/// straggler rule, and receive waits directly inside it from the
/// wait-dominance rule; both are recorded all the same.
inline constexpr const char* kSerialSpan = "Stage2";

/// One rank's wall-clock decomposition. The three segments tile the rank's
/// wall time by construction: wait is measured (recv_wait spans), comm is
/// measured (leaf-collective occupancy minus the wait nested inside it), and
/// compute is the remainder.
struct RankProfile {
  int rank = 0;
  double wall_us = 0;     ///< last − first event on the rank's track
  double wait_us = 0;     ///< blocked inside recv_wait spans
  double comm_us = 0;     ///< inside leaf collectives, minus contained wait
  double compute_us = 0;  ///< wall − wait − comm
  double busy_us = 0;     ///< wall − wait; critical path ≥ max over ranks
  /// Part of wait_us spent in receives directly inside kSerialSpan.
  double serial_wait_us = 0;
  /// Cross-rank skew share of this rank's wait: time between its arrival at
  /// a collective and the last rank's arrival, summed over collectives.
  double collective_wait_us = 0;
};

/// Cross-rank collective wait aggregated per enclosing span name (the
/// paper's phases, plus Stage/MergeLevel/AsyncEpoch structure spans).
struct PhaseProfile {
  std::string name;
  std::uint64_t instances = 0;  ///< leaf-collective calls under this name
  double wait_us = 0;   ///< Σ over instances and ranks of arrival-skew wait
  double span_us = 0;   ///< Σ collective occupancy over instances and ranks
  double max_skew_us = 0;  ///< worst single-instance arrival spread
  int worst_rank = -1;     ///< last arriver of that worst instance
  /// Per-rank wait *caused*: instance wait is charged to its last arriver.
  std::vector<double> caused_wait_us;
};

/// One directed point-to-point channel (collective traffic included — the
/// collectives decompose into p2p transport messages).
struct ChannelProfile {
  int src = 0;
  int dst = 0;
  std::uint64_t messages = 0;       ///< matched send/recv pairs
  std::uint64_t max_in_flight = 0;  ///< peak sent-but-not-yet-consumed depth
  Histogram latency_us;             ///< send-to-consumption latency (µs)
};

/// The `dinfomap.profile/1` digest. Embedded in the run report and written
/// standalone via `dinfomap_cli --profile out.json`.
struct ProfileDigest {
  std::string schema = kProfileSchema;
  int num_ranks = 0;
  double wall_us = 0;  ///< latest event across ranks − earliest event
  /// Length of the longest chain of causally ordered active time: per-rank
  /// execution advances it by non-blocked time, message edges splice in the
  /// sender's chain. The run cannot finish faster than this on any number of
  /// ranks — the distributed analogue of a single thread's busy time.
  double critical_path_us = 0;
  std::uint64_t messages = 0;         ///< matched flow pairs
  std::uint64_t unmatched_sends = 0;  ///< sends never consumed (should be 0)
  std::uint64_t unmatched_recvs = 0;  ///< recvs without a send (should be 0)
  std::vector<RankProfile> ranks;       ///< indexed by rank
  std::vector<PhaseProfile> phases;     ///< sorted by wait_us descending
  std::vector<ChannelProfile> channels; ///< sorted by (src, dst)

  /// One JSON object, keys in sorted order within every object so the
  /// artifact is byte-stable (same discipline as the metrics registry).
  [[nodiscard]] std::string to_json() const;
  /// Write to_json() to `path`; returns false (and logs a warning) on I/O
  /// failure.
  bool write(const std::string& path) const;
};

/// Build the digest from a finished trace. Tolerates traces without causal
/// events (pre-§13 or synthetic): those yield empty channel/phase tables and
/// a critical path equal to the max per-rank busy time.
[[nodiscard]] ProfileDigest build_profile(const Trace& trace);

/// Watchdog rules over the digest: `wait_dominated` (a rank mostly blocked)
/// and `straggler_skew` (one rank causing most of a phase's collective
/// wait), both blind to kSerialSpan. Callers fold the findings into the
/// recorder's anomaly list.
[[nodiscard]] std::vector<Anomaly> analyze_profile(
    const ProfileDigest& digest, const WatchdogOptions& options);

}  // namespace dinfomap::obs
