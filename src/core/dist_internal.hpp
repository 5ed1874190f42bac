// Internal per-rank state of the distributed Infomap. Not part of the public
// API; included by dist_setup.cpp / dist_infomap.cpp and by whitebox tests.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "comm/comm.hpp"
#include "core/dist_infomap.hpp"
#include "core/mapequation.hpp"
#include "core/module_info.hpp"
#include "obs/recorder.hpp"
#include "partition/arc_partition.hpp"
#include "perf/work_counters.hpp"
#include "util/flat_map.hpp"
#include "util/random.hpp"
#include "util/sparse_accumulator.hpp"
#include "util/timer.hpp"
#include "util/worklist.hpp"

namespace dinfomap::core::detail {

using graph::VertexId;

/// Role of a vertex in this rank's local view.
enum class Kind : std::uint8_t {
  kOwned,     ///< low-degree vertex owned here (full adjacency local)
  kDelegate,  ///< hub duplicated on all ranks (partial adjacency local)
  kGhost,     ///< remote low-degree vertex seen as an arc target
};

/// Sort `arcs` by (source, target) and sum parallel arcs into one, adding
/// equal arcs in input order (stable), so the result depends only on the
/// input sequence.
void sum_parallel_arcs(std::vector<CoarseArc>& arcs);

/// One rank of the distributed algorithm. The driver runs `execute()` on
/// every rank inside a comm::Runtime job; shared read-only inputs are the
/// partition (stage 1's "file on the parallel filesystem"); everything
/// mutable is rank-local and exchanged via messages.
class DistRank {
 public:
  DistRank(comm::Comm& comm, const partition::ArcPartition& part,
           const DistInfomapConfig& cfg, obs::Recorder* recorder = nullptr);

  /// Runs preprocessing, stage 1, and the rank-0 stage-2 finish. After
  /// return, the sinks below carry this rank's outputs.
  void execute();

  // ---- outputs (read by the driver after the job joins) -----------------
  double codelength() const { return codelength_; }
  double singleton_codelength() const { return singleton_codelength_; }
  const std::vector<OuterIterationInfo>& trace() const { return trace_; }
  int stage1_rounds() const { return stage1_rounds_; }
  const std::vector<double>& stage1_round_codelengths() const {
    return round_mdl_;
  }
  int stage2_levels() const { return stage2_levels_; }
  double stage1_seconds() const { return stage1_seconds_; }
  double stage2_seconds() const { return stage2_seconds_; }
  const perf::WorkCounters& work(Phase ph) const {
    return work_[static_cast<int>(ph)];
  }
  /// Total work during stage 1 (all phases) and during stage 2.
  perf::WorkCounters stage_work(int stage) const;
  double phase_seconds(Phase ph) const {
    return phase_sec_[static_cast<int>(ph)];
  }
  /// (level-0 vertex, final module) pairs for vertices owned by this rank.
  const std::vector<std::pair<VertexId, VertexId>>& final_assignment() const {
    return final_assignment_;
  }
  /// Move-search candidates skipped because their module was not yet in the
  /// local table (whole run; see moves.skipped_unsynced metric).
  std::uint64_t skipped_unsynced() const { return skipped_unsynced_total_; }

 private:
  struct LocalVertex {
    VertexId global = 0;
    Kind kind = Kind::kGhost;
    double node_flow = 0;  ///< exact for owned/delegate; unused for ghosts
    double out_flow = 0;   ///< total flow on non-self arcs (exact when known)
    ModuleId module = 0;
  };
  struct LocalArc {
    std::uint32_t target = 0;  ///< local index
    double flow = 0;
  };

  // ---- setup -------------------------------------------------------------
  void setup_stage1(const partition::ArcPartition& part);
  /// Build verts_/arcs_ from (source,target,flow) triples; callers must then
  /// fill kinds/flows. Sources must all be local-movable.
  void build_local_graph(std::vector<CoarseArc>& triples);
  void setup_subscriptions();
  void init_singleton_modules();

  // ---- one synchronous round (stage 1, and the stage-2 refinement) -------
  struct RoundResult {
    std::uint64_t local_moves = 0;
    std::uint64_t hub_moves = 0;
    std::uint64_t global_moves = 0;
  };
  RoundResult round(util::Xoshiro256& rng);

  /// Phase 1: greedy pass; immediate moves for owned, proposals for hubs.
  std::uint64_t find_best_modules(util::Xoshiro256& rng,
                                  std::vector<HubProposal>& proposals);
  /// Phase 2: allgather hub proposals, apply global argmin moves everywhere.
  std::uint64_t broadcast_delegates(std::vector<HubProposal>& proposals);
  /// Phase 2 variant (exact_hub_moves): reduce per-hub flow maps at hub
  /// owners, who compute the move from exact global flows; decisions are
  /// then allgathered and applied like broadcast_delegates.
  std::uint64_t broadcast_delegates_exact();
  /// Apply globally-agreed hub decisions to the local tables.
  std::uint64_t apply_hub_winners(const std::vector<HubProposal>& winners);
  /// Phase 3: Alg. 3 boundary swap + exact home-based stat aggregation,
  /// shipping only the module partials that changed since the last swap.
  void swap_boundary_info();
  /// Optimistic write to the local module table (move commits, hub winners,
  /// boundary-record inserts, async deltas, level-start singletons). Logs
  /// the entry's prior value so the next whole-module swap can restore the
  /// last authoritative table before applying the homes' replies.
  ModuleStats& write_module(ModuleId m);
  /// Visit the live modules homed here (exact statistics, num_members > 0)
  /// in ascending module id.
  template <typename F>
  void for_each_homed(F&& f) const {
    const auto p = static_cast<ModuleId>(comm_.size());
    const auto r = static_cast<ModuleId>(comm_.rank());
    for (std::size_t j = 0; j < home_stats_.size(); ++j)
      if (home_stats_[j].num_members > 0) f(j * p + r, home_stats_[j]);
  }
  /// Phase 4: adopt authoritative stats, allreduce L and movement counts.
  std::uint64_t other_update(std::uint64_t local_moves, std::uint64_t hub_moves);

  /// The round loop's stopping rules, shared by stage 1 and the refinement:
  /// after round `i` (0-based) that started at L = `before` and moved
  /// `moves` vertices globally.
  [[nodiscard]] bool rounds_done(int i, double before,
                                 std::uint64_t moves) const;
  /// Give every local vertex (owned, ghost, delegate) the module
  /// `target[li]` and rebuild exact statistics and L with one swap. Every
  /// rank must pass a globally consistent assignment.
  void assign_modules(const std::vector<ModuleId>& target);

  // ---- stage 2 (DESIGN.md §17) -------------------------------------------
  /// Contract this rank's level-0 arcs by stage-1 module and gather the
  /// coarse graph to rank 0, which runs Algorithm 1's level loop on it and
  /// broadcasts each stage-1 module's final module. Returns the final module
  /// of every local vertex.
  std::vector<ModuleId> finish_on_rank0();
  /// Adopt `start` (the finished partition), run synchronous level-0 rounds
  /// from it with hubs moved by exact consensus, end in the best state seen,
  /// and label the level-0 vertices owned here.
  void refine(const std::vector<ModuleId>& start, util::Xoshiro256& rng);

  /// Evaluate the best move for local vertex `li`; returns true if a strictly
  /// improving candidate exists.
  struct BestMove {
    ModuleId target = 0;
    double delta_l = 0;
    MoveOutcome outcome;
  };
  bool best_move_for(std::uint32_t li, BestMove& best);

  void apply_local_move(std::uint32_t li, const BestMove& mv);

  /// §3.4 anti-bouncing, per-pair deterministic tiebreak: (mass, label)
  /// defines a total order over modules and a non-singleton boundary move
  /// yields iff it goes downhill in that order. A pure function of module
  /// state — no shared round counter — so the decision is identical on every
  /// rank at any time: sound under full sweeps and async epochs alike.
  [[nodiscard]] bool min_label_yields(ModuleId cur, ModuleId target);

  // ---- event clock for async reactivation (DESIGN.md §12) -----------------
  /// Size the stamp arrays; called at the top of the async level.
  void ensure_activity_state();
  std::uint64_t tick() { return ++clock_; }
  void stamp_assign(std::uint32_t li, std::uint64_t t) {
    // Bounds check covers the initial swap, which runs before
    // ensure_activity_state sizes the arrays; a missed stamp there is
    // harmless because the arrays start with "everything active" anyway.
    if (cfg_.async && li < assign_stamp_.size()) assign_stamp_[li] = t;
  }
  void stamp_stats(ModuleId m, std::uint64_t t) {
    if (cfg_.async && m < stat_stamp_.size()) stat_stamp_[m] = t;
  }
  /// True when re-evaluating `li` provably reproduces its last (no-move)
  /// outcome: no neighbor assignment, candidate-module statistic, or own
  /// statistic changed since the last evaluation, and the recorded rejection
  /// margin survives the global q_total drift (the margin-bound argument of
  /// DESIGN.md §12 — this is what makes the skip *exact*, not heuristic).
  [[nodiscard]] bool can_prune(std::uint32_t li) const;
  /// Record the outcome of a completed evaluation of `li` for future
  /// can_prune decisions. `margin` is the smallest rejection slack observed
  /// across evaluated candidates (+inf when every candidate was skipped).
  /// The min-label guard needs no extra state here: its verdict is a pure
  /// function of the module pair, itself covered by the assignment stamps.
  void note_evaluated(std::uint32_t li, bool found, double margin) {
    if (!cfg_.async) return;
    last_eval_[li] = clock_;
    last_q_[li] = q_total_;
    last_margin_[li] = found ? 0.0 : margin;
  }

  // ---- async priority-worklist engine (DESIGN.md §12) ---------------------
  /// Run stage 1's move scheduling with the async engine: epochs of
  /// priority-ordered local drains + one packed delta exchange each, with a
  /// full reconciliation every `async_max_lag` epochs. Returns the global
  /// move count of the level and reports the number of reconciliations in
  /// `recons_out`; on return the usual post-level state (exact home stats,
  /// exact L) is in place, as after a synchronous round loop.
  std::uint64_t async_level(int& recons_out);
  /// Reconciliation: hub consensus, whole-module swap, exact L; then a
  /// stamp-driven sweep reactivates every vertex can_prune cannot clear.
  /// Returns the epoch's global move count (allreduced).
  std::uint64_t async_reconcile(std::uint64_t local_moves_since);

  /// ΔL evaluation routed through the plogp memo when enabled (exact either
  /// way; the flag keeps a memo-free reference path selectable).
  MoveOutcome eval_move(const MoveDelta& d) {
    return cfg_.plogp_memo ? evaluate_move(d, plogp_memo_) : evaluate_move(d);
  }

  [[nodiscard]] int home_of(ModuleId m) const {
    return static_cast<int>(m % static_cast<ModuleId>(comm_.size()));
  }
  [[nodiscard]] int owner_of(VertexId v) const {
    return static_cast<int>(v % static_cast<VertexId>(comm_.size()));
  }

  perf::WorkCounters& wk(Phase ph) { return work_[static_cast<int>(ph)]; }

  /// RAII phase attribution: wall time plus the comm traffic that happened
  /// while alive is charged to one Phase, and (when tracing is armed) the
  /// phase appears as a span on this rank's trace track.
  class PhaseScope {
   public:
    PhaseScope(DistRank& rank, Phase ph)
        : rank_(rank),
          ph_(static_cast<int>(ph)),
          messages0_(rank.comm_.counters().total_messages()),
          bytes0_(rank.comm_.counters().total_bytes()),
          span_(rank.trace_buf_, kPhaseNames[static_cast<int>(ph)]) {}
    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;
    ~PhaseScope() {
      rank_.work_[ph_].messages +=
          rank_.comm_.counters().total_messages() - messages0_;
      rank_.work_[ph_].bytes += rank_.comm_.counters().total_bytes() - bytes0_;
      rank_.phase_sec_[ph_] += timer_.seconds();
    }

   private:
    DistRank& rank_;
    int ph_;
    std::uint64_t messages0_;
    std::uint64_t bytes0_;
    util::Timer timer_;
    obs::SpanScope span_;
  };

  /// Sample flight-recorder gauges/histograms that describe the current
  /// tables (module-table probe lengths, sizes). No-op unless metrics are on.
  void sample_table_metrics();

  comm::Comm& comm_;
  const DistInfomapConfig& cfg_;
  /// Flight recorder (nullable). trace_buf_/metrics_ are this rank's resolved
  /// handles — null whenever the respective subsystem is off, so every
  /// instrumentation site is one pointer test.
  obs::Recorder* recorder_ = nullptr;
  obs::TraceBuffer* trace_buf_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  VertexId n0_ = 0;        ///< global vertex count (module ids are < n0_)
  double node_term_ = 0;   ///< Σ plogp(p_α), level 0 (global)

  std::vector<LocalVertex> verts_;
  std::unordered_map<VertexId, std::uint32_t> index_;  // global -> local
  std::vector<std::uint32_t> arc_off_;                 // size verts_+1
  std::vector<LocalArc> arcs_;
  std::vector<std::uint32_t> movable_;   // local indices, owned first
  std::vector<std::uint32_t> hubs_;      // local indices of delegates

  /// Per-rank module table. Open addressing: evaluate_move probes it once
  /// per candidate module, which made unordered_map bucket chasing the
  /// FindBestModule bottleneck (see DESIGN.md "Hot-path data structures").
  util::FlatMap<ModuleId, ModuleStats> modules_;

  /// Reusable move-search scratch. Module ids are vertex ids, so a dense
  /// accumulator of capacity n0_ covers all keys.
  struct NeighborFlow {
    double flow = 0;
    std::uint8_t boundary = 0;  ///< reached through a non-owned vertex
  };
  util::SparseAccumulator<ModuleId, NeighborFlow> nbflow_;
  /// Reusable per-module partial-stat scratch for swap_boundary_info.
  util::SparseAccumulator<ModuleId, ModulePartial> partial_acc_;
  /// The partials this rank last shipped to their homes, one per module it
  /// referenced at the previous swap (swapped with partial_acc_ after each
  /// send; empty before the first swap, which therefore ships everything).
  util::SparseAccumulator<ModuleId, ModulePartial> shipped_;
  /// swap_boundary_info isSent dedup: sent_stamp_[m] == sent_epoch_ marks a
  /// module whose statistics already went to the destination being built.
  std::vector<std::uint64_t> sent_stamp_;
  std::uint64_t sent_epoch_ = 0;
  PlogpMemo plogp_memo_;

  /// modules_.find misses in the move search (candidate module not yet
  /// synced locally → vertex skipped this round). Previously silent; now
  /// counted so the invariant watchdog can flag pathological skip rates.
  std::uint64_t skipped_unsynced_round_ = 0;
  std::uint64_t skipped_unsynced_total_ = 0;

  // ---- event clock state (cfg_.async; empty otherwise) --------------------
  std::uint64_t clock_ = 1;  ///< per-rank monotone event clock
  /// Per local vertex: clock at its last module-assignment change (own move,
  /// hub winner, ghost update).
  std::vector<std::uint64_t> assign_stamp_;
  /// Per module id (< n0_): clock at the last statistics change visible in
  /// the local table.
  std::vector<std::uint64_t> stat_stamp_;
  /// Per local vertex: clock at its last completed evaluation (0 = never).
  std::vector<std::uint64_t> last_eval_;
  /// Rejection margin at the last no-move evaluation: min over evaluated
  /// candidates of (ΔL + move_epsilon) — how far the best candidate was from
  /// acceptance.
  std::vector<double> last_margin_;
  /// q_total_ at the last evaluation (the margin is only valid against
  /// bounded q drift; see can_prune).
  std::vector<double> last_q_;

  // ---- async worklist state (cfg_.async) ----------------------------------
  /// Lazy-deletion priority queue over local vertex indices (extracted to
  /// util so the dcheck harness drives the same implementation).
  util::LazyPriorityWorklist worklist_;
  std::vector<std::uint8_t> dirty_flag_; ///< async dedup for dirty_owned_
  /// Per local *non-owned* vertex: owned local readers (reverse adjacency),
  /// built once in async mode so an incoming delta for a ghost/hub can
  /// reactivate exactly the local vertices that read it.
  std::vector<std::vector<std::uint32_t>> ghost_readers_;

  double q_total_ = 0;
  double codelength_ = 0;
  double singleton_codelength_ = 0;
  std::uint64_t alive_modules_ = 0;  ///< global module count (post-sync)
  int round_index_ = 0;  ///< round counter (round samples, anomaly reports)

  /// Owned vertices that changed module since the last swap.
  std::vector<std::uint32_t> dirty_owned_;
  /// subscribers_[li] = ranks reading vertex li (owned vertices only).
  std::unordered_map<std::uint32_t, std::vector<int>> subscribers_;

  /// Optimistic module-table writes since the last swap, oldest first:
  /// (module, value before the write, whether the entry existed).
  struct ModuleWrite {
    ModuleId mod = 0;
    ModuleStats before;
    bool existed = false;
  };
  std::vector<ModuleWrite> module_writes_;

  /// Home table, dense in slot j = m / p for the modules m = j·p + rank
  /// homed here. home_stats_[j] holds the exact statistics (the codelength
  /// and stage-2 inputs); home_partials_[j·p + src] the partial rank src
  /// last shipped for that module. Sized at the first swap.
  struct SourcePartial {
    double sum_pr = 0;
    double exit_pr = 0;
    std::int32_t num_members = 0;
    std::uint8_t held = 0;       ///< src references the module
    std::uint8_t new_held = 0;   ///< ... and started to at this swap
  };
  std::vector<ModuleStats> home_stats_;
  std::vector<SourcePartial> home_partials_;
  std::vector<std::uint8_t> home_touched_;  ///< per slot, this swap only

  /// Hubs move by exact consensus (broadcast_delegates_exact): set by
  /// cfg.exact_hub_moves for stage 1, and always during the refinement.
  bool exact_hubs_ = false;
  std::vector<OuterIterationInfo> trace_;
  std::vector<double> round_mdl_;
  std::vector<std::pair<VertexId, VertexId>> final_assignment_;
  int stage1_rounds_ = 0;
  int stage2_levels_ = 0;
  double stage1_seconds_ = 0;
  double stage2_seconds_ = 0;
  perf::WorkCounters work_[kNumPhases];
  perf::WorkCounters stage1_work_snapshot_[kNumPhases];
  double phase_sec_[kNumPhases] = {0, 0, 0, 0};
};

}  // namespace dinfomap::core::detail
