// Preprocessing of the distributed Infomap (§3.3): local graph construction
// from the arc partition, flow initialization, ghost subscriptions, and
// singleton module setup.
#include <algorithm>
#include <numeric>

#include "core/dist_internal.hpp"
#include "util/check.hpp"

namespace dinfomap::core::detail {

void sum_parallel_arcs(std::vector<CoarseArc>& arcs) {
  std::stable_sort(arcs.begin(), arcs.end(),
                   [](const CoarseArc& a, const CoarseArc& b) {
                     return a.source != b.source ? a.source < b.source
                                                 : a.target < b.target;
                   });
  std::size_t out = 0;
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    if (out > 0 && arcs[out - 1].source == arcs[i].source &&
        arcs[out - 1].target == arcs[i].target) {
      arcs[out - 1].flow += arcs[i].flow;
    } else {
      arcs[out++] = arcs[i];
    }
  }
  arcs.resize(out);
}

DistRank::DistRank(comm::Comm& comm, const partition::ArcPartition& part,
                   const DistInfomapConfig& cfg, obs::Recorder* recorder)
    : comm_(comm), cfg_(cfg), recorder_(recorder) {
  // Bootstrap guard: a multi-process worker handed a config whose rank
  // count disagrees with the live transport would address vertices
  // (v mod p) inconsistently with its peers — fail loudly before any
  // traffic, not with a hung collective.
  DINFOMAP_REQUIRE_MSG(cfg_.num_ranks == comm_.size(),
                       "DistRank bootstrap: cfg.num_ranks ("
                           << cfg_.num_ranks << ") != comm size ("
                           << comm_.size() << ")");
  exact_hubs_ = cfg_.exact_hub_moves;
  if (recorder_ != nullptr) {
    trace_buf_ = recorder_->track(comm_.rank());
    metrics_ = recorder_->metrics(comm_.rank());
  }
  if (cfg_.module_table_max_load_pct > 0 &&
      cfg_.module_table_max_load_pct < 100) {
    const auto pct = static_cast<std::size_t>(cfg_.module_table_max_load_pct);
    modules_.set_max_load(pct, 100);
  }
  obs::SpanScope span(trace_buf_, "Setup");
  setup_stage1(part);
}

void DistRank::setup_stage1(const partition::ArcPartition& part) {
  const int r = comm_.rank();
  n0_ = static_cast<VertexId>(part.is_delegate.size());

  // Total arc weight (= 2W) from everyone's held arcs.
  double local_w = 0;
  for (const auto& arc : part.rank_arcs[r]) local_w += arc.weight;
  const double two_w = comm_.allreduce(local_w, comm::ReduceOp::kSum);
  DINFOMAP_REQUIRE_MSG(two_w > 0, "distributed infomap: graph has no edges");

  std::vector<CoarseArc> triples;
  triples.reserve(part.rank_arcs[r].size());
  for (const auto& arc : part.rank_arcs[r])
    triples.push_back({arc.source, arc.target, arc.weight / two_w});
  build_local_graph(triples);

  // Kinds.
  for (auto& lv : verts_) {
    if (part.delegate(lv.global))
      lv.kind = Kind::kDelegate;
    else if (owner_of(lv.global) == r)
      lv.kind = Kind::kOwned;
    else
      lv.kind = Kind::kGhost;
  }

  // Hub flows are spread over ranks; reduce them to exact global values.
  std::vector<VertexId> hub_ids;
  for (VertexId v = 0; v < n0_; ++v)
    if (part.delegate(v)) hub_ids.push_back(v);
  std::vector<double> hub_flow(hub_ids.size(), 0.0);
  for (std::size_t i = 0; i < hub_ids.size(); ++i) {
    auto it = index_.find(hub_ids[i]);
    if (it != index_.end()) hub_flow[i] = verts_[it->second].out_flow;
  }
  hub_flow = comm_.allreduce(hub_flow, comm::ReduceOp::kSum);

  // Node flows: owned-low vertices hold their full adjacency, so the local
  // out-flow is already exact; hubs take the reduced value.
  movable_.clear();
  hubs_.clear();
  for (std::uint32_t li = 0; li < verts_.size(); ++li) {
    auto& lv = verts_[li];
    if (lv.kind == Kind::kOwned) {
      lv.node_flow = lv.out_flow;
      movable_.push_back(li);
    } else if (lv.kind == Kind::kGhost) {
      lv.node_flow = 0;  // never needed locally
    }
  }
  for (std::size_t i = 0; i < hub_ids.size(); ++i) {
    auto it = index_.find(hub_ids[i]);
    if (it == index_.end()) continue;
    auto& lv = verts_[it->second];
    lv.out_flow = hub_flow[i];
    lv.node_flow = hub_flow[i];
    movable_.push_back(it->second);
    hubs_.push_back(it->second);
  }

  // Level-0 node term: each vertex counted once, at its owner.
  double term = 0;
  for (const auto& lv : verts_)
    if (owner_of(lv.global) == r && lv.kind != Kind::kGhost)
      term += plogp(lv.node_flow);
  node_term_ = comm_.allreduce(term, comm::ReduceOp::kSum);
}

void DistRank::build_local_graph(std::vector<CoarseArc>& triples) {
  const auto r = static_cast<VertexId>(comm_.rank());
  const auto p = static_cast<VertexId>(comm_.size());

  sum_parallel_arcs(triples);

  // Vertex universe: arc endpoints plus every vertex owned here (so isolated
  // owned vertices stay addressable and countable).
  std::vector<VertexId> ids;
  ids.reserve(triples.size() * 2 + n0_ / p + 1);
  for (const auto& t : triples) {
    ids.push_back(t.source);
    ids.push_back(t.target);
  }
  for (VertexId v = r; v < n0_; v += p) ids.push_back(v);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

  verts_.clear();
  verts_.resize(ids.size());
  index_.clear();
  index_.reserve(ids.size());
  for (std::uint32_t i = 0; i < ids.size(); ++i) {
    verts_[i].global = ids[i];
    verts_[i].module = ids[i];
    index_.emplace(ids[i], i);
  }

  // Group arcs by source (the input is self-loop-free; the drivers check).
  arc_off_.assign(verts_.size() + 1, 0);
  for (const auto& t : triples) ++arc_off_[index_.at(t.source) + 1];
  for (std::size_t i = 1; i < arc_off_.size(); ++i) arc_off_[i] += arc_off_[i - 1];
  arcs_.assign(arc_off_.back(), {});
  std::vector<std::uint32_t> cursor(arc_off_.begin(), arc_off_.end() - 1);
  for (const auto& t : triples) {
    const std::uint32_t si = index_.at(t.source);
    arcs_[cursor[si]++] = {index_.at(t.target), t.flow};
  }
  for (std::uint32_t li = 0; li < verts_.size(); ++li) {
    double f = 0;
    for (std::uint32_t a = arc_off_[li]; a < arc_off_[li + 1]; ++a)
      f += arcs_[a].flow;
    verts_[li].out_flow = f;
  }
}

void DistRank::setup_subscriptions() {
  const int p = comm_.size();
  // Tell each ghost's owner that we read it.
  std::vector<std::vector<SubscribeRequest>> requests(p);
  for (const auto& lv : verts_)
    if (lv.kind == Kind::kGhost)
      requests[owner_of(lv.global)].push_back({lv.global});
  auto incoming = comm_.alltoallv(requests);

  subscribers_.clear();
  for (int src = 0; src < p; ++src) {
    for (const SubscribeRequest& req : incoming[src]) {
      auto it = index_.find(req.vertex);
      DINFOMAP_REQUIRE_MSG(it != index_.end(),
                           "subscription for a vertex the owner does not hold");
      subscribers_[it->second].push_back(src);
    }
  }
}

void DistRank::init_singleton_modules() {
  // Module ids are vertex ids. Local estimates until the first swap
  // replaces them.
  for (auto& lv : verts_) {
    lv.module = lv.global;
    if (lv.kind == Kind::kGhost) continue;
    ModuleStats& stats = write_module(static_cast<ModuleId>(lv.global));
    stats.sum_pr = lv.node_flow;
    stats.exit_pr = lv.out_flow;
    stats.num_members = 1;
  }
}

}  // namespace dinfomap::core::detail
