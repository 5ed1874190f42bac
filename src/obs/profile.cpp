#include "obs/profile.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>

#include "util/logging.hpp"

namespace dinfomap::obs {

namespace {

bool is_recv_wait(const TraceEvent& e) {
  return std::strcmp(e.name, "recv_wait") == 0;
}

/// One rank's participation in one collective instance.
struct Participation {
  int rank = 0;
  double arrive = 0;
  double depart = 0;
  const char* phase = "";
};

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string num(double v) {
  std::ostringstream os;
  os.precision(17);  // round-trip exact, same discipline as the run report
  os << v;
  return os.str();
}

void append_histogram(std::ostream& os, const Histogram& h) {
  os << "{\"count\": " << h.count() << ", \"max\": " << h.max()
     << ", \"mean\": " << num(h.mean()) << ", \"p50\": " << num(h.p50())
     << ", \"p90\": " << num(h.p90()) << ", \"p99\": " << num(h.p99())
     << ", \"sum\": " << h.sum() << "}";
}

}  // namespace

ProfileDigest build_profile(const Trace& trace) {
  ProfileDigest d;
  const int p = trace.num_tracks();
  d.num_ranks = p;
  d.ranks.resize(static_cast<std::size_t>(p));

  // ---- pass 1: per-rank linear scans ------------------------------------
  // Wall/wait/comm decomposition, plus collective-instance participation
  // keyed by (tag, per-rank occurrence index) — the same collective call has
  // the same tag and the same occurrence count on every rank, so the key
  // pairs ranks correctly even if the 2^20 tag window ever wrapped.
  std::map<std::pair<int, std::uint64_t>, std::vector<Participation>> instances;
  double global_first = std::numeric_limits<double>::infinity();
  double global_last = -std::numeric_limits<double>::infinity();
  bool any_events = false;

  for (int r = 0; r < p; ++r) {
    const auto& ev = trace.track(r).events();
    RankProfile& rp = d.ranks[static_cast<std::size_t>(r)];
    rp.rank = r;
    if (ev.empty()) continue;
    any_events = true;
    const double first = ev.front().ts_us;
    const double last = ev.back().ts_us;
    rp.wall_us = last - first;
    global_first = std::min(global_first, first);
    global_last = std::max(global_last, last);

    std::vector<const char*> span_stack;
    int wait_depth = 0;
    double wait_open = 0;
    bool wait_serial = false;  // the open wait sits directly in kSerialSpan
    double wait_total = 0;
    double serial_total = 0;
    double wait_in_coll = 0;
    int coll_depth = 0;
    double coll_open = 0;
    double coll_total = 0;
    std::map<int, std::uint64_t> occurrence;  // collective tag -> call count
    struct OpenCollective {
      std::pair<int, std::uint64_t> key;
      double arrive = 0;
      const char* phase = "";
    };
    std::vector<OpenCollective> open_coll;

    for (const TraceEvent& e : ev) {
      switch (e.kind) {
        case TraceEvent::Kind::kBegin:
          if (is_recv_wait(e)) {
            if (wait_depth++ == 0) {
              wait_open = e.ts_us;
              wait_serial = !span_stack.empty() &&
                            std::strcmp(span_stack.back(), kSerialSpan) == 0;
            }
          } else {
            span_stack.push_back(e.name);
          }
          break;
        case TraceEvent::Kind::kEnd:
          if (is_recv_wait(e)) {
            if (wait_depth > 0 && --wait_depth == 0) {
              const double w = e.ts_us - wait_open;
              wait_total += w;
              if (wait_serial) serial_total += w;
              if (coll_depth > 0) wait_in_coll += w;
            }
          } else if (!span_stack.empty()) {
            span_stack.pop_back();
          }
          break;
        case TraceEvent::Kind::kCollectiveArrive: {
          OpenCollective oc;
          oc.key = {e.tag, occurrence[e.tag]++};
          oc.arrive = e.ts_us;
          oc.phase = span_stack.empty() ? "(top)" : span_stack.back();
          open_coll.push_back(oc);
          if (coll_depth++ == 0) coll_open = e.ts_us;
          break;
        }
        case TraceEvent::Kind::kCollectiveDepart: {
          if (!open_coll.empty()) {
            const OpenCollective oc = open_coll.back();
            open_coll.pop_back();
            instances[oc.key].push_back({r, oc.arrive, e.ts_us, oc.phase});
          }
          if (coll_depth > 0 && --coll_depth == 0)
            coll_total += e.ts_us - coll_open;
          break;
        }
        default:
          break;
      }
    }
    // A rank that died inside a receive (fault abort) leaves the span open;
    // charge the remainder of its track as wait.
    if (wait_depth > 0) {
      wait_total += last - wait_open;
      if (wait_serial) serial_total += last - wait_open;
      if (coll_depth > 0) wait_in_coll += last - wait_open;
    }
    if (coll_depth > 0) coll_total += last - coll_open;

    rp.wait_us = wait_total;
    rp.serial_wait_us = serial_total;
    rp.comm_us = std::max(0.0, coll_total - wait_in_coll);
    rp.compute_us = std::max(0.0, rp.wall_us - rp.wait_us - rp.comm_us);
    rp.busy_us = std::max(0.0, rp.wall_us - rp.wait_us);
  }
  d.wall_us = any_events ? global_last - global_first : 0.0;

  // ---- collective wait / straggler attribution --------------------------
  // For every instance: wait_r = clamp(min(depart_r, last_arrival) −
  // arrive_r, ≥ 0), i.e. the time rank r spent ahead of the last arriver.
  // The instance's total wait is charged to that last arriver ("caused"),
  // and the instance is attributed to the enclosing span name.
  std::map<std::string, PhaseProfile> phase_map;
  for (const auto& [key, parts] : instances) {
    double max_arr = -std::numeric_limits<double>::infinity();
    double min_arr = std::numeric_limits<double>::infinity();
    int straggler = -1;
    for (const Participation& pa : parts) {
      if (pa.arrive > max_arr) {
        max_arr = pa.arrive;
        straggler = pa.rank;
      }
      min_arr = std::min(min_arr, pa.arrive);
    }
    double inst_wait = 0;
    double inst_span = 0;
    for (const Participation& pa : parts) {
      const double w =
          std::max(0.0, std::min(pa.depart, max_arr) - pa.arrive);
      inst_wait += w;
      inst_span += pa.depart - pa.arrive;
      d.ranks[static_cast<std::size_t>(pa.rank)].collective_wait_us += w;
    }
    PhaseProfile& agg = phase_map[parts.front().phase];
    if (agg.caused_wait_us.empty())
      agg.caused_wait_us.assign(static_cast<std::size_t>(p), 0.0);
    agg.instances += 1;
    agg.wait_us += inst_wait;
    agg.span_us += inst_span;
    const double skew = max_arr - min_arr;
    if (skew > agg.max_skew_us) {
      agg.max_skew_us = skew;
      agg.worst_rank = straggler;
    }
    if (straggler >= 0)
      agg.caused_wait_us[static_cast<std::size_t>(straggler)] += inst_wait;
  }
  for (auto& [name, agg] : phase_map) {
    agg.name = name;
    d.phases.push_back(std::move(agg));
  }
  std::sort(d.phases.begin(), d.phases.end(),
            [](const PhaseProfile& a, const PhaseProfile& b) {
              if (a.wait_us != b.wait_us) return a.wait_us > b.wait_us;
              return a.name < b.name;
            });

  // ---- pass 2: merged timestamp-order scan ------------------------------
  // All tracks share one steady_clock epoch, so the global timestamp order
  // is a valid linearization. Per-rank critical path advances by active
  // (non-blocked) time; a flow edge splices the sender's chain into the
  // receiver's. Collectives need no extra edges — they decompose into the
  // p2p transport messages already stamped as flows.
  struct Ref {
    double ts;
    int rank;
    std::size_t idx;
  };
  std::vector<Ref> order;
  std::size_t total_events = 0;
  for (int r = 0; r < p; ++r) total_events += trace.track(r).events().size();
  order.reserve(total_events);
  for (int r = 0; r < p; ++r) {
    const auto& ev = trace.track(r).events();
    for (std::size_t i = 0; i < ev.size(); ++i)
      order.push_back({ev[i].ts_us, r, i});
  }
  std::sort(order.begin(), order.end(), [](const Ref& a, const Ref& b) {
    return std::tie(a.ts, a.rank, a.idx) < std::tie(b.ts, b.rank, b.idx);
  });

  std::vector<double> cp(static_cast<std::size_t>(p), 0.0);
  std::vector<double> last_ts(static_cast<std::size_t>(p), 0.0);
  std::vector<int> wait_depth(static_cast<std::size_t>(p), 0);
  std::vector<bool> started(static_cast<std::size_t>(p), false);
  struct SendInfo {
    double cp = 0;
    double ts = 0;
  };
  std::map<std::tuple<int, int, int, std::uint64_t>, SendInfo> sends;
  struct ChannelAgg {
    std::uint64_t messages = 0;
    std::uint64_t in_flight = 0;
    std::uint64_t max_in_flight = 0;
    Histogram latency;
  };
  std::map<std::pair<int, int>, ChannelAgg> channels;

  for (const Ref& ref : order) {
    const std::size_t r = static_cast<std::size_t>(ref.rank);
    const TraceEvent& e = trace.track(ref.rank).events()[ref.idx];
    const double t = e.ts_us;
    if (!started[r]) {
      started[r] = true;
      last_ts[r] = t;
    }
    if (wait_depth[r] == 0) cp[r] += t - last_ts[r];
    last_ts[r] = t;
    switch (e.kind) {
      case TraceEvent::Kind::kBegin:
        if (is_recv_wait(e)) ++wait_depth[r];
        break;
      case TraceEvent::Kind::kEnd:
        if (is_recv_wait(e) && wait_depth[r] > 0) --wait_depth[r];
        break;
      case TraceEvent::Kind::kFlowSend: {
        sends[{ref.rank, e.peer, e.tag, e.ordinal}] = {cp[r], t};
        ChannelAgg& ch = channels[{ref.rank, e.peer}];
        if (++ch.in_flight > ch.max_in_flight) ch.max_in_flight = ch.in_flight;
        break;
      }
      case TraceEvent::Kind::kFlowRecv: {
        const auto it = sends.find({e.peer, ref.rank, e.tag, e.ordinal});
        if (it != sends.end()) {
          cp[r] = std::max(cp[r], it->second.cp);
          ChannelAgg& ch = channels[{e.peer, ref.rank}];
          ch.messages += 1;
          const double lat = std::max(0.0, t - it->second.ts);
          ch.latency.observe(static_cast<std::uint64_t>(std::llround(lat)));
          if (ch.in_flight > 0) --ch.in_flight;
          sends.erase(it);
        } else {
          d.unmatched_recvs += 1;
        }
        break;
      }
      default:
        break;
    }
  }
  for (int r = 0; r < p; ++r)
    d.critical_path_us =
        std::max(d.critical_path_us, cp[static_cast<std::size_t>(r)]);
  d.unmatched_sends = sends.size();
  for (const auto& [key, agg] : channels) {
    ChannelProfile ch;
    ch.src = key.first;
    ch.dst = key.second;
    ch.messages = agg.messages;
    ch.max_in_flight = agg.max_in_flight;
    ch.latency_us = agg.latency;
    d.messages += agg.messages;
    d.channels.push_back(std::move(ch));
  }
  return d;
}

std::vector<Anomaly> analyze_profile(const ProfileDigest& digest,
                                     const WatchdogOptions& options) {
  std::vector<Anomaly> out;
  for (const RankProfile& rp : digest.ranks) {
    // Waiting for the rank that works alone in kSerialSpan is by design:
    // judge the rest of the rank's wall time.
    const double wall = rp.wall_us - rp.serial_wait_us;
    if (wall < options.min_profile_wall_us) continue;
    const double frac =
        wall > 0 ? (rp.wait_us - rp.serial_wait_us) / wall : 0.0;
    if (frac > options.wait_dominated_threshold) {
      std::ostringstream os;
      os.precision(4);
      os << "rank " << rp.rank << " spent " << 100.0 * frac << "% of its "
         << wall / 1000.0 << " ms wall blocked in receives";
      out.push_back({rp.rank, 0, 0, "wait_dominated", os.str()});
    }
  }
  for (const PhaseProfile& ph : digest.phases) {
    if (ph.name == kSerialSpan) continue;
    if (ph.wait_us < options.min_straggler_wait_us) continue;
    int culprit = -1;
    double caused = 0;
    for (std::size_t r = 0; r < ph.caused_wait_us.size(); ++r) {
      if (ph.caused_wait_us[r] > caused) {
        caused = ph.caused_wait_us[r];
        culprit = static_cast<int>(r);
      }
    }
    if (culprit >= 0 && caused > options.straggler_skew_share * ph.wait_us) {
      std::ostringstream os;
      os.precision(4);
      os << "rank " << culprit << " caused " << 100.0 * caused / ph.wait_us
         << "% of the " << ph.wait_us / 1000.0 << " ms collective wait in "
         << ph.name << " (" << ph.instances << " collectives, max skew "
         << ph.max_skew_us / 1000.0 << " ms)";
      out.push_back({culprit, 0, 0, "straggler_skew", os.str()});
    }
  }
  return out;
}

std::string ProfileDigest::to_json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\n\"channels\": [";
  for (std::size_t i = 0; i < channels.size(); ++i) {
    const ChannelProfile& ch = channels[i];
    if (i) os << ", ";
    os << "{\"dst\": " << ch.dst << ", \"latency_us\": ";
    append_histogram(os, ch.latency_us);
    os << ", \"max_in_flight\": " << ch.max_in_flight
       << ", \"messages\": " << ch.messages << ", \"src\": " << ch.src << "}";
  }
  os << "],\n";
  os << "\"critical_path_us\": " << num(critical_path_us) << ",\n";
  os << "\"messages\": " << messages << ",\n";
  os << "\"num_ranks\": " << num_ranks << ",\n";
  os << "\"phases\": [";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseProfile& ph = phases[i];
    if (i) os << ", ";
    os << "{\"caused_wait_us\": [";
    for (std::size_t r = 0; r < ph.caused_wait_us.size(); ++r) {
      if (r) os << ", ";
      os << num(ph.caused_wait_us[r]);
    }
    os << "], \"instances\": " << ph.instances
       << ", \"max_skew_us\": " << num(ph.max_skew_us) << ", \"name\": \""
       << escape(ph.name) << "\", \"span_us\": " << num(ph.span_us)
       << ", \"wait_us\": " << num(ph.wait_us)
       << ", \"worst_rank\": " << ph.worst_rank << "}";
  }
  os << "],\n";
  os << "\"ranks\": [";
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const RankProfile& rp = ranks[i];
    if (i) os << ", ";
    os << "{\"busy_us\": " << num(rp.busy_us)
       << ", \"collective_wait_us\": " << num(rp.collective_wait_us)
       << ", \"comm_us\": " << num(rp.comm_us)
       << ", \"compute_us\": " << num(rp.compute_us)
       << ", \"rank\": " << rp.rank
       << ", \"serial_wait_us\": " << num(rp.serial_wait_us)
       << ", \"wait_us\": " << num(rp.wait_us)
       << ", \"wall_us\": " << num(rp.wall_us) << "}";
  }
  os << "],\n";
  os << "\"schema\": \"" << escape(schema) << "\",\n";
  os << "\"unmatched_recvs\": " << unmatched_recvs << ",\n";
  os << "\"unmatched_sends\": " << unmatched_sends << ",\n";
  os << "\"wall_us\": " << num(wall_us) << "\n}\n";
  return os.str();
}

bool ProfileDigest::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    LOG_WARN << "profile: cannot open " << path << " for writing";
    return false;
  }
  out << to_json();
  return static_cast<bool>(out);
}

}  // namespace dinfomap::obs
