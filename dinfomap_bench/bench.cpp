// dinfomap_bench: end-to-end and per-layer benchmark of distributed Infomap
// against sequential Infomap, on the hardware it runs on.
//
//   dinfomap_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --cli <dinfomap_cli> --work-dir <dir> [--commit <id>]
//
// Each run generates the workload's stand-ins (see Workload::stand_ins)
// from the frozen io/datasets.cpp parameters with seeds derived from --seed.
// For each one it sets up (CSR, delegate partitions at p = 1 and 4, and for
// the socket workload the blockgraph pack) several times, then repeats
// rounds of sequential, p=1 and p=4 clustering and a yardstick, rotating
// their order, for its share of `--seconds`; the first stand-in is preceded
// by one discarded warm-up call per configuration. Clustering times are
// given as median CPU time in yardstick sweeps (see Meter and Yardstick);
// wall and CPU seconds are reported beside them. Every metric is the mean
// over the stand-ins.
// Every clustering output is checked (coverage, recomputed codelength,
// bit-identical repeats, socket == in-process). The last stdout line is one
// JSON object: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1 (which adds flight-recorder runs at p=4 and times the
// validate_partition calls). The line before it carries host context and
// each timing's spread.
//
// Workloads (why each one is here):
//  - lfr-youtube: stage 1 dominates and stage 2 runs few levels, so it shows
//    move search, min-label and level-close work; it bypasses the stage-2
//    crossover. Largest quality gap at p=4.
//  - rmat-webbase: heavy hub tail exercises delegates; SwapBoundaryInfo is
//    the largest phase and stage 2 runs to the level cap at p=4, so it shows
//    incremental swap and the stage-2 crossover. Quality should barely move.
//  - rmat-uk-socket: the distributed runs are dinfomap_cli socket-transport
//    worker processes reading the packed graph through mmap and a decode
//    cache smaller than the packed file, so comm goes through real Unix
//    sockets and each rank is its own process. A gain bought on
//    in-process/resident that costs the out-of-core deployment shows here.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/dist_infomap.hpp"
#include "core/flowgraph.hpp"
#include "core/seq_infomap.hpp"
#include "graph/blockgraph/blockgraph.hpp"
#include "graph/blockgraph/writer.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "io/clustering_io.hpp"
#include "io/datasets.hpp"
#include "json.hpp"
#include "partition/arc_partition.hpp"
#include "partition/metrics.hpp"
#include "quality/metrics.hpp"
#include "socket_launcher.hpp"

namespace dinfomap_bench {
namespace {

namespace core = dinfomap::core;
namespace graph = dinfomap::graph;
namespace partition = dinfomap::partition;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- workloads -------------------------------------------------------------

struct Workload {
  const char* name;
  const char* dataset;  ///< io registry key whose generator parameters it uses
  bool socket;
  /// Stand-ins measured per run (seeds seed, seed + kStandInSeedStride, ...);
  /// every metric is their mean, which keeps runs with different seeds
  /// comparable. From seed to seed the LFR stand-in's planted power-law
  /// communities move its L by ~1.5% and its sequential time by ~13%; the
  /// R-MAT stand-ins' times move by ~5-10%.
  int stand_ins;
};

constexpr std::array<Workload, 3> kWorkloads = {{
    {"lfr-youtube", "youtube", false, 10},
    {"rmat-webbase", "webbase2001", false, 4},
    {"rmat-uk-socket", "uk2005", true, 3},
}};
constexpr std::uint64_t kStandInSeedStride = 1000003;

/// The stand-in generator of io::load_dataset with the seed exposed. The
/// parameters are frozen copies of io/datasets.cpp; main() checks that the
/// registry seed still reproduces load_dataset bit for bit.
graph::gen::GeneratedGraph generate(const std::string& dataset,
                                    std::uint64_t seed) {
  if (dataset == "youtube") {
    graph::gen::LfrLiteParams p;
    p.n = 20000;
    p.mixing = 0.30;
    p.min_degree = 4;
    p.max_degree = 400;
    p.min_community = 16;
    p.max_community = 400;
    return graph::gen::lfr_lite(p, seed);
  }
  if (dataset == "webbase2001")
    return graph::gen::rmat(16, 6, 0.55, 0.20, 0.20, seed);
  if (dataset == "uk2005")
    return graph::gen::rmat(15, 12, 0.57, 0.19, 0.19, seed);
  throw std::invalid_argument("no generator for dataset " + dataset);
}

// Set-up is repeated this many times per stand-in; setup_s is the median.
constexpr int kSetupRepeats = 3;
// Each stand-in's timed rounds run for its share of --seconds, and at least
// this many.
constexpr std::size_t kMinRounds = 3;
// The socket workload's decode-cache budget (MiB), below the packed size.
constexpr int kBlockCacheMb = 1;

// ---- options ---------------------------------------------------------------

struct Options {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 10;
  bool trace = false;
  std::string cli;
  std::string work_dir;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "dinfomap_bench: %s\n"
               "usage: dinfomap_bench --workload <name> [--seed N] "
               "[--seconds S] [--trace 0|1] --cli <path> --work-dir <dir> "
               "[--commit ID]\n",
               why.c_str());
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") o.workload = value;
      else if (flag == "--seed") o.seed = std::stoull(value);
      else if (flag == "--seconds") o.seconds = std::stod(value);
      else if (flag == "--trace") o.trace = std::stoi(value) != 0;
      else if (flag == "--cli") o.cli = value;
      else if (flag == "--work-dir") o.work_dir = value;
      else if (flag == "--commit") o.commit = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (o.cli.empty() || o.work_dir.empty()) usage("--cli and --work-dir are required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

// ---- statistics ------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Process CPU seconds (every thread, exited ones included). Unlike wall
/// time it leaves out the time ranks sleep in a collective waiting for a
/// descheduled peer and, on a guest kernel that accounts steal time
/// (CONFIG_PARAVIRT_TIME_ACCOUNTING), the time the hypervisor stole.
double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Aggregate CPU ticks and hypervisor-stolen ticks from /proc/stat (zeros
/// where unreadable).
std::pair<double, double> stat_ticks() {
  std::pair<double, double> t{0, 0};
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.first += static_cast<double>(x);
    t.second = static_cast<double>(v[7]);
  }
  std::fclose(f);
  return t;
}

/// One timed operation.
struct Sample {
  double wall_s = 0;
  double cpu_s = 0;  ///< CPU time it used, see process_cpu_s
  double steal = 0;  ///< share of all CPU time the hypervisor stole meanwhile
};

/// Times one operation from construction to sample(). On a shared host p=4
/// wall time tracks steal (one call: 1.25 s at 0% steal, 2.9 s at 22%), and
/// so do whole runs, minutes apart; its CPU time does not.
class Meter {
 public:
  Meter() : wall0_(Clock::now()), cpu0_(process_cpu_s()), ticks0_(stat_ticks()) {}
  [[nodiscard]] Sample sample() const {
    const auto ticks = stat_ticks();
    const double total = ticks.first - ticks0_.first;
    return {seconds_since(wall0_), process_cpu_s() - cpu0_,
            total > 0 ? (ticks.second - ticks0_.second) / total : 0.0};
  }

 private:
  Clock::time_point wall0_;
  double cpu0_;
  std::pair<double, double> ticks0_;
};

std::vector<double> walls_of(const std::vector<Sample>& samples) {
  std::vector<double> v;
  for (const Sample& x : samples) v.push_back(x.wall_s);
  return v;
}

std::vector<double> cpus_of(const std::vector<Sample>& samples) {
  std::vector<double> v;
  for (const Sample& x : samples) v.push_back(x.cpu_s);
  return v;
}

/// The sample with the (lower) median wall time: a real call, for
/// attribution.
std::size_t median_index(const std::vector<Sample>& samples) {
  std::vector<std::size_t> idx(samples.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return samples[a].wall_s < samples[b].wall_s;
  });
  return idx[(idx.size() - 1) / 2];
}

struct Spread {
  double median = 0, min = 0, max = 0, q1 = 0, q3 = 0;
};

/// Quartiles by Python's statistics.quantiles(n=4) ("exclusive" method).
Spread spread_of(std::vector<double> v) {
  Spread s;
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.median = median(v);
  s.min = v.front();
  s.max = v.back();
  if (v.size() < 2) {
    s.q1 = s.q3 = v.front();
    return s;
  }
  const auto quartile = [&](long i) {
    const long len = static_cast<long>(v.size());
    const long j = std::clamp((len + 1) * i / 4, 1L, len - 1);
    const double delta = static_cast<double>((len + 1) * i - j * 4);
    return (v[static_cast<std::size_t>(j - 1)] * (4 - delta) +
            v[static_cast<std::size_t>(j)] * delta) / 4;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

// ---- correctness ledger ----------------------------------------------------

/// Counts checked operations (set-ups, clustering calls, partition audits)
/// and the ones whose output failed a check.
struct Ledger {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> errors;

  void record(const std::string& problem) {
    ++attempted;
    if (problem.empty()) return;
    ++failed;
    if (errors.size() < 16) errors.push_back(problem);
  }
};

struct Reference {
  double codelength = 0;
  graph::Partition assignment;
};

/// Output checks on clustering results. The first output of each
/// configuration is the reference its repeats must match bit for bit.
class OutputCheck {
 public:
  OutputCheck(const core::FlowGraph& fg, graph::VertexId n, Ledger& ledger)
      : fg_(fg), n_(n), ledger_(ledger) {}

  /// Why `assignment` fails a check, or "" when it passes. `must_equal`,
  /// when given, is another backend's output it has to reproduce exactly.
  std::string problem(const std::string& config,
                      const graph::Partition& assignment, double codelength,
                      const Reference* must_equal = nullptr) {
    const auto [ref, fresh] =
        refs_.try_emplace(config, Reference{codelength, assignment});
    if (assignment.size() != n_)
      return config + ": assignment has " + std::to_string(assignment.size()) +
             " entries for " + std::to_string(n_) + " vertices";
    for (graph::VertexId m : assignment)
      if (m >= n_) return config + ": module id out of range";
    const double recomputed = core::codelength_of_partition(fg_, assignment);
    if (!(std::abs(recomputed - codelength) <= 1e-9 * std::abs(codelength)))
      return config + ": reported L " + std::to_string(codelength) +
             " but recomputed " + std::to_string(recomputed);
    if (must_equal != nullptr && must_equal->assignment != assignment)
      return config + ": differs from the in-process result";
    if (!fresh && (std::bit_cast<std::uint64_t>(ref->second.codelength) !=
                       std::bit_cast<std::uint64_t>(codelength) ||
                   ref->second.assignment != assignment))
      return config + ": repeat is not bit-identical to the first run";
    return {};
  }

  void check(const std::string& config, const graph::Partition& assignment,
             double codelength, const Reference* must_equal = nullptr) {
    ledger_.record(problem(config, assignment, codelength, must_equal));
  }

  /// The first output of `config`.
  [[nodiscard]] const Reference& reference(const std::string& config) const {
    return refs_.at(config);
  }

 private:
  const core::FlowGraph& fg_;
  graph::VertexId n_;
  Ledger& ledger_;
  std::map<std::string, Reference> refs_;
};

// ---- set-up ----------------------------------------------------------------

struct Setup {
  graph::Csr csr;
  partition::ArcPartition part1, part4;
  std::string packed_path;  ///< socket workload only
  std::uint64_t edges_fingerprint = 0;
  graph::EdgeList edges;  ///< the generated edges, for the yardstick
  std::vector<Sample> total;
  std::vector<double> generate_s, csr_s, delegate_p4_s, pack_s;
};

/// FNV-1a over the bytes of `v` (Edge and Arc are padding-free).
template <class T>
std::uint64_t fingerprint(const std::vector<T>& v, std::uint64_t h) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(T); ++i)
    h = (h ^ bytes[i]) * 0x100000001b3ULL;
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

partition::ArcPartition delegate_partition(const graph::Csr& csr, int p) {
  core::DistInfomapConfig cfg;
  cfg.num_ranks = p;
  return partition::make_delegate(csr, p,
                                  core::resolve_degree_threshold(csr, cfg));
}

/// Runs the whole set-up kSetupRepeats times and checks that every repeat
/// rebuilds the same graph and partitions. Each repeat frees the previous
/// one first, so set-up never holds two copies.
Setup run_setup(const Workload& w, std::uint64_t seed, const Options& opt,
                Ledger& ledger) {
  Setup s;
  std::uint64_t first = 0;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    s.csr = {};
    s.part1 = {};
    s.part4 = {};
    const Meter meter;
    const auto t0 = Clock::now();
    auto gen = generate(w.dataset, seed);
    const double t_gen = seconds_since(t0);
    auto t = Clock::now();
    s.csr = graph::build_csr(gen.edges, gen.num_vertices);
    const double t_csr = seconds_since(t);
    t = Clock::now();
    s.part4 = delegate_partition(s.csr, 4);
    const double t_p4 = seconds_since(t);
    s.part1 = delegate_partition(s.csr, 1);
    double t_pack = 0;
    if (w.socket) {
      t = Clock::now();
      s.packed_path = opt.work_dir + "/graph.blockgraph";
      (void)graph::blockgraph::write_block_file(s.packed_path, s.csr);
      t_pack = seconds_since(t);
    }
    s.total.push_back(meter.sample());
    s.generate_s.push_back(t_gen);
    s.csr_s.push_back(t_csr);
    s.delegate_p4_s.push_back(t_p4);
    s.pack_s.push_back(t_pack);

    s.edges_fingerprint = fingerprint(gen.edges, kFnvBasis);
    std::uint64_t fp = s.edges_fingerprint;
    for (const auto* part : {&s.part1, &s.part4})
      for (const auto& arcs : part->rank_arcs) fp = fingerprint(arcs, fp);
    if (rep == 0) first = fp;
    else ledger.record(fp == first ? "" : "set-up repeat built a different graph or partition");
    s.edges = std::move(gen.edges);
  }
  return s;
}

// ---- yardstick -------------------------------------------------------------

/// Arcs one yardstick sample scans (~60 ms on a 2.1 GHz Xeon).
constexpr double kYardstickArcs = 5e7;

/// A fixed amount of graph work timed alongside the program, so that its
/// times can be given in units of the host's current speed: on a shared host
/// the CPU time of the same call drifts by ~35% over minutes, alike for
/// set-up, sequential and distributed runs, with no steal to show for it.
/// Each sample runs pull-style PageRank sweeps over the stand-in's generated
/// edges, held in arrays of this file's own layout, so that no change to the
/// library's graph layer or vertex order can speed it up.
class Yardstick {
 public:
  Yardstick(const graph::EdgeList& edges, graph::VertexId n)
      : offsets_(n + 1, 0), inv_degree_(n, 0.0), rank_(n, 1.0 / n), next_(n) {
    for (const graph::Edge& e : edges)
      if (e.u != e.v) {
        ++offsets_[e.u + 1];
        ++offsets_[e.v + 1];
      }
    for (graph::VertexId v = 0; v < n; ++v) offsets_[v + 1] += offsets_[v];
    targets_.resize(offsets_[n]);
    weights_.resize(offsets_[n]);
    std::vector<std::uint64_t> fill(offsets_.begin(), offsets_.end() - 1);
    for (const graph::Edge& e : edges)
      if (e.u != e.v) {
        targets_[fill[e.u]] = e.v;
        weights_[fill[e.u]++] = e.w;
        targets_[fill[e.v]] = e.u;
        weights_[fill[e.v]++] = e.w;
        inv_degree_[e.u] += e.w;
        inv_degree_[e.v] += e.w;
      }
    for (double& d : inv_degree_) d = d > 0 ? 1.0 / d : 0.0;
    sweeps_ = std::max(1, static_cast<int>(std::ceil(
                              kYardstickArcs / static_cast<double>(std::max<std::size_t>(1, targets_.size())))));
  }

  [[nodiscard]] int sweeps() const { return sweeps_; }

  /// Runs sweeps() sweeps from the uniform vector; returns the rank mass,
  /// which stays in (0, 1] (dangling vertices leak some).
  double run() {
    const std::size_t n = rank_.size();
    std::fill(rank_.begin(), rank_.end(), 1.0 / static_cast<double>(n));
    for (int s = 0; s < sweeps_; ++s) {
      for (std::size_t v = 0; v < n; ++v) next_[v] = rank_[v] * inv_degree_[v];
      for (std::size_t v = 0; v < n; ++v) {
        double acc = 0;
        for (std::uint64_t a = offsets_[v]; a < offsets_[v + 1]; ++a)
          acc += next_[targets_[a]] * weights_[a];
        rank_[v] = 0.15 / static_cast<double>(n) + 0.85 * acc;
      }
    }
    double mass = 0;
    for (double r : rank_) mass += r;
    return mass;
  }

 private:
  std::vector<std::uint64_t> offsets_;
  std::vector<std::uint32_t> targets_;
  std::vector<double> weights_, inv_degree_, rank_, next_;
  int sweeps_ = 1;
};

// ---- per-layer numbers from a run report -----------------------------------

/// What one distributed call's run report says about its layers. Times are
/// max over ranks (the rank that holds up the collective), counts are sums
/// over ranks.
struct DistLayers {
  double stage1_s = 0, stage2_s = 0;
  double find_s = 0, bcast_s = 0, swap_s = 0, other_s = 0;
  double rounds = 0, stage2_levels = 0, last_level_vertices = 0;
  double arcs_scanned = 0, delta_evals = 0, module_updates = 0;
  double comm_bytes = 0, comm_messages = 0, collective_calls = 0,
         packed_streams = 0;
  double anomalies = 0, modules = 0;
  double wait_pct = 0, critical_path_s = 0;
  double bg_hits = 0, bg_misses = 0, bg_decode_s = 0;
};

DistLayers layers_of(const Json& rep) {
  DistLayers d;
  d.stage1_s = rep["stage1"]["wall_seconds"].num();
  d.stage2_s = rep["stage2"]["wall_seconds"].num();
  d.stage2_levels = rep["stage2"]["levels"].num();
  d.modules = rep["num_modules"].num();
  for (const Json& phase : rep["phases"].array) {
    double slowest = 0;
    for (const Json& s : phase["seconds"].array) slowest = std::max(slowest, s.num());
    const std::string& name = phase["name"].string;
    if (name == "FindBestModule") d.find_s = slowest;
    else if (name == "BroadcastDelegates") d.bcast_s = slowest;
    else if (name == "SwapBoundaryInfo") d.swap_s = slowest;
    else if (name == "Other") d.other_s = slowest;
  }
  for (const Json& level : rep["levels"].array) {
    d.rounds += level["rounds"].num();
    d.last_level_vertices = level["vertices"].num();
  }
  for (const Json& stage : rep["stage_work"].array)
    for (const Json& w : stage.array) {
      d.arcs_scanned += w["arcs_scanned"].num();
      d.delta_evals += w["delta_evals"].num();
      d.module_updates += w["module_updates"].num();
    }
  for (const Json& c : rep["comm"].array) {
    d.comm_bytes += c["p2p_bytes"].num() + c["collective_bytes"].num();
    d.comm_messages += c["p2p_messages"].num() + c["collective_messages"].num();
    d.collective_calls += c["collective_calls"].num();
    d.packed_streams += c["packed_streams"].num();
  }
  d.anomalies = static_cast<double>(rep["anomalies"].array.size());
  const Json& profile = rep["profile"];
  if (profile.kind == Json::Kind::kObject) {
    d.critical_path_s = profile["critical_path_us"].num() / 1e6;
    for (const Json& r : profile["ranks"].array)
      if (r["wall_us"].num() > 0)
        d.wait_pct = std::max(d.wait_pct,
                              100.0 * r["wait_us"].num() / r["wall_us"].num());
  }
  for (const Json& m : rep["metrics"].array) {
    const Json& c = m["counters"];
    d.bg_hits += c["blockgraph.hits"].num();
    d.bg_misses += c["blockgraph.misses"].num();
    d.bg_decode_s += c["blockgraph.decode_ns"].num() / 1e9;
  }
  return d;
}

/// One distributed call: its timing and (when available) its report.
struct DistCall {
  Sample sample;
  std::optional<DistLayers> layers;
};

std::vector<Sample> samples_of(const std::vector<DistCall>& calls) {
  std::vector<Sample> out;
  for (const auto& c : calls) out.push_back(c.sample);
  return out;
}

const DistCall& median_call(const std::vector<DistCall>& calls) {
  return calls[median_index(samples_of(calls))];
}

// ---- output ----------------------------------------------------------------

class JsonObject {
 public:
  void number(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    raw(key, buf);
  }
  void string(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted.push_back('\\');
      quoted.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
    }
    raw(key, quoted + "\"");
  }
  void raw(const std::string& key, const std::string& json) {
    out_ << (first_ ? "" : ", ") << '"' << key << "\": " << json;
    first_ = false;
  }
  [[nodiscard]] std::string str() const {
    std::string s = "{";
    s += out_.str();
    s += '}';
    return s;
  }

 private:
  std::ostringstream out_;
  bool first_ = true;
};

struct Metric {
  std::string name;
  double value = 0;
  const char* unit = "";
};

/// Metrics in the order they are added.
struct MetricList {
  std::vector<Metric> items;
  void add(std::string name, double value, const char* unit) {
    items.push_back({std::move(name), value, unit});
  }
};

/// What one stand-in contributes to a run.
struct StandIn {
  MetricList metrics;   ///< end-to-end or per-layer, same order every time
  std::string detail;   ///< JSON object: graph, rounds, timing spreads
  double seq_s = 0, p1_s = 0, p4_s = 0;  ///< median CPU seconds
  double seq_wall_s = 0, p1_wall_s = 0, p4_wall_s = 0;
  double sweep_s = 0;  ///< median CPU seconds of one yardstick sweep
  double l_seq = 0, l_p1 = 0, l_p4 = 0;
};

std::string metric_json(double value, const char* unit) {
  JsonObject o;
  o.number("value", value);
  o.string("unit", unit);
  return o.str();
}

std::string spread_json(const std::vector<double>& v) {
  const Spread s = spread_of(v);
  JsonObject o;
  o.number("median", s.median);
  o.number("min", s.min);
  o.number("max", s.max);
  o.number("q1", s.q1);
  o.number("q3", s.q3);
  return o.str();
}

/// Spread of the wall and CPU times of every sample, and the steal they saw.
std::string samples_json(const std::vector<Sample>& samples) {
  std::vector<double> steal;
  for (const Sample& x : samples) steal.push_back(100.0 * x.steal);
  JsonObject o;
  o.number("n", static_cast<double>(samples.size()));
  o.raw("wall_s", spread_json(walls_of(samples)));
  o.raw("cpu_s", spread_json(cpus_of(samples)));
  o.number("steal_pct_median", median(steal));
  return o.str();
}

std::string load_average() {
  double la[3] = {0, 0, 0};
  if (::getloadavg(la, 3) != 3) return "null";
  char buf[96];
  std::snprintf(buf, sizeof buf, "[%.2f, %.2f, %.2f]", la[0], la[1], la[2]);
  return buf;
}

double self_peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---- the run ---------------------------------------------------------------

/// Sets up one stand-in, runs the warm-up if `warm_up` and timed rounds for
/// `seconds`, and returns its metrics.
StandIn measure(const Options& opt, const Workload& w, std::uint64_t seed,
                double seconds, bool warm_up, SocketLauncher* launcher,
                Ledger& ledger) {
  const auto& spec = dinfomap::io::dataset_spec(w.dataset);
  Setup setup = run_setup(w, seed, opt, ledger);
  const graph::Csr& csr = setup.csr;
  const graph::VertexId n = csr.num_vertices();
  if (seed == spec.seed)
    ledger.record(fingerprint(dinfomap::io::load_dataset(w.dataset).edges,
                              kFnvBasis) == setup.edges_fingerprint
                      ? ""
                      : "frozen parameters no longer match io::load_dataset");
  const core::FlowGraph fg = core::make_flow_graph(csr);
  OutputCheck checks(fg, n, ledger);

  const auto partition_for = [&](int p) -> const partition::ArcPartition& {
    return p == 1 ? setup.part1 : setup.part4;
  };
  const auto key = [](const char* what, int p) {
    return std::string(what) + " p" + std::to_string(p);
  };

  // ---- the calls ----------------------------------------------------------
  std::vector<Sample> seq_samples;
  std::optional<core::InfomapResult> seq_result;
  const auto run_seq = [&](bool timed) {
    const Meter meter;
    core::InfomapResult r = core::sequential_infomap(csr);
    const Sample sample = meter.sample();
    checks.check("seq", r.assignment, r.codelength);
    if (timed) seq_samples.push_back(sample);
    if (!seq_result) seq_result = std::move(r);
  };

  // dist[p][traced]: timed calls.
  std::map<std::pair<int, bool>, std::vector<DistCall>> dist;
  const auto run_inproc = [&](int p, bool traced, bool timed,
                              const graph::GraphView& view) {
    core::DistInfomapConfig cfg;
    cfg.num_ranks = p;
    cfg.obs.enabled = traced;
    const Meter meter;
    const core::DistInfomapResult r =
        core::distributed_infomap(view, partition_for(p), cfg);
    DistCall call{meter.sample(), {}};
    checks.check(key(traced ? "traced" : "dist", p), r.assignment, r.codelength,
                 traced ? &checks.reference(key("dist", p)) : nullptr);
    if (opt.trace) call.layers = layers_of(parse_json(r.report.to_json()));
    if (timed) dist[{p, traced}].push_back(call);
    return call;
  };

  const auto run_cli = [&](int p, bool traced, bool timed) {
    const std::string out = opt.work_dir + "/out.clu";
    const std::string report = opt.work_dir + "/report.json";
    std::filesystem::remove(out);
    std::filesystem::remove(report);
    SocketLauncher::Job job;
    job.exe = opt.cli;
    job.dir = opt.work_dir + "/mesh";
    job.ranks = p;
    job.args = {"cluster", setup.packed_path, out, "--algo", "dist",
                "--ranks", std::to_string(p), "--transport", "socket",
                "--graph-backend", "blocks", "--block-cache-mb",
                std::to_string(kBlockCacheMb), "--transport-dir", job.dir};
    if (traced) {
      job.args.push_back("--report");
      job.args.push_back(report);
    }
    const Meter meter;
    const SocketLauncher::Outcome o = launcher->run(job);
    DistCall call{meter.sample(), {}};
    // The work is the workers'; time it as the launcher saw it.
    call.sample.wall_s = o.wall_s;
    call.sample.cpu_s = o.cpu_s;
    const Reference& inproc = checks.reference(key("dist", p));
    std::string problem = o.ok ? "" : key("socket", p) + ": a worker exited nonzero";
    try {
      if (o.ok)
        problem = checks.problem(key("socket", p),
                                 dinfomap::io::read_clustering(out, n),
                                 inproc.codelength, &inproc);
      if (o.ok && traced) {
        const Json rep = read_json_file(report);
        call.layers = layers_of(rep);
        if (problem.empty() &&
            std::bit_cast<std::uint64_t>(rep["codelength"].num()) !=
                std::bit_cast<std::uint64_t>(inproc.codelength))
          problem = key("socket", p) + ": reported L differs from in-process";
      }
    } catch (const std::exception& e) {
      problem = key("socket", p) + ": " + e.what();
    }
    ledger.record(problem);
    if (timed) dist[{p, traced}].push_back(call);
    return call;
  };

  const auto run_dist = [&](int p, bool traced, bool timed) {
    return w.socket ? run_cli(p, traced, timed)
                    : run_inproc(p, traced, timed, graph::GraphView(csr));
  };

  Yardstick yardstick(setup.edges, n);
  std::vector<Sample> yardstick_samples;
  const auto run_yardstick = [&](bool timed) {
    const Meter meter;
    const double mass = yardstick.run();
    const Sample sample = meter.sample();
    ledger.record(mass > 0 && mass <= 1 + 1e-9 ? "" : "yardstick PageRank mass out of (0, 1]");
    if (timed) yardstick_samples.push_back(sample);
  };

  std::map<int, std::vector<double>> validate_walls;
  const auto run_validate = [&](int p) {
    const auto t0 = Clock::now();
    const bool ok = partition::validate_partition(partition_for(p), csr);
    validate_walls[p].push_back(seconds_since(t0));
    ledger.record(ok ? "" : key("validate_partition", p) + " rejected the partition");
  };

  // The socket workload's in-process runs are its untimed references.
  if (w.socket) {
    run_inproc(4, false, false, graph::GraphView(csr));
    run_inproc(1, false, false, graph::GraphView(csr));
  }
  // ---- warm-up: one discarded call per configuration, once per process ----
  // p=4 goes first so that cold_first_s is the process's first distributed
  // call (the socket workers are fresh processes every call).
  double cold_first_s = 0;
  if (warm_up) {
    cold_first_s = run_dist(4, false, false).sample.wall_s;
    run_dist(1, false, false);
    run_seq(false);
    run_yardstick(false);
    if (opt.trace) {
      run_dist(4, true, false);
      if (w.socket) run_dist(1, true, false);
    }
  }

  // ---- timed rounds ---------------------------------------------------------
  std::vector<std::function<void()>> jobs = {
      [&] { run_seq(true); },
      [&] { run_dist(1, false, true); },
      [&] { run_dist(4, false, true); },
      [&] { run_yardstick(true); },
  };
  if (opt.trace) {
    jobs.push_back([&] { run_validate(1); });
    jobs.push_back([&] { run_validate(4); });
    jobs.push_back([&] { run_dist(4, true, true); });
    if (w.socket) jobs.push_back([&] { run_dist(1, true, true); });
  }
  // Rounds rotate the order so order effects do not land on one metric.
  // After kMinRounds the run stops at the first job past `seconds`. Round 0
  // runs the jobs in list order, so each untraced call, the reference its
  // traced twin is checked against, comes first.
  std::size_t done = 0;
  const auto t_rounds = Clock::now();
  while (done < kMinRounds * jobs.size() || seconds_since(t_rounds) < seconds) {
    const std::size_t round = done / jobs.size();
    jobs[(done + round) % jobs.size()]();
    ++done;
  }
  const double rounds = static_cast<double>(done) / static_cast<double>(jobs.size());
  const double measured_s = seconds_since(t_rounds);

  // The socket workers build no cross-rank profile; take wait and critical
  // path for that workload from one in-process run on the same packed file.
  std::optional<DistLayers> blocks_profile;
  if (opt.trace && w.socket) {
    graph::blockgraph::BlockGraph::Options bopts;
    bopts.cache_bytes = static_cast<std::size_t>(kBlockCacheMb) << 20;
    const auto blocks = graph::blockgraph::BlockGraph::open(setup.packed_path, bopts);
    blocks_profile = run_inproc(4, true, false, graph::GraphView(blocks)).layers;
  }

  // ---- results --------------------------------------------------------------
  const Reference& ref_seq = checks.reference("seq");
  const Reference& ref_p1 = checks.reference(key("dist", 1));
  const Reference& ref_p4 = checks.reference(key("dist", 4));
  StandIn out;
  out.seq_s = median(cpus_of(seq_samples));
  out.p1_s = median(cpus_of(samples_of(dist[{1, false}])));
  out.p4_s = median(cpus_of(samples_of(dist[{4, false}])));
  out.sweep_s = median(cpus_of(yardstick_samples)) / yardstick.sweeps();
  out.seq_wall_s = median(walls_of(seq_samples));
  out.p1_wall_s = median(walls_of(samples_of(dist[{1, false}])));
  out.p4_wall_s = median(walls_of(samples_of(dist[{4, false}])));
  out.l_seq = ref_seq.codelength;
  out.l_p1 = ref_p1.codelength;
  out.l_p4 = ref_p4.codelength;

  JsonObject timings;
  timings.raw("setup", samples_json(setup.total));
  timings.raw("seq", samples_json(seq_samples));
  timings.raw("dist_p1", samples_json(samples_of(dist[{1, false}])));
  timings.raw("dist_p4", samples_json(samples_of(dist[{4, false}])));
  if (opt.trace) timings.raw("traced_p4", samples_json(samples_of(dist[{4, true}])));
  timings.raw("yardstick", samples_json(yardstick_samples));
  JsonObject detail;
  detail.number("seed", static_cast<double>(seed));
  detail.number("vertices", n);
  detail.number("edges", static_cast<double>(csr.num_edges()));
  detail.number("rounds", rounds);
  detail.number("yardstick_sweeps", yardstick.sweeps());
  detail.number("measured_s", measured_s);
  detail.raw("timings", timings.str());
  out.detail = detail.str();

  MetricList& metrics = out.metrics;
  if (!opt.trace) {
    metrics.add("setup_s", median(cpus_of(setup.total)), "s");
    metrics.add("seq_sweeps", out.seq_s / out.sweep_s, "sweeps");
    metrics.add("dist_p1_sweeps", out.p1_s / out.sweep_s, "sweeps");
    metrics.add("dist_p4_sweeps", out.p4_s / out.sweep_s, "sweeps");
    metrics.add("codelength_seq_bits", out.l_seq, "bits");
    metrics.add("codelength_p1_bits", out.l_p1, "bits");
    metrics.add("codelength_p4_bits", out.l_p4, "bits");
  } else {
    const auto& p4 = partition_for(4);
    const auto arcs = partition::arcs_per_rank(p4);
    const auto ghosts = partition::ghosts_per_rank(p4);
    double arcs_max = 0, arcs_sum = 0, ghosts_max = 0, delegates = 0;
    for (auto a : arcs) {
      arcs_max = std::max(arcs_max, static_cast<double>(a));
      arcs_sum += static_cast<double>(a);
    }
    for (auto g : ghosts) ghosts_max = std::max(ghosts_max, static_cast<double>(g));
    for (auto d : p4.is_delegate) delegates += d != 0;
    double seq_moves = 0;
    for (const auto& row : seq_result->trace) seq_moves += static_cast<double>(row.moves);

    metrics.add("io.generate_s", median(setup.generate_s), "s");
    metrics.add("graph.build_csr_s", median(setup.csr_s), "s");
    metrics.add("graph.blockgraph.pack_s", median(setup.pack_s), "s");
    metrics.add("partition.make_delegate.p4_s", median(setup.delegate_p4_s), "s");
    metrics.add("partition.validate.p4_s", median(validate_walls[4]), "s");
    metrics.add("partition.validate.p1_s", median(validate_walls[1]), "s");
    metrics.add("partition.delegates.p4", delegates, "count");
    metrics.add("partition.arc_imbalance.p4",
                arcs_max / (arcs_sum / static_cast<double>(arcs.size())), "ratio");
    metrics.add("partition.ghosts_max.p4", ghosts_max, "count");
    metrics.add("core.seq.levels",
                static_cast<double>(seq_result->trace.size()), "count");
    metrics.add("core.seq.moves", seq_moves, "count");

    // Attribution comes from the median call, so at p=4 in-process
    // stage1 + stage2 + unphased + validate adds up to call_s exactly. The
    // socket workers do not validate; there unphased also holds process
    // start-up and graph open.
    for (int p : {1, 4}) {
      const bool traced = w.socket;  // socket phase times need --report
      const DistCall& call = median_call(dist[{p, traced}]);
      const DistLayers d = call.layers.value_or(DistLayers{});  // empty if it failed
      const double validate_s = w.socket ? 0.0 : median(validate_walls[p]);
      const std::string pre = "core.dist.p" + std::to_string(p) + ".";
      metrics.add(pre + "call_s", call.sample.wall_s, "s");
      metrics.add(pre + "find_s", d.find_s, "s");
      metrics.add(pre + "swap_s", d.swap_s, "s");
      if (p == 4) metrics.add(pre + "bcast_s", d.bcast_s, "s");
      metrics.add(pre + "other_s", d.other_s, "s");
      metrics.add(pre + "stage1_s", d.stage1_s, "s");
      metrics.add(pre + "stage2_s", d.stage2_s, "s");
      metrics.add(pre + "stage2_levels", d.stage2_levels, "count");
      if (p == 4)
        metrics.add(pre + "last_level_vertices", d.last_level_vertices, "count");
      metrics.add(pre + "unphased_s",
                  call.sample.wall_s - d.stage1_s - d.stage2_s - validate_s, "s");
      metrics.add(pre + "rounds", d.rounds, "count");
      metrics.add(pre + "arcs_scanned", d.arcs_scanned, "count");
      metrics.add(pre + "delta_evals", d.delta_evals, "count");
      metrics.add(pre + "module_updates", d.module_updates, "count");
      if (p == 4) {
        metrics.add("comm.p4.bytes", d.comm_bytes, "bytes");
        metrics.add("comm.p4.messages", d.comm_messages, "count");
        metrics.add("comm.p4.collective_calls", d.collective_calls, "count");
        metrics.add("comm.p4.packed_streams", d.packed_streams, "count");
      }
    }
    metrics.add("core.dist.p4.cold_first_s", cold_first_s, "s");

    const DistCall& traced = median_call(dist[{4, true}]);
    const DistLayers t = traced.layers.value_or(DistLayers{});
    const DistLayers prof = blocks_profile.value_or(t);
    metrics.add("comm.p4.wait_pct", prof.wait_pct, "%");
    metrics.add("comm.p4.critical_path_s", prof.critical_path_s, "s");
    metrics.add("graph.blockgraph.hits", t.bg_hits, "count");
    metrics.add("graph.blockgraph.misses", t.bg_misses, "count");
    metrics.add("graph.blockgraph.decode_s", t.bg_decode_s, "s");
    metrics.add("quality.nmi_p4_vs_seq",
                dinfomap::quality::nmi(ref_p4.assignment, ref_seq.assignment), "nmi");
    metrics.add("quality.modules.seq",
                static_cast<double>(seq_result->num_modules()), "count");
    metrics.add("quality.modules.p4", t.modules, "count");
    metrics.add("obs.trace_overhead_pct",
                100.0 * (median(cpus_of(samples_of(dist[{4, true}]))) / out.p4_s - 1.0), "%");
    metrics.add("obs.anomalies.p4", t.anomalies, "count");
  }

  return out;
}

/// Measures every stand-in of `w` and prints the detail and result lines.
int run(const Options& opt, const Workload& w, SocketLauncher* launcher) {
  const std::string load_start = load_average();
  const std::uint64_t seed =
      opt.seed.value_or(dinfomap::io::dataset_spec(w.dataset).seed);
  Ledger ledger;
  std::vector<StandIn> parts;
  for (int g = 0; g < w.stand_ins; ++g)
    parts.push_back(measure(opt, w, seed + static_cast<std::uint64_t>(g) * kStandInSeedStride,
                            opt.seconds / w.stand_ins, g == 0, launcher, ledger));
  const auto mean = [&](const auto& field) {
    double sum = 0;
    for (const StandIn& p : parts) sum += field(p);
    return sum / static_cast<double>(parts.size());
  };
  MetricList metrics = parts.front().metrics;
  for (std::size_t i = 0; i < metrics.items.size(); ++i) {
    // Only the first stand-in's first call is the process's cold call.
    if (metrics.items[i].name == "core.dist.p4.cold_first_s") continue;
    metrics.items[i].value =
        mean([&](const StandIn& p) { return p.metrics.items[i].value; });
  }
  if (!opt.trace) {
    metrics.add("peak_rss_mb", w.socket ? launcher->peak_rss_mb() : self_peak_rss_mb(), "MB");
    metrics.add("ok_share",
                1.0 - static_cast<double>(ledger.failed) / std::max(1, ledger.attempted),
                "share");
  }

  const double seq_wall = mean([](const StandIn& p) { return p.seq_wall_s; });
  const double seq_cpu = mean([](const StandIn& p) { return p.seq_s; });
  const double l_seq = mean([](const StandIn& p) { return p.l_seq; });
  JsonObject ratios;  // reported beside the metrics, never gated
  ratios.number("dist_p4_over_seq", mean([](const StandIn& p) { return p.p4_wall_s; }) / seq_wall);
  ratios.number("dist_p1_over_seq", mean([](const StandIn& p) { return p.p1_wall_s; }) / seq_wall);
  ratios.number("dist_p4_cpu_over_seq", mean([](const StandIn& p) { return p.p4_s; }) / seq_cpu);
  ratios.number("dist_p1_cpu_over_seq", mean([](const StandIn& p) { return p.p1_s; }) / seq_cpu);
  ratios.number("codelength_gap_p4_pct",
                100.0 * (mean([](const StandIn& p) { return p.l_p4; }) / l_seq - 1.0));
  ratios.number("codelength_gap_p1_pct",
                100.0 * (mean([](const StandIn& p) { return p.l_p1; }) / l_seq - 1.0));
  JsonObject context;
  context.number("nproc", static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)));
  context.raw("loadavg_start", load_start);
  context.raw("loadavg_end", load_average());
  context.string("build_type", DINFOMAP_BENCH_BUILD_TYPE);
  context.string("commit", opt.commit);
  std::string stand_ins = "[";
  for (std::size_t i = 0; i < parts.size(); ++i)
    stand_ins += (i ? ", " : "") + parts[i].detail;
  stand_ins += "]";
  std::string errors = "[";
  for (std::size_t i = 0; i < ledger.errors.size(); ++i) {
    JsonObject e;
    e.string("error", ledger.errors[i]);
    errors += (i ? ", " : "") + e.str();
  }
  errors += "]";
  JsonObject detail;
  detail.string("workload", w.name);
  detail.number("seed", static_cast<double>(seed));
  detail.raw("context", context.str());
  detail.raw("stand_ins", stand_ins);
  detail.raw("ratios", ratios.str());
  detail.raw("errors", errors);
  JsonObject detail_line;
  detail_line.raw("detail", detail.str());
  std::printf("%s\n", detail_line.str().c_str());

  JsonObject metrics_json;
  for (const Metric& m : metrics.items)
    metrics_json.raw(m.name, metric_json(m.value, m.unit));
  JsonObject result;
  result.raw("correct", ledger.failed == 0 ? "true" : "false");
  result.number("attempted", ledger.attempted);
  result.number("failed", ledger.failed);
  result.raw("metrics", metrics_json.str());
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace dinfomap_bench

int main(int argc, char** argv) {
  using namespace dinfomap_bench;
  const Options opt = parse_options(argc, argv);
  const Workload* w = nullptr;
  for (const auto& cand : kWorkloads)
    if (opt.workload == cand.name) w = &cand;
  if (w == nullptr) usage("unknown workload '" + opt.workload + "'");
  try {
    std::filesystem::create_directories(opt.work_dir + "/mesh");
    // Forked first, while this process is still small (see SocketLauncher).
    std::optional<SocketLauncher> launcher;
    if (w->socket) launcher.emplace(opt.work_dir + "/cli.log");
    return run(opt, *w, launcher ? &*launcher : nullptr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dinfomap_bench: %s\n", e.what());
    return 1;
  }
}
