// Shared helpers for the table/figure benches: dataset loading, modeled-time
// evaluation, fixed-width table printing, and CSV series output.
#pragma once

#include <filesystem>
#include <fstream>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/dist_infomap.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "io/datasets.hpp"
#include "perf/cost_model.hpp"

namespace dinfomap::bench {

struct LoadedDataset {
  io::DatasetSpec spec;
  graph::Csr csr;
  std::optional<graph::Partition> ground_truth;
};

inline LoadedDataset load(const std::string& name) {
  LoadedDataset out{io::dataset_spec(name), {}, {}};
  auto gen = io::load_dataset(name);
  out.csr = graph::build_csr(gen.edges, gen.num_vertices);
  out.ground_truth = std::move(gen.ground_truth);
  return out;
}

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

/// Machine-readable mirror of a bench's table: writes
/// bench_results/<name>.csv next to the working directory, one header plus
/// one row() call per line. Benches keep stdout as the human channel.
class CsvSink {
 public:
  CsvSink(const std::string& name, const std::vector<std::string>& columns) {
    std::filesystem::create_directories("bench_results");
    out_.open("bench_results/" + name + ".csv");
    for (std::size_t i = 0; i < columns.size(); ++i) {
      if (i) out_ << ',';
      out_ << columns[i];
    }
    out_ << '\n';
  }

  template <typename... Fields>
  void row(const Fields&... fields) {
    std::ostringstream line;
    bool first = true;
    ((line << (first ? "" : ","), first = false, line << fields), ...);
    out_ << line.str() << '\n';
  }

 private:
  std::ofstream out_;
};

/// Machine-readable JSON mirror for tracking the perf trajectory across PRs:
/// writes bench_results/BENCH_<name>.json on destruction as
/// {"bench": <name>, "rows": [{...}, ...]}. Rows are flat key→value objects
/// built with field(); numbers stay numbers, everything else is quoted.
class JsonSink {
 public:
  explicit JsonSink(std::string name) : name_(std::move(name)) {}

  JsonSink& begin_row() {
    rows_.emplace_back();
    return *this;
  }
  JsonSink& field(const std::string& key, const std::string& value) {
    return raw_field(key, '"' + escape(value) + '"');
  }
  JsonSink& field(const std::string& key, const char* value) {
    return field(key, std::string(value));
  }
  JsonSink& field(const std::string& key, double value) {
    std::ostringstream os;
    os.precision(12);
    os << value;
    return raw_field(key, os.str());
  }
  JsonSink& field(const std::string& key, std::int64_t value) {
    return raw_field(key, std::to_string(value));
  }
  JsonSink& field(const std::string& key, int value) {
    return field(key, static_cast<std::int64_t>(value));
  }
  JsonSink& field(const std::string& key, std::uint64_t value) {
    return raw_field(key, std::to_string(value));
  }
  /// Embed an already-serialized JSON document verbatim as `key`'s value —
  /// how benches attach the structured obs::RunReport to their rows.
  JsonSink& json_field(const std::string& key, const std::string& raw_json) {
    return raw_field(key, raw_json);
  }
  JsonSink& report_field(const std::string& key, const obs::RunReport& rep) {
    return json_field(key, rep.to_json());
  }

  ~JsonSink() { write(); }

  void write() const {
    std::filesystem::create_directories("bench_results");
    std::ofstream out("bench_results/BENCH_" + name_ + ".json");
    out << "{\n  \"bench\": \"" << escape(name_) << "\",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out << "    {";
      const auto& row = rows_[i];
      for (std::size_t j = 0; j < row.size(); ++j) {
        if (j) out << ", ";
        out << '"' << escape(row[j].first) << "\": " << row[j].second;
      }
      out << (i + 1 < rows_.size() ? "},\n" : "}\n");
    }
    out << "  ]\n}\n";
  }

 private:
  JsonSink& raw_field(const std::string& key, std::string json_value) {
    if (rows_.empty()) rows_.emplace_back();
    rows_.back().emplace_back(key, std::move(json_value));
    return *this;
  }
  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  std::string name_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

/// Modeled BSP seconds of one phase of a distributed run: slowest rank gates.
inline double modeled_phase_seconds(const std::vector<perf::WorkCounters>& per_rank,
                                    const perf::CostModel& model = {}) {
  return perf::bsp_seconds(per_rank, model);
}

/// Modeled total seconds of a distributed Infomap run (all phases).
inline double modeled_total_seconds(const core::DistInfomapResult& result,
                                    const perf::CostModel& model = {}) {
  double total = 0;
  for (int ph = 0; ph < core::kNumPhases; ++ph)
    total += perf::bsp_seconds(result.work[ph], model);
  return total;
}

/// Modeled seconds of one stage (0 = with delegates, 1 = the rank-0 finish).
inline double modeled_stage_seconds(const core::DistInfomapResult& result,
                                    int stage,
                                    const perf::CostModel& model = {}) {
  return perf::bsp_seconds(result.stage_work[stage], model);
}

// Run-report-based overloads: benches that consume the structured report
// (rather than the raw result arrays) evaluate the same BSP model off it.
inline double modeled_phase_seconds(const obs::RunReport& report, int phase,
                                    const perf::CostModel& model = {}) {
  return perf::bsp_seconds(report.phases[static_cast<std::size_t>(phase)].work,
                           model);
}

inline double modeled_total_seconds(const obs::RunReport& report,
                                    const perf::CostModel& model = {}) {
  double total = 0;
  for (const auto& ph : report.phases) total += perf::bsp_seconds(ph.work, model);
  return total;
}

inline double modeled_stage_seconds(const obs::RunReport& report, int stage,
                                    const perf::CostModel& model = {}) {
  return perf::bsp_seconds(report.stage_work[static_cast<std::size_t>(stage)],
                           model);
}

}  // namespace dinfomap::bench
