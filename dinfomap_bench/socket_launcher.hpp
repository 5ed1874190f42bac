// Runs socket-transport jobs (one dinfomap_cli worker process per rank) from
// a helper process forked before the benchmark allocates anything large.
//
// Why a helper: exec folds the parent's resident high-water mark into the
// child's, so workers forked straight from the grown benchmark process would
// all report its peak. The helper stays a few MB, is the workers' parent, and
// its RUSAGE_CHILDREN peak is therefore the largest worker's resident set.
#pragma once

#include <string>
#include <sys/types.h>
#include <vector>

namespace dinfomap_bench {

class SocketLauncher {
 public:
  struct Job {
    std::string exe;               ///< worker binary (dinfomap_cli)
    std::vector<std::string> args; ///< argv tail; `--rank-role r` is appended
    std::string dir;               ///< rendezvous directory (must exist)
    int ranks = 0;
  };
  struct Outcome {
    bool ok = false;      ///< every worker exited 0
    double wall_s = 0;    ///< first fork to last reap
    double cpu_s = 0;     ///< user + system CPU time of all the workers
    double peak_rss_mb = 0;  ///< largest worker resident set so far
  };

  /// Forks the helper; its stdout and stderr (and the workers') go to
  /// `log_path`.
  explicit SocketLauncher(const std::string& log_path);
  ~SocketLauncher();  ///< closes the request pipe and reaps the helper
  SocketLauncher(const SocketLauncher&) = delete;
  SocketLauncher& operator=(const SocketLauncher&) = delete;

  Outcome run(const Job& job);

  /// Largest worker resident set over every job so far.
  [[nodiscard]] double peak_rss_mb() const { return peak_rss_mb_; }

 private:
  pid_t pid_ = -1;
  int to_helper_ = -1;
  int from_helper_ = -1;
  double peak_rss_mb_ = 0;
};

}  // namespace dinfomap_bench
