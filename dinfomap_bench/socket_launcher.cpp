#include "socket_launcher.hpp"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "comm/process_group.hpp"

namespace dinfomap_bench {

namespace {

bool write_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

// Wire format of a request: count, then each string as (length, bytes).
// Strings: exe, dir, ranks, args...
bool send_strings(int fd, const std::vector<std::string>& items) {
  const auto count = static_cast<std::uint32_t>(items.size());
  if (!write_all(fd, &count, sizeof count)) return false;
  for (const auto& s : items) {
    const auto len = static_cast<std::uint32_t>(s.size());
    if (!write_all(fd, &len, sizeof len) || !write_all(fd, s.data(), s.size()))
      return false;
  }
  return true;
}

bool receive_strings(int fd, std::vector<std::string>& items) {
  std::uint32_t count = 0;
  if (!read_all(fd, &count, sizeof count)) return false;
  items.assign(count, {});
  for (auto& s : items) {
    std::uint32_t len = 0;
    if (!read_all(fd, &len, sizeof len)) return false;
    s.resize(len);
    if (!read_all(fd, s.data(), len)) return false;
  }
  return true;
}

/// User + system CPU seconds of every reaped child so far.
double children_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_CHILDREN, &ru);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

[[noreturn]] void serve(int requests, int replies, const std::string& log_path) {
  const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (log >= 0) {
    ::dup2(log, STDOUT_FILENO);
    ::dup2(log, STDERR_FILENO);
    ::close(log);
  }
  std::vector<std::string> items;
  while (receive_strings(requests, items) && items.size() >= 3) {
    SocketLauncher::Outcome out;
    const double cpu0 = children_cpu_s();
    const auto t0 = std::chrono::steady_clock::now();
    try {
      dinfomap::comm::ProcessGroup::Spec spec;
      spec.exe = items[0];
      spec.dir = items[1];
      spec.nranks = std::stoi(items[2]);
      spec.worker_args.assign(items.begin() + 3, items.end());
      out.ok = dinfomap::comm::ProcessGroup::launch(spec).ok;
    } catch (const std::exception&) {
      out.ok = false;
    }
    out.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    out.cpu_s = children_cpu_s() - cpu0;
    rusage ru{};
    ::getrusage(RUSAGE_CHILDREN, &ru);
    out.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    if (!write_all(replies, &out, sizeof out)) break;
  }
  ::_exit(0);
}

}  // namespace

SocketLauncher::SocketLauncher(const std::string& log_path) {
  int req[2];
  int rep[2];
  if (::pipe2(req, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  if (::pipe2(rep, O_CLOEXEC) != 0) {
    ::close(req[0]);
    ::close(req[1]);
    throw std::runtime_error("pipe failed");
  }
  pid_ = ::fork();
  if (pid_ < 0) {
    for (int fd : {req[0], req[1], rep[0], rep[1]}) ::close(fd);
    throw std::runtime_error("fork failed");
  }
  if (pid_ == 0) {
    ::close(req[1]);
    ::close(rep[0]);
    serve(req[0], rep[1], log_path);
  }
  ::close(req[0]);
  ::close(rep[1]);
  to_helper_ = req[1];
  from_helper_ = rep[0];
}

SocketLauncher::~SocketLauncher() {
  ::close(to_helper_);  // EOF ends the helper's request loop
  ::close(from_helper_);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
}

SocketLauncher::Outcome SocketLauncher::run(const Job& job) {
  std::vector<std::string> items = {job.exe, job.dir, std::to_string(job.ranks)};
  items.insert(items.end(), job.args.begin(), job.args.end());
  Outcome out;
  if (!send_strings(to_helper_, items) ||
      !read_all(from_helper_, &out, sizeof out))
    throw std::runtime_error("socket launcher helper died");
  peak_rss_mb_ = std::max(peak_rss_mb_, out.peak_rss_mb);
  return out;
}

}  // namespace dinfomap_bench
