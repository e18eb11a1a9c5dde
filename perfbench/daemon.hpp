// One femtod child process, owned for its whole life: spawned with its
// output sent to a log file, probed through the protocol, measured through
// /proc, and always reaped -- gracefully when it answers, by SIGKILL when
// it does not.
#pragma once

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "service/client.hpp"

namespace perfbench {

class Daemon {
 public:
  /// Starts `femtod --socket <socket> --workers <workers>` (plus
  /// --trace-dir when `trace_dir` is non-empty) with stdout and stderr
  /// appended to `log_path`. Check running() for spawn failure.
  Daemon(const std::string& femtod, const std::string& socket,
         std::size_t workers, const std::string& trace_dir,
         const std::string& log_path)
      : socket_(socket) {
    std::vector<std::string> args = {femtod, "--socket", socket, "--workers",
                                     std::to_string(workers)};
    if (!trace_dir.empty()) {
      args.push_back("--trace-dir");
      args.push_back(trace_dir);
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    pid_ = ::fork();
    if (pid_ == 0) {
      // The daemon must not outlive a benchmark that dies mid-run.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (log_fd >= 0) {
        ::dup2(log_fd, STDOUT_FILENO);
        ::dup2(log_fd, STDERR_FILENO);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    if (log_fd >= 0) ::close(log_fd);
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] const std::string& socket() const { return socket_; }

  /// True while the child has not exited (reaps it if it has).
  [[nodiscard]] bool running() {
    if (pid_ <= 0) return false;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    return true;
  }

  /// Polls the socket until a `ping` succeeds or `timeout_ms` passes.
  [[nodiscard]] bool wait_ready(int timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (running() && std::chrono::steady_clock::now() < deadline) {
      femto::service::ClientConnection conn;
      if (conn.connect(socket_).empty()) {
        femto::service::CompileClient client(std::move(conn));
        if (client.ping(1000)) return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

  /// One-line admin op (`stats` or `metrics`) on a fresh connection.
  [[nodiscard]] std::optional<femto::service::json::Value> admin(
      const std::string& op) {
    femto::service::ClientConnection conn;
    if (!conn.connect(socket_).empty()) return std::nullopt;
    femto::service::CompileClient client(std::move(conn));
    return op == "metrics" ? client.metrics(5000) : client.stats(5000);
  }

  /// User + system CPU seconds of the child so far (from /proc).
  [[nodiscard]] double cpu_s() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::size_t close = text.rfind(')');
    if (close == std::string::npos) return 0.0;
    std::istringstream fields(text.substr(close + 2));
    std::string f;
    double ticks = 0.0;
    // Fields after the command name start at field 3 (state); utime and
    // stime are fields 14 and 15.
    for (int field = 3; field <= 15 && (fields >> f); ++field)
      if (field >= 14) ticks += std::stod(f);
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  /// Peak resident set of process `pid` in MiB (VmHWM), 0 if unreadable.
  [[nodiscard]] static double peak_rss_mb(pid_t pid) {
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line))
      if (line.rfind("VmHWM:", 0) == 0)
        return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
  }

  /// Graceful shutdown op, then SIGTERM, then SIGKILL; always reaps. True
  /// iff the daemon drained and exited 0 on its own.
  bool stop() {
    if (!running()) return false;
    bool acked = false;
    {
      femto::service::ClientConnection conn;
      if (conn.connect(socket_).empty()) {
        femto::service::CompileClient client(std::move(conn));
        acked = client.shutdown(/*cancel_queued=*/true, 5000);
      }
    }
    int status = 0;
    if (!acked) ::kill(pid_, SIGTERM);
    bool exited = wait_exit(acked ? 20000 : 5000, status);
    if (!exited) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    ::unlink(socket_.c_str());
    return acked && exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  /// SIGKILL without a handshake, then reap (the load generator's
  /// self-check of a dead daemon).
  void kill_now() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  /// SIGSTOP: the daemon keeps its socket and connections but answers
  /// nothing (the self-check of a hung daemon). stop() still reaps it.
  void suspend() const {
    if (pid_ > 0) ::kill(pid_, SIGSTOP);
  }

 private:
  bool wait_exit(int timeout_ms, int& status) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  std::string socket_;
  pid_t pid_ = -1;
};

}  // namespace perfbench
