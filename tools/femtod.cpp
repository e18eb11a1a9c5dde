// femtod: the long-running compilation service daemon.
//
// Boots one CompilePipeline, binds an AF_UNIX socket, and serves the
// JSON-line protocol of src/service/server.hpp: compile requests stream
// in, lifecycle-tracked tickets stream results back, and identical
// in-flight requests coalesce onto one execution.
//
//   femtod --socket <path> [--workers N] [--max-queue N]
//          [--default-deadline S] [--trace-dir <dir>] [--log]
//
// --trace-dir enables per-request tracing: every completed work writes a
// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing) to
// <dir>/request-<id>.json, and the `trace` wire op serves the most recent
// one. The `metrics` op (always available) exports the unified metrics
// registry: request and solver counters, request-latency percentiles,
// live queue gauges.
//
// Prints "femtod: serving on <path>" once the socket accepts connections
// (drivers wait for the line OR poll-connect the socket). Shuts down on
// the protocol's shutdown op or on SIGTERM/SIGINT, draining gracefully:
// in-flight and queued work finishes, then the socket is torn down and a
// final stats line is printed. Exit 0 on a clean drain, 2 on usage/setup
// errors. Each numeric flag must be one whole number: --workers a count
// (0 = one per core), --max-queue a count >= 1, --default-deadline
// seconds in [0, the longest deadline a request may carry] (0 = none).
#include <charconv>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include <sys/stat.h>

#include "common/failpoint.hpp"
#include "service/server.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

int usage() {
  std::fprintf(stderr,
               "usage: femtod --socket <path> [--workers N] [--max-queue N] "
               "[--default-deadline S] [--trace-dir <dir>] [--log]\n");
  return 2;
}

int bad_value(const std::string& flag, const char* v) {
  std::fprintf(stderr, "femtod: invalid %s value '%s'\n", flag.c_str(), v);
  return usage();
}

/// Parses the whole of `s` as a number; rejects empty, partial ("4x") and
/// out-of-range tokens.
template <typename T>
[[nodiscard]] bool parse_whole(const char* s, T& out) {
  const char* end = s + std::strlen(s);
  const auto [ptr, ec] = std::from_chars(s, end, out);
  return ec == std::errc() && ptr == end && ptr != s;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace femto;

  std::string socket_path;
  service::ServiceOptions service_options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--socket") {
      const char* v = value();
      if (v == nullptr) return usage();
      socket_path = v;
    } else if (arg == "--workers") {
      const char* v = value();
      if (v == nullptr) return usage();
      if (!parse_whole(v, service_options.pipeline.workers))
        return bad_value(arg, v);
    } else if (arg == "--max-queue") {
      const char* v = value();
      if (v == nullptr) return usage();
      if (!parse_whole(v, service_options.max_queue) ||
          service_options.max_queue == 0)
        return bad_value(arg, v);
    } else if (arg == "--default-deadline") {
      const char* v = value();
      if (v == nullptr) return usage();
      double& d = service_options.default_deadline_s;
      // The bound validate_request applies to a request's own deadline_s;
      // the negated test also rejects nan.
      if (!parse_whole(v, d) || !(d >= 0.0 && d <= core::max_deadline_s()))
        return bad_value(arg, v);
    } else if (arg == "--trace-dir") {
      const char* v = value();
      if (v == nullptr) return usage();
      service_options.trace_dir = v;
    } else if (arg == "--log") {
      service_options.log = true;
    } else {
      return usage();
    }
  }
  if (socket_path.empty()) return usage();

  if (!service_options.trace_dir.empty()) {
    // Create the directory up front so the first trace write cannot fail
    // silently mid-serve; an existing directory is fine.
    if (::mkdir(service_options.trace_dir.c_str(), 0755) != 0 &&
        errno != EEXIST) {
      std::fprintf(stderr, "femtod: cannot create trace dir %s: %s\n",
                   service_options.trace_dir.c_str(), std::strerror(errno));
      return 2;
    }
  }

  // Force FEMTO_FAILPOINTS parsing now: a malformed spec must kill the
  // boot, not the first armed evaluation mid-serve.
  static_cast<void>(fail::registry());

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  service::SocketServer server(
      {.socket_path = socket_path, .service = service_options});
  if (const std::string err = server.start(); !err.empty()) {
    std::fprintf(stderr, "femtod: %s\n", err.c_str());
    return 2;
  }
  std::printf("femtod: serving on %s (workers %zu, queue %zu)\n",
              socket_path.c_str(),
              server.service().pipeline().worker_count(),
              service_options.max_queue);
  std::fflush(stdout);

  server.run([] { return g_stop != 0; });

  const service::ServiceStats stats = server.service().stats();
  std::printf(
      "femtod: drained; submitted %llu (coalesced %llu) -> done %llu, "
      "cancelled %llu, deadline %llu, rejected %llu; %llu works run, "
      "%llu plans served\n",
      static_cast<unsigned long long>(stats.submitted),
      static_cast<unsigned long long>(stats.coalesced),
      static_cast<unsigned long long>(stats.done),
      static_cast<unsigned long long>(stats.cancelled),
      static_cast<unsigned long long>(stats.deadline_exceeded),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.works_run),
      static_cast<unsigned long long>(stats.plans_served));
  return 0;
}
