// femto_chaos: the end-to-end chaos drill for the femtod serving stack,
// run as the `femtod_chaos` ctest.
//
//   femto_chaos <path-to-femtod>
//
// One run walks the resilience story of README "Resilience":
//
//   1. Compiles the seeded requests in-process for the byte-identity
//      reference.
//   2. Boots a real femtod, arms service.recv / service.accept over the
//      wire (`failpoints` op), and drives a fleet of retrying clients
//      (CompileClient::compile_retry) through the injected connection drops.
//   3. SIGKILLs the daemon mid-serve, respawns it on the same socket path,
//      and requires the still-retrying fleet to finish with every response
//      byte-identical to the in-process reference.
//   4. Hostile requests: a compile line asking for 1e9 restarts (one job
//      slot each) and one asking for 1e9 qubits must both be answered
//      REJECTED, and the daemon must still answer ping afterwards.
//   5. Bad numeric flags: femtod started with --workers, --max-queue or
//      --default-deadline set to abc, -1, 4x, inf, nan or -5 must exit 2
//      before it serves; one still running after 5 s is killed and fails.
//
// The ctest runs with no environment; CI's chaos leg additionally exports
// FEMTO_FAILPOINTS so the daemon boots with faults already armed (the
// tool's own in-process failpoints are client-side only and harmless).
//
// Exit codes: 0 ok, 1 contract failure, 2 usage/setup error.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/failpoint.hpp"
#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"

namespace {

using namespace femto;

constexpr std::uint64_t kSeed = 20230306;

int g_failures = 0;

void check(bool ok, const char* what) {
  if (ok) {
    std::printf("chaos: ok   %s\n", what);
  } else {
    std::printf("chaos: FAIL %s\n", what);
    ++g_failures;
  }
  std::fflush(stdout);
}

/// Two small deterministic UCCSD-shaped scenarios (same shape as the smoke
/// test): rich enough to exercise synthesis + verification, fast enough to
/// run a fleet of them many times.
std::vector<core::CompileScenario> chaos_scenarios() {
  std::vector<core::CompileScenario> out;
  for (int variant = 0; variant < 2; ++variant) {
    core::CompileScenario s;
    s.name = "chaos/uccsd4-" + std::to_string(variant);
    s.num_qubits = 4;
    s.terms = {fermion::ExcitationTerm::make_double(2, 3, 0, 1),
               fermion::ExcitationTerm::single(2, 0)};
    if (variant == 1) s.terms.push_back(fermion::ExcitationTerm::single(3, 1));
    s.options.transform = core::TransformKind::kAdvanced;
    s.options.sorting = core::SortingMode::kAdvanced;
    s.options.compression = core::CompressionMode::kHybrid;
    s.options.coloring_orders = 8;
    s.options.sa_options.steps = 200;
    s.options.pso_options.particles = 6;
    s.options.pso_options.iterations = 8;
    s.options.gtsp_options.population = 8;
    s.options.gtsp_options.generations = 20;
    s.options.emit_circuit = true;
    out.push_back(std::move(s));
  }
  return out;
}

std::string canonical(const core::CompileResponse& response) {
  return service::protocol::encode_response(
             service::protocol::summarize(response, /*include_circuit=*/true))
      .encode();
}

pid_t spawn_femtod(const std::string& femtod, const std::string& socket_path) {
  return service::spawn_process(
      {femtod, "--socket", socket_path, "--workers", "2"});
}

/// Sends one raw compile line and returns the daemon's replies to it (the
/// ack and the result, in either order) concatenated; "" if none came.
std::string raw_compile(service::CompileClient& client,
                        const std::string& line) {
  std::string replies;
  if (!client.connection().send_line(line)) return replies;
  for (int i = 0; i < 2; ++i)
    if (const auto reply = client.connection().recv_line(5000))
      replies += *reply;
  return replies;
}

/// The child's exit code once it exits within `timeout`; -1 if it dies on
/// a signal or is still running at the timeout (it is then SIGKILLed).
int wait_exit_code(pid_t pid, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    if (r < 0) return -1;
    if (std::chrono::steady_clock::now() >= deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <path-to-femtod>\n", argv[0]);
    return 2;
  }
  const std::string femtod = argv[1];
  const std::string base = "/tmp/femto-chaos-" + std::to_string(::getpid());

  // FEMTO_FAILPOINTS in the environment is for the daemons this tool
  // spawns (they inherit and re-parse it); the harness itself must build
  // its reference responses fault-free, so its own in-process registry is
  // cleared up front. CI's chaos leg arms the bit-identity-preserving
  // pipeline.restart fault in the env; the connection-tearing faults are
  // armed over the wire below, where the fleet is built to retry through
  // them.
  fail::registry().disarm_all();

  // ---- phase 1: in-process reference --------------------------------------
  const std::vector<core::CompileScenario> scenarios = chaos_scenarios();
  std::vector<core::CompileRequest> requests;
  for (const core::CompileScenario& s : scenarios)
    requests.push_back(
        {.scenarios = {s}, .restarts = 2, .seed = kSeed, .verify = true});

  std::vector<std::string> reference;
  {
    core::CompilePipeline pipeline({.workers = 2});
    for (const core::CompileRequest& r : requests) {
      const core::CompileResponse response = pipeline.compile(r);
      if (!response.done()) {
        std::fprintf(stderr, "chaos: reference compile failed: %s\n",
                     response.detail.c_str());
        return 2;
      }
      reference.push_back(canonical(response));
    }
  }

  // ---- phase 2+3: daemon under chaos, SIGKILL, restart, fleet -------------
  const std::string socket_path = base + "-serve.sock";
  pid_t daemon = spawn_femtod(femtod, socket_path);
  if (daemon < 0) {
    std::fprintf(stderr, "chaos: cannot spawn %s\n", femtod.c_str());
    return 2;
  }
  {
    auto admin_conn = service::wait_for_server(socket_path);
    if (!admin_conn.has_value()) {
      std::fprintf(stderr, "chaos: daemon socket never came up\n");
      ::kill(daemon, SIGKILL);
      return 2;
    }
    service::CompileClient admin(std::move(*admin_conn));
    std::string err;
    const auto armed = admin.failpoints(
        "service.recv:0.25:11,service.accept:0.15:13", "", err);
    check(armed.has_value(), "service.recv/service.accept armed over the wire");
  }

  const double retries_before =
      obs::registry().counter("service.retries").value();
  const std::size_t kClients = 3;
  const std::size_t kRoundsPerClient = 2;
  std::atomic<std::size_t> completed{0};
  std::atomic<int> fleet_failures{0};
  std::atomic<int> fleet_mismatches{0};
  std::vector<std::thread> fleet;
  for (std::size_t c = 0; c < kClients; ++c) {
    fleet.emplace_back([&, c] {
      service::RetryPolicy policy;
      policy.max_attempts = 60;
      policy.base_delay_s = 0.02;
      policy.max_delay_s = 0.25;
      policy.seed = 100 + c;  // decorrelate the fleet's back-off
      service::CompileClient client(socket_path, policy);
      for (std::size_t r = 0; r < kRoundsPerClient; ++r) {
        const std::size_t idx = (c + r) % requests.size();
        std::string err;
        const auto served = client.compile_retry(
            requests[idx],
            "fleet-" + std::to_string(c) + "-" + std::to_string(r), err,
            /*include_circuit=*/true);
        if (!served.has_value() ||
            served->state != service::RequestState::kDone) {
          std::fprintf(stderr, "chaos: fleet compile failed: %s\n",
                       err.c_str());
          fleet_failures.fetch_add(1);
        } else if (served->canonical_response != reference[idx]) {
          fleet_mismatches.fetch_add(1);
        }
        completed.fetch_add(1);
      }
    });
  }

  // SIGKILL the daemon once the fleet is mid-serve (at least one response
  // landed, more in flight), then respawn on the same socket path. The
  // fleet's retry policies ride out the gap.
  const auto kill_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (completed.load() < 1 &&
         std::chrono::steady_clock::now() < kill_deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ::kill(daemon, SIGKILL);
  {
    int status = 0;
    ::waitpid(daemon, &status, 0);
    check(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL,
          "daemon SIGKILLed mid-serve");
  }
  daemon = spawn_femtod(femtod, socket_path);
  check(daemon > 0, "daemon respawned on the same socket path");
  for (std::thread& t : fleet) t.join();
  check(fleet_failures.load() == 0,
        "every fleet request completed (through drops, kill, and restart)");
  check(fleet_mismatches.load() == 0,
        "every fleet response byte-identical to the in-process reference");
  const double retries_after =
      obs::registry().counter("service.retries").value();
  check(retries_after > retries_before,
        "the fleet actually retried (service.retries grew)");

  // ---- phase 4: requests too large to run, then ping ----------------------
  {
    auto conn = service::wait_for_server(socket_path, 2000);
    bool clean = false;
    if (conn.has_value()) {
      service::CompileClient client(std::move(*conn));
      const std::string restarts = raw_compile(
          client,
          R"({"op":"compile","id":"huge-restarts","request":{"scenarios":)"
          R"([{"name":"x","num_qubits":4,"terms":[["s",0,2,0.1]]}],)"
          R"("restarts":1000000000}})");
      check(restarts.find(R"("state":"REJECTED")") != std::string::npos &&
                restarts.find("1000000000 restarts") != std::string::npos,
            "1e9-restart request answered REJECTED, naming the count");
      const std::string qubits = raw_compile(
          client,
          R"({"op":"compile","id":"huge-qubits","request":{"scenarios":)"
          R"([{"name":"x","num_qubits":1000000000,"terms":[["s",0,2,0.1]]}],)"
          R"("restarts":1}})");
      check(qubits.find(R"("state":"REJECTED")") != std::string::npos &&
                qubits.find("num_qubits 1000000000") != std::string::npos,
            "1e9-qubit request answered REJECTED, naming the width");
      check(client.ping(), "daemon answers ping after the hostile requests");
      clean = client.shutdown();
    }
    clean = service::wait_process(daemon) == 0 && clean;
    check(clean, "respawned daemon drained cleanly");
  }

  // ---- phase 5: bad numeric flags exit 2 before serving -------------------
  {
    const std::string flags_socket = base + "-flags.sock";
    int accepted = 0;
    for (const char* flag : {"--workers", "--max-queue", "--default-deadline"})
      for (const char* value : {"abc", "-1", "4x", "inf", "nan", "-5"}) {
        const pid_t pid = service::spawn_process(
            {femtod, "--socket", flags_socket, flag, value});
        const int code =
            pid > 0 ? wait_exit_code(pid, std::chrono::seconds(5)) : -1;
        if (code != 2) {
          std::printf("chaos: femtod %s %s exited %d, expected 2\n", flag,
                      value, code);
          ++accepted;
        }
      }
    ::unlink(flags_socket.c_str());
    check(accepted == 0,
          "every bad --workers/--max-queue/--default-deadline value exits 2");
  }

  if (g_failures == 0) {
    std::printf("chaos: ok (all phases)\n");
    return 0;
  }
  std::printf("chaos: %d failure(s)\n", g_failures);
  return 1;
}
