// Parallel multi-restart / batch compilation pipeline behind ONE entry
// point: CompilePipeline::compile(CompileRequest) -> CompileResponse.
//
// A CompileRequest is the cross product (scenarios x targets x restarts)
// plus the request-scoped controls a serving tier needs: an explicit master
// seed, a wall-clock deadline, in-flight verification, and a cooperative
// cancellation flag. The same struct is what the femtod daemon accepts over
// its JSON-line protocol (service/protocol.hpp), so "compile in-process"
// and "compile via the service" are literally the same request shape -- and
// a seeded request returns a bit-identical plan either way. One scenario,
// a batch, a restart fan-out and a hardware-target sweep are all just
// request shapes; there is no second way in.
//
// Determinism contract: every job is a pure function of (scenario, derived
// seed) and writes only its own output slot; winner selection is a pure
// reduction over the complete slot vector. The same master seeds therefore
// yield bit-identical results for ANY worker count -- this is what makes
// the CI bench-regression gates trustworthy. Restart jobs share no mutable
// state at all: each one synthesizes its own circuit from scratch, so there
// is no cache whose contents or insertion races could depend on worker
// count or scheduling.
//
// Cancellation and deadlines are cooperative and checked at RESTART
// boundaries: a restart job either runs to completion or is skipped before
// it starts, never torn mid-flight. A request that completes every job
// reports kDone and is bit-identical to an undeadlined run; a tripped
// request reports kCancelled / kDeadlineExceeded with the per-restart
// `completed` flags showing exactly what was reduced.
//
// The compile hot paths a job runs on are themselves exact rewrites under
// the same contract (see core/gamma_search.hpp, opt/gtsp.hpp). All per-job
// caches and per-thread scratch buffers are confined to one job's stack or
// thread, so the fan-out shares nothing mutable. A CompilePipeline serves
// one compile() call at a time (the service layer serializes requests).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.hpp"
#include "common/parallel.hpp"
#include "core/compiler.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opt/restart.hpp"
#include "verify/equivalence.hpp"

namespace femto::core {

/// One unit of batch-compilation work.
struct CompileScenario {
  std::string name;  // label for benches/reports; not used by the compiler
  std::size_t num_qubits = 0;
  std::vector<fermion::ExcitationTerm> terms;
  CompileOptions options;
};

/// Cost and seed of one restart, reported for benches and tests.
struct RestartReport {
  std::uint64_t seed = 0;
  int model_cnots = 0;
  /// Target-native model / device costs (== model_cnots / emitted count on
  /// the default target).
  int model_cost = 0;
  int device_cost = 0;
  /// False when the restart job was skipped by cooperative cancellation or
  /// a deadline; its cost fields are then meaningless and the restart took
  /// no part in winner selection.
  bool completed = true;
};

struct MultiStartResult {
  CompileResult best;
  std::size_t best_restart = 0;
  std::vector<RestartReport> restarts;  // indexed by restart
  /// Per-restart verification verdicts (empty unless the request verified).
  std::vector<verify::EquivalenceReport> verification;

  /// True when verification ran and certified every restart's circuit.
  [[nodiscard]] bool all_verified() const {
    if (verification.empty()) return false;
    for (const verify::EquivalenceReport& r : verification)
      if (!r.equivalent()) return false;
    return true;
  }
};

/// Terminal disposition of a CompileRequest. The service lifecycle
/// (service/lifecycle.hpp) maps these onto its terminal request states.
enum class RequestStatus {
  kDone,              // every restart job ran; results are complete
  kCancelled,         // cooperative cancel observed at a restart boundary
  kDeadlineExceeded,  // wall-clock budget expired at a restart boundary
  kRejected,          // request invalid (or refused by admission control)
};

[[nodiscard]] inline const char* to_string(RequestStatus s) {
  switch (s) {
    case RequestStatus::kDone: return "DONE";
    case RequestStatus::kCancelled: return "CANCELLED";
    case RequestStatus::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case RequestStatus::kRejected: return "REJECTED";
  }
  return "?";
}

/// THE unified compile request: what every entry point, tool, bench, and
/// the femtod wire protocol share. Wire fields are serialized by
/// service/protocol.hpp; the control-plane fields at the bottom are set by
/// the serving layer only and never cross a process boundary.
struct CompileRequest {
  std::vector<CompileScenario> scenarios;
  /// Optional hardware fan-out: when non-empty, every scenario is compiled
  /// once per target (the target overrides the scenario's options.target).
  /// Empty = each scenario compiles for its own options.target.
  std::vector<synth::HardwareTarget> targets;
  /// Independent restarts per (scenario, target); restart 0 runs the master
  /// seed itself, so the multi-restart best can never be worse.
  std::size_t restarts = 1;
  /// When set, overrides every scenario's master seed: an explicit seed is
  /// the request-level reproducibility handle (same seed = bit-identical
  /// plan, in-process or daemon-served).
  std::optional<std::uint64_t> seed;
  /// Wall-clock budget in seconds (0 = none), measured from the start of
  /// compile() unless deadline_at overrides it. Checked cooperatively at
  /// restart boundaries.
  double deadline_s = 0.0;
  /// Certify every restart's emitted circuit against its compilation spec
  /// in-flight (verify/equivalence.hpp). Read-only on the results, so all
  /// determinism guarantees are unchanged.
  bool verify = false;

  // --- control plane (set by the serving layer; never serialized) --------
  /// Cooperative cancellation flag, polled at restart boundaries.
  const std::atomic<bool>* cancel = nullptr;
  /// Absolute deadline override; when set it wins over deadline_s so queue
  /// wait counts against the budget.
  std::optional<std::chrono::steady_clock::time_point> deadline_at;
};

/// Result of one (scenario, target) cell of a request.
struct ScenarioOutcome {
  std::string scenario;  // CompileScenario.name
  synth::HardwareTarget target;
  MultiStartResult result;
  /// Restart jobs that actually ran (== request.restarts iff nothing was
  /// skipped). 0 means `result` is empty.
  std::size_t restarts_completed = 0;
};

struct CompileResponse {
  RequestStatus status = RequestStatus::kDone;
  std::string detail;  // diagnostic for non-kDone statuses
  /// Scenario-major, then target: scenario i x target t at index i*T + t.
  std::vector<ScenarioOutcome> outcomes;

  [[nodiscard]] bool done() const { return status == RequestStatus::kDone; }
};

/// Longest CompileRequest.deadline_s accepted: half the steady clock's
/// remaining range, so `now() + deadline_s` stays representable however
/// long the request then waits in a queue.
[[nodiscard]] inline double max_deadline_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::time_point::max() -
                                       clock::now())
             .count() /
         2.0;
}

/// Most restart jobs (scenarios x targets x restarts) one request may
/// expand to. compile() allocates a slot per job before running any, so
/// an unbounded product lets one wire request exhaust the daemon's memory.
/// Above every workload in the tree (the service bench's 100000-restart
/// scheduler blockers).
inline constexpr std::size_t kMaxRequestJobs = std::size_t{1} << 17;

/// Most qubits one scenario may ask for. Every stage allocates per qubit
/// (Pauli strings, GF(2) matrices, circuits), so an absurd width holds the
/// scheduler for as long as the allocations take. Far above any molecule
/// in the tree (Table-1 rows are at most a few tens of qubits).
inline constexpr std::size_t kMaxRequestQubits = 1024;

/// Diagnostic for a term the compiler cannot take; empty string = valid.
/// Every orbital must be one of the n qubits, and a double must be in the
/// form ExcitationTerm::make_double builds -- distinct, ascending creation
/// and annihilation pairs (p < q, r < s) that are not the same pair. A
/// wire-decoded term never passed through make_double.
[[nodiscard]] inline std::string validate_term(
    std::size_t n, const fermion::ExcitationTerm& t) {
  const std::size_t orbitals[] = {t.p, t.r, t.q, t.s};
  for (std::size_t k = 0; k < (t.is_double() ? 4u : 2u); ++k)
    if (orbitals[k] >= n)
      return "orbital " + std::to_string(orbitals[k]) +
             " is out of range for " + std::to_string(n) + " qubits";
  if (!t.is_double()) return "";
  if (t.p == t.q || t.r == t.s)
    return "double excitation repeats orbital " +
           std::to_string(t.p == t.q ? t.p : t.r) +
           "; its creation and annihilation pairs must each be distinct";
  if (t.p > t.q || t.r > t.s)
    return "double excitation pairs must be ascending (p < q, r < s), as "
           "ExcitationTerm::make_double stores them";
  if (t.p == t.r && t.q == t.s)
    return "double excitation creates and annihilates the same pair (" +
           std::to_string(t.p) + ", " + std::to_string(t.q) +
           "); its generator is zero";
  return "";
}

/// Diagnostic for an invalid request; empty string = valid. The service
/// layer validates BEFORE queueing (a daemon must reject loudly, never
/// abort), and compile() validates again on entry.
[[nodiscard]] inline std::string validate_request(const CompileRequest& r) {
  if (r.restarts < 1)
    return "CompileRequest.restarts must be >= 1 (got " +
           std::to_string(r.restarts) +
           "); a compile needs at least the master-seed restart";
  if (r.scenarios.empty())
    return "CompileRequest.scenarios is empty: nothing to compile";
  if (!(r.deadline_s >= 0.0 && r.deadline_s <= max_deadline_s())) {
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "CompileRequest.deadline_s must be finite and in [0, %.3g] "
                  "seconds, the range the steady clock can represent (got "
                  "%g)",
                  max_deadline_s(), r.deadline_s);
    return buf;
  }
  const std::size_t T = r.targets.empty() ? 1 : r.targets.size();
  const std::size_t cells = r.scenarios.size() * T;
  if (cells > kMaxRequestJobs || r.restarts > kMaxRequestJobs / cells)
    return "CompileRequest expands to " + std::to_string(r.scenarios.size()) +
           " scenarios x " + std::to_string(T) + " targets x " +
           std::to_string(r.restarts) + " restarts, more than the " +
           std::to_string(kMaxRequestJobs) +
           " restart jobs one request may run";
  for (const CompileScenario& s : r.scenarios) {
    if (s.num_qubits > kMaxRequestQubits)
      return "scenario '" + s.name + "': num_qubits " +
             std::to_string(s.num_qubits) + " exceeds the " +
             std::to_string(kMaxRequestQubits) +
             " qubits one scenario may compile";
    if (s.terms.size() > kMaxScenarioTerms)
      return "scenario '" + s.name + "': terms has " +
             std::to_string(s.terms.size()) + " entries, more than the " +
             std::to_string(kMaxScenarioTerms) +
             " terms one scenario may compile";
    for (std::size_t k = 0; k < s.terms.size(); ++k)
      if (const std::string err = validate_term(s.num_qubits, s.terms[k]);
          !err.empty())
        return "scenario '" + s.name + "': term " + std::to_string(k) + ": " +
               err;
    for (std::size_t t = 0; t < T; ++t) {
      CompileOptions o = s.options;
      if (!r.targets.empty()) o.target = r.targets[t];
      if (const std::string err = validate_options(s.num_qubits, o);
          !err.empty())
        return "scenario '" + s.name + "': " + err;
    }
  }
  return "";
}

struct PipelineOptions {
  // NOTE: there is deliberately NO positional constructor. Use designated
  // initializers or field assignment.

  /// Worker threads; 0 = hardware concurrency.
  std::size_t workers = 0;
};

class CompilePipeline {
 public:
  explicit CompilePipeline(PipelineOptions options = {})
      : options_(options), pool_(options_.workers) {}

  [[nodiscard]] std::size_t worker_count() const {
    return pool_.worker_count();
  }
  [[nodiscard]] const PipelineOptions& options() const { return options_; }

  /// The entry point: every (scenario, target) cell multi-restarted on
  /// one job queue, reduced deterministically, optionally verified, with
  /// cooperative cancel/deadline checks at restart boundaries. Invalid
  /// requests return kRejected with a diagnostic -- compile() never aborts
  /// on request content, so a serving daemon survives any wire input.
  [[nodiscard]] CompileResponse compile(const CompileRequest& request) {
    obs::Span span("compile_request", "pipeline");
    static obs::Counter& compiles =
        obs::registry().counter("pipeline.compiles");
    compiles.inc();
    CompileResponse out;
    if (std::string err = validate_request(request); !err.empty()) {
      out.status = RequestStatus::kRejected;
      out.detail = std::move(err);
      return out;
    }
    const std::size_t S = request.scenarios.size();
    const std::size_t T = request.targets.empty() ? 1 : request.targets.size();
    const std::size_t R = request.restarts;
    span.arg("scenarios", S);
    span.arg("targets", T);
    span.arg("restarts", R);

    // Expand the (scenario x target) grid into per-cell base options, then
    // fan each cell out into restart jobs on derived seed streams.
    std::vector<CompileOptions> expanded(S * T);
    std::vector<Job> jobs;
    jobs.reserve(S * T * R);
    for (std::size_t i = 0; i < S; ++i) {
      const CompileScenario& s = request.scenarios[i];
      for (std::size_t t = 0; t < T; ++t) {
        CompileOptions base = s.options;
        if (!request.targets.empty()) base.target = request.targets[t];
        if (request.seed.has_value()) base.seed = *request.seed;
        expanded[i * T + t] = base;
        for (std::size_t r = 0; r < R; ++r) {
          Job job{s.num_qubits, &s.terms, base, &s.name, r};
          job.options.seed = opt::restart_seed(base.seed, r);
          jobs.push_back(std::move(job));
        }
      }
    }

    using clock = std::chrono::steady_clock;
    clock::time_point deadline = clock::time_point::max();
    if (request.deadline_at.has_value()) {
      deadline = *request.deadline_at;
    } else if (request.deadline_s > 0.0) {
      deadline = clock::now() +
                 std::chrono::duration_cast<clock::duration>(
                     std::chrono::duration<double>(request.deadline_s));
    }

    JobSlots slots =
        run_jobs(std::move(jobs), request.verify, request.cancel, deadline);

    out.outcomes.reserve(S * T);
    std::size_t done_jobs = 0;
    for (std::size_t cell = 0; cell < S * T; ++cell) {
      ScenarioOutcome oc;
      oc.scenario = request.scenarios[cell / T].name;
      oc.target = expanded[cell].target;
      const auto first = static_cast<std::ptrdiff_t>(cell * R);
      const auto last = static_cast<std::ptrdiff_t>((cell + 1) * R);
      std::vector<CompileResult> slice(
          std::make_move_iterator(slots.results.begin() + first),
          std::make_move_iterator(slots.results.begin() + last));
      oc.result = reduce_restarts(expanded[cell].seed, expanded[cell],
                                  std::move(slice), &slots.completed[cell * R]);
      for (std::size_t r = 0; r < R; ++r)
        if (slots.completed[cell * R + r]) ++oc.restarts_completed;
      done_jobs += oc.restarts_completed;
      if (!slots.verification.empty())
        oc.result.verification.assign(slots.verification.begin() + first,
                                      slots.verification.begin() + last);
      out.outcomes.push_back(std::move(oc));
    }

    const std::size_t total_jobs = S * T * R;
    if (done_jobs == total_jobs) {
      out.status = RequestStatus::kDone;
    } else if (request.cancel != nullptr &&
               request.cancel->load(std::memory_order_relaxed)) {
      out.status = RequestStatus::kCancelled;
      out.detail = "cancelled after " + std::to_string(done_jobs) + " of " +
                   std::to_string(total_jobs) + " restart jobs";
    } else {
      out.status = RequestStatus::kDeadlineExceeded;
      out.detail = "deadline exceeded after " + std::to_string(done_jobs) +
                   " of " + std::to_string(total_jobs) + " restart jobs";
    }
    return out;
  }

 private:
  struct Job {
    std::size_t num_qubits = 0;
    const std::vector<fermion::ExcitationTerm>* terms = nullptr;
    CompileOptions options;
    /// Trace-span labels only; never read by the compiler itself.
    const std::string* scenario_name = nullptr;
    std::size_t restart = 0;
  };

  /// Per-job outputs of run_jobs, all in job order.
  struct JobSlots {
    std::vector<CompileResult> results;
    std::vector<std::uint8_t> completed;
    /// Verdicts, one per job; empty unless the request verified.
    std::vector<verify::EquivalenceReport> verification;
  };

  /// Runs all jobs on the pool (slot-indexed, so output order == input
  /// order). Each job checks the cancel flag and deadline BEFORE running --
  /// the cooperative restart-boundary check -- and either runs to
  /// completion (completed[i] = 1) or is skipped whole (completed[i] = 0).
  /// With verify, each completed job also certifies its emitted circuit
  /// against the recorded spec before returning its slot.
  [[nodiscard]] JobSlots run_jobs(
      std::vector<Job> jobs, bool verify, const std::atomic<bool>* cancel,
      std::chrono::steady_clock::time_point deadline) {
    JobSlots slots;
    slots.results.resize(jobs.size());
    slots.completed.assign(jobs.size(), 1);
    if (verify) slots.verification.resize(jobs.size());
    const verify::EquivalenceChecker checker;
    static obs::Counter& restarts_completed =
        obs::registry().counter("pipeline.restarts_completed");
    static obs::Counter& restarts_skipped =
        obs::registry().counter("pipeline.restarts_skipped");
    pool_.parallel_for(jobs.size(), [&](std::size_t i) {
      if ((cancel != nullptr && cancel->load(std::memory_order_relaxed)) ||
          std::chrono::steady_clock::now() > deadline) {
        slots.completed[i] = 0;
        restarts_skipped.inc();
        if (verify)
          slots.verification[i].detail =
              "not verified: restart job skipped (cancelled or deadline "
              "exceeded)";
        return;
      }
      obs::Span span("restart", "pipeline");
      span.arg("restart", jobs[i].restart);
      if (jobs[i].scenario_name != nullptr)
        span.arg("scenario", *jobs[i].scenario_name);
      span.arg("target", jobs[i].options.target.name);
      const CompileOptions& options = jobs[i].options;
      CompileResult& result = slots.results[i];
      result = compile_vqe(jobs[i].num_qubits, *jobs[i].terms, options);
      if (FEMTO_FAILPOINT("pipeline.restart")) {
        // Injected transient fault at the restart boundary: throw the
        // finished job away and recompute it. compile_vqe is a pure
        // function of (scenario, derived seed), so the retry is
        // bit-identical -- chaos runs pin exactly that.
        static obs::Counter& restart_retries =
            obs::registry().counter("pipeline.restart_retries");
        restart_retries.inc();
        result = compile_vqe(jobs[i].num_qubits, *jobs[i].terms, options);
      }
      restarts_completed.inc();
      if (verify) {
        obs::Span vspan("verify", "pipeline");
        vspan.arg("restart", jobs[i].restart);
        if (options.emit_circuit) {
          // Certify the final artifact: on non-default targets that is the
          // lowered/routed circuit, so the routing pass and native-gate
          // lowering sit INSIDE the verified boundary.
          slots.verification[i] =
              checker.check_spec(result.final_circuit(), result.spec);
        } else {
          // Nothing to certify: say so instead of leaving a blank report
          // that reads like a silent failure.
          slots.verification[i].detail =
              "not verified: no circuit emitted (emit_circuit = false)";
        }
      }
    });
    return slots;
  }

  /// The figure of merit a restart is ranked by: the historical model-CNOT
  /// count on the default target (bit-identical winner selection), the
  /// exact device cost of the lowered/routed artifact on other targets
  /// (falling back to the closed-form model when nothing was emitted) --
  /// the pipeline keeps the plan that is best for the DEVICE it compiled
  /// for, matching the objectives the stochastic stages optimized.
  [[nodiscard]] static int ranking_cost(const CompileResult& r,
                                        const CompileOptions& options) {
    if (options.target.is_all_to_all_cnot()) return r.model_cnots;
    return options.emit_circuit ? r.device_cost : r.model_cost;
  }

  /// Deterministic winner selection over the COMPLETED restarts:
  /// (ranking_cost, restart index). Skipped restarts keep their report slot
  /// (completed = false) but never compete.
  [[nodiscard]] static MultiStartResult reduce_restarts(
      std::uint64_t master_seed, const CompileOptions& options,
      std::vector<CompileResult> results, const std::uint8_t* completed) {
    MultiStartResult out;
    out.restarts.reserve(results.size());
    int best_cost = 0;
    bool have_best = false;
    for (std::size_t r = 0; r < results.size(); ++r) {
      const bool ok = completed[r] != 0;
      out.restarts.push_back({opt::restart_seed(master_seed, r),
                              results[r].model_cnots, results[r].model_cost,
                              results[r].device_cost, ok});
      if (!ok) continue;
      const int cost = ranking_cost(results[r], options);
      if (!have_best || cost < best_cost) {
        have_best = true;
        best_cost = cost;
        out.best = std::move(results[r]);
        out.best_restart = r;
      }
    }
    return out;
  }

  PipelineOptions options_;
  ThreadPool pool_;
};

}  // namespace femto::core
