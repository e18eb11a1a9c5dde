// perfbench: one run of one workload of the repository benchmark.
//
//   perfbench --workload table1|serve_unique|serve_repeat --seed N
//             --seconds S --trace 0|1 --femtod PATH --expected PATH
//             --run-dir DIR [--daemon-fault kill|stop]
//
// Workloads (BENCHMARK.json records why each was chosen):
//   table1        the Table-1 rows x {JW, BK, GT, Adv}, each a single-shot
//                 core::compile_vqe at the table1_column_options budgets,
//                 run sequentially in-process in a seeded order. No serving
//                 and no synthesis cache. Its latency is per row (the four
//                 compiles of one line of the table).
//   serve_unique  a closed loop of 2 client connections against a femtod
//                 child (--workers 2). Each request is one Adv Table-1
//                 scenario (restarts 2, verify on, circuit shipped) with a
//                 compile seed of its own, so no request repeats. --seed
//                 sets the order; the compile seeds are the same in every
//                 run, so every run times the same requests.
//   serve_repeat  the same mix and clients, but one fixed seed: after the
//                 first touch of each scenario every request repeats bytes
//                 the daemon has already served.
//
// peak_rss_mb is the compiling process's peak memory after a fixed amount of
// work (one table1 sweep; femtod after its first 52 served plans), so a
// faster program that serves more requests in the window does not read as
// using more memory.
//
// Work is measured in whole units -- a sweep of every table1 cell, or a
// round of every served scenario in a seeded order -- so each run measures
// the same mix. Another unit starts only while it is expected to end within
// --seconds; at least one always runs.
//
// --trace 0 prints the end-to-end metrics, measured with tracing off.
// --trace 1 measures an untraced and a traced half window and prints the
// per-layer ledger: self time of each layer from the program's own spans,
// the solver and cache counters the program exports, and the protocol and
// verifier layers timed from here. Spans stay in memory and are written as
// Chrome trace JSON once, at the end (femtod writes its own per request).
//
// Correctness is checked in the same run, outside the timed window: table1
// counts must equal the expected-count file; every served outcome must be
// DONE, verified, and byte-identical to the same seeded request compiled
// in-process. Every failure counts in `failed`.
//
// A served request without an answer -- the daemon died, or it sent
// nothing for kRequestTimeoutMs -- ends the window: it and the other
// client's request in flight count as failed, and no further request is
// sent. --daemon-fault exists for the smoke self-check in run.py only: it
// SIGKILLs (kill) or SIGSTOPs (stop) femtod kFaultAfterS into the untraced
// window.
//
// The last line of stdout is the JSON result; the lines before it are the
// human-readable report.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "bench_fixtures.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/pipeline.hpp"
#include "daemon.hpp"
#include "ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "verify/equivalence.hpp"

namespace {

using namespace femto;
namespace json = femto::service::json;
using Clock = std::chrono::steady_clock;
using perfbench::Daemon;
using perfbench::Ledger;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kClients = 2;
constexpr std::size_t kRestarts = 2;
/// The largest served compile takes about 1 s and queues about 1 s more; a
/// request still unanswered after this long means the daemon is hung.
constexpr int kRequestTimeoutMs = 15000;
constexpr double kFaultAfterS = 0.5;
constexpr int kSetupRepeats = 15;
/// Served plans after which femtod's peak memory is read: memory grows with
/// the requests served, so it is compared after a fixed amount of work, not
/// after however much work the time window allowed.
constexpr std::size_t kRssAfterPlans = 52;
constexpr std::uint64_t kCompileSeed = 20230306;
const char* const kColumns[4] = {"JW", "BK", "GT", "Adv"};
const char* const kColumnKeys[4] = {"jw", "bk", "gt", "adv"};

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Linear-interpolation quantile (numpy's default); 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

void print_samples(const char* what, const std::vector<double>& v) {
  std::printf("%s samples:", what);
  for (double x : v) std::printf(" %.4f", x);
  std::printf("\n");
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Deterministic Fisher-Yates permutation of 0..n-1 from `seed`.
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  std::uint64_t state = seed;
  for (std::size_t i = n; i > 1; --i) {
    state = splitmix64(state);
    std::swap(p[i - 1], p[state % i]);
  }
  return p;
}

double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double process_peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---------------------------------------------------------------------------
// Result: the report lines and the final JSON object.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }

  void fail(const std::string& why) {
    correct = false;
    std::printf("FAIL: %s\n", why.c_str());
  }

  void print() const {
    std::printf("\n%-40s %18s  %s\n", "metric", "value", "unit");
    for (const Metric& m : metrics)
      std::printf("%-40s %18.6f  %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    std::printf("error_rate %.6f (failed %llu of %llu attempted)\n",
                ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    json::Value out = json::Value::object();
    out.set("correct", json::Value::boolean(correct && failed == 0));
    out.set("attempted", json::Value::number(attempted));
    out.set("failed", json::Value::number(failed));
    json::Value ms = json::Value::object();
    for (const Metric& m : metrics) {
      json::Value v = json::Value::object();
      v.set("value", json::Value::number(m.value));
      v.set("unit", json::Value::string(m.unit));
      ms.set(m.name, std::move(v));
    }
    out.set("metrics", std::move(ms));
    std::printf("%s\n", out.encode().c_str());
    std::fflush(stdout);
  }
};

// ---------------------------------------------------------------------------
// Chemistry fixtures.

std::optional<chem::Molecule> molecule_by_name(const std::string& name) {
  for (const chem::Molecule& m : {chem::make_hf(), chem::make_lih(),
                                  chem::make_beh2(), chem::make_nh3(),
                                  chem::make_h2o()})
    if (m.name == name) return m;
  return std::nullopt;
}

/// One cold pass of the fixture chain (STO-3G -> RHF -> MO -> HMP2-ranked
/// UCCSD terms) over `molecules`, through the chemistry layer's public
/// functions, as bench_fixtures.hpp builds them. Returns the wall seconds;
/// `matches` turns false if a chain disagrees with the shared fixture.
double fixture_pass(const std::vector<chem::Molecule>& molecules,
                    bool& matches) {
  const auto start = Clock::now();
  std::vector<std::vector<fermion::ExcitationTerm>> built;
  for (const chem::Molecule& mol : molecules) {
    auto basis = chem::build_sto3g(mol);
    chem::normalize_basis(basis);
    const auto ints = chem::compute_integrals(mol, basis);
    const auto scf = chem::run_rhf(mol, ints);
    const auto mo = chem::transform_to_mo(mol, ints, scf);
    const auto so = chem::to_spin_orbitals(mo);
    built.push_back(vqe::uccsd_hmp2_terms(so));
  }
  const double elapsed = seconds_since(start);
  for (std::size_t i = 0; i < molecules.size(); ++i) {
    const bench::TermFixture& shared = bench::molecule_terms(molecules[i]);
    bool same = shared.terms.size() == built[i].size();
    for (std::size_t t = 0; same && t < built[i].size(); ++t)
      same = service::protocol::encode_term(built[i][t]).encode() ==
             service::protocol::encode_term(shared.terms[t]).encode();
    matches = matches && same;
  }
  return elapsed;
}

// ---------------------------------------------------------------------------
// The per-layer ledger, shared by every workload.

/// Everything a traced run reports, filled by the workloads.
struct LayerInputs {
  Ledger ledger;
  double traced_wall_s = 0.0;
  double untraced_wall_s = 0.0;
  double traced_plans = 0.0;
  double untraced_plans = 0.0;
  double threads = 1.0;  // threads that execute compile work
  // Counter deltas over the untraced half window.
  double sa_steps = 0.0, gtsp_generations = 0.0, gtsp_solves = 0.0;
  double cache_l1_hits = 0.0, cache_lookups = 0.0;
  double busy_frac = 0.0;
  double coalesce_ratio = 0.0;
  double repeat_share = 0.0;
  // Service and protocol layers (serve workloads only).
  std::vector<double> queue_wait_s;
  double run_s = 0.0, transport_s = 0.0;
  double client_encode_s = 0.0, client_decode_s = 0.0;
  double check_spec_s = 0.0;
  double fixture_s = 0.0;
};

void add_layer_metrics(Result& result, const LayerInputs& in) {
  const Ledger& l = in.ledger;
  const double plans = std::max(in.traced_plans, 1.0);
  const double capacity = in.traced_wall_s * in.threads;
  auto layer = [&](const std::string& metric, double self_s) {
    result.add(metric + "_s", self_s / plans, "s");
    result.add(metric + "_share", ratio(self_s, capacity), "ratio");
  };
  for (const char* stage : {"stage_plan", "stage_transform", "stage_emit"})
    for (const char* col : kColumnKeys)
      layer(std::string("core.") + stage + "." + col, l.self_s(stage, col));
  layer("opt.gamma_sa", l.self_s("gamma_sa"));
  layer("opt.gtsp_ga", l.self_s("gtsp_ga"));
  layer("verify.pipeline", l.self_s("verify"));
  // compile_request's self time leaves out its wait for restarts on other
  // threads (ledger.hpp), so glue is pipeline work, not restart imbalance.
  layer("core.pipeline_glue", l.self_s("restart") +
                                  l.self_s("compile_request") +
                                  l.self_s("run"));
  // Coverage leaves out the spans that are not program work: the
  // benchmark's own wrapper around compile_vqe, queue wait (it overlaps
  // other requests' execution) and the service's request envelope.
  result.add("core.ledger_coverage",
             ratio(l.self_s_excluding({"compile_vqe", "queue_wait", "request"}),
                   capacity),
             "ratio");
  result.add("obs.trace_overhead",
             ratio(ratio(in.traced_wall_s, in.traced_plans),
                   ratio(in.untraced_wall_s, in.untraced_plans)),
             "ratio");
  const double uplans = std::max(in.untraced_plans, 1.0);
  result.add("opt.sa_steps", in.sa_steps / uplans, "count");
  result.add("opt.gtsp_generations", in.gtsp_generations / uplans, "count");
  result.add("opt.gtsp_solves", in.gtsp_solves / uplans, "count");
  result.add("synth.cache_hit_ratio",
             ratio(in.cache_l1_hits, in.cache_lookups), "ratio");
  result.add("core.pipeline.busy_frac", in.busy_frac, "ratio");
  result.add("service.queue_wait_p50_s", quantile(in.queue_wait_s, 0.50), "s");
  result.add("service.queue_wait_p95_s", quantile(in.queue_wait_s, 0.95), "s");
  result.add("service.run_s", in.run_s, "s");
  result.add("service.transport_s", in.transport_s, "s");
  result.add("service.client_encode_s", in.client_encode_s, "s");
  result.add("service.client_decode_s", in.client_decode_s, "s");
  result.add("service.coalesce_ratio", in.coalesce_ratio, "ratio");
  result.add("service.repeat_share", in.repeat_share, "ratio");
  result.add("verify.check_spec_s", in.check_spec_s, "s");
  result.add("chem.fixture_s", in.fixture_s, "s");

  std::printf("\nledger (self time of the traced window, %.3f s wall x %.0f "
              "thread(s), %.0f plans)\n",
              in.traced_wall_s, in.threads, in.traced_plans);
  std::printf("%-22s %-6s %12s %8s\n", "span", "column", "self_s", "share");
  for (const auto& [key, s] : l.self_table())
    std::printf("%-22s %-6s %12.6f %8.4f\n", key.first.c_str(),
                key.second.c_str(), s, ratio(s, capacity));
}

// ---------------------------------------------------------------------------
// Options.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string femtod;
  std::string expected;
  std::string run_dir;
  std::string daemon_fault;  // "", "kill" or "stop"
};

// ---------------------------------------------------------------------------
// table1: in-process Table-1 sweeps.

struct Table1Row {
  std::string label;
  chem::Molecule molecule;
  std::size_t ne = 0;
  int expected[4] = {0, 0, 0, 0};
  bench::TermFixture fixture;
};

bool load_expected(const std::string& path, std::vector<Table1Row>& rows,
                   std::string& err) {
  const std::optional<json::Value> doc = json::parse(read_file(path), &err);
  const json::Value* list =
      doc.has_value() && doc->is_object() ? doc->find("rows") : nullptr;
  if (list == nullptr || !list->is_array()) {
    if (err.empty()) err = "expected-count file without a rows array";
    return false;
  }
  for (const json::Value& r : list->items()) {
    const json::Value* label = r.find("label");
    const json::Value* mol = r.find("molecule");
    const json::Value* ne = r.find("ne");
    if (label == nullptr || !label->is_string() || mol == nullptr ||
        !mol->is_string() || ne == nullptr || !ne->as_u64().has_value()) {
      err = "expected-count row without label/molecule/ne";
      return false;
    }
    const std::optional<chem::Molecule> m = molecule_by_name(mol->as_string());
    if (!m.has_value()) {
      err = "unknown molecule " + mol->as_string();
      return false;
    }
    Table1Row row{label->as_string(), *m,
                  static_cast<std::size_t>(*ne->as_u64()), {}, {}};
    for (int c = 0; c < 4; ++c) {
      const json::Value* count = r.find(kColumns[c]);
      if (count == nullptr || !count->as_int().has_value()) {
        err = "row " + row.label + " has no " + kColumns[c] + " count";
        return false;
      }
      row.expected[c] = *count->as_int();
    }
    rows.push_back(std::move(row));
  }
  return !rows.empty();
}

struct SweepOutcome {
  std::vector<double> latencies_ms;
  int totals[4] = {0, 0, 0, 0};
  std::uint64_t plans = 0;
  std::uint64_t mismatches = 0;
};

/// One sweep of every Table-1 row, rows and the columns within a row in a
/// seeded order. A row's latency is the time to compile its four cells --
/// what a user waits for one line of the table. Each call is wrapped in a
/// `compile_vqe` span carrying its column, so the program's stage spans
/// inherit it in the ledger.
SweepOutcome run_sweep(const std::vector<Table1Row>& rows,
                       std::uint64_t order_seed) {
  SweepOutcome out;
  for (std::size_t r : permutation(rows.size(), order_seed)) {
    const Table1Row& row = rows[r];
    const auto start = Clock::now();
    for (std::size_t col : permutation(4, splitmix64(order_seed + r + 1))) {
      const int c = static_cast<int>(col);
      int cnots = 0;
      {
        obs::Span span("compile_vqe", "bench");
        span.arg("column", std::string_view(kColumnKeys[c]));
        span.arg("row", std::string_view(row.label));
        cnots = core::compile_vqe(
                    row.fixture.n, row.fixture.terms,
                    bench::table1_column_options(kColumns[c],
                                                 row.fixture.terms.size()))
                    .model_cnots;
      }
      out.totals[c] += cnots;
      ++out.plans;
      if (cnots != row.expected[c]) {
        ++out.mismatches;
        std::printf("FAIL: %s/%s model CNOTs %d, expected %d\n",
                    row.label.c_str(), kColumns[c], cnots, row.expected[c]);
      }
    }
    out.latencies_ms.push_back(1e3 * seconds_since(start));
  }
  return out;
}

struct Window {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> latencies_ms;
  std::uint64_t plans = 0;
  std::uint64_t failed = 0;
  std::uint64_t sweeps = 0;
  int totals[4] = {0, 0, 0, 0};  // of the first sweep
};

Window table1_window(const std::vector<Table1Row>& rows, std::uint64_t seed,
                     double budget_s) {
  Window w;
  const double cpu0 = process_cpu_s();
  const auto start = Clock::now();
  double last = 0.0;
  while (w.sweeps == 0 || seconds_since(start) + last <= budget_s) {
    const auto sweep_start = Clock::now();
    const SweepOutcome s = run_sweep(rows, splitmix64(seed + w.sweeps));
    last = seconds_since(sweep_start);
    if (w.sweeps == 0) std::copy(s.totals, s.totals + 4, w.totals);
    ++w.sweeps;
    w.plans += s.plans;
    w.failed += s.mismatches;
    w.latencies_ms.insert(w.latencies_ms.end(), s.latencies_ms.begin(),
                          s.latencies_ms.end());
  }
  w.wall_s = seconds_since(start);
  w.cpu_s = process_cpu_s() - cpu0;
  return w;
}

std::uint64_t counter(const obs::MetricsSnapshot& snap, const char* name) {
  for (const auto& [n, v] : snap.counters)
    if (n == name) return v;
  return 0;
}

int run_table1(const Options& opt, Result& result) {
  std::vector<Table1Row> rows;
  std::string err;
  if (!load_expected(opt.expected, rows, err)) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.expected.c_str(),
                 err.c_str());
    return 2;
  }

  // Set-up: the cold fixture chain, several times; the shared cache is
  // filled by the first comparison and used by the sweeps.
  std::vector<chem::Molecule> molecules;
  std::set<std::string> seen;
  for (const Table1Row& r : rows)
    if (seen.insert(r.molecule.name).second) molecules.push_back(r.molecule);
  std::vector<double> setups;
  bool fixtures_match = true;
  for (int i = 0; i < kSetupRepeats; ++i)
    setups.push_back(fixture_pass(molecules, fixtures_match));
  if (!fixtures_match) result.fail("fixture chain disagrees with bench fixtures");
  for (Table1Row& r : rows) r.fixture = bench::molecule_fixture(r.molecule, r.ne);
  const double setup_s = quantile(setups, 0.5);
  print_samples("setup_s", setups);

  if (!opt.trace) {
    const Window w = table1_window(rows, opt.seed, opt.seconds);
    result.attempted = w.plans;
    result.failed = w.failed;
    std::printf("table1: %llu sweep(s) of %zu plans in %.3f s; row latency "
                "samples %zu\n",
                static_cast<unsigned long long>(w.sweeps), rows.size() * 4,
                w.wall_s, w.latencies_ms.size());
    for (int c = 0; c < 4; ++c)
      std::printf("cnots_%s_total %d count\n", kColumnKeys[c], w.totals[c]);
    result.add("setup_s", setup_s, "s");
    result.add("plans_per_s", ratio(static_cast<double>(w.plans), w.wall_s),
               "1/s");
    result.add("latency_p50_ms", quantile(w.latencies_ms, 0.50), "ms");
    result.add("latency_p95_ms", quantile(w.latencies_ms, 0.95), "ms");
    result.add("cpu_s_per_plan", ratio(w.cpu_s, static_cast<double>(w.plans)),
               "s");
    result.add("peak_rss_mb", process_peak_rss_mb(), "MiB");
    result.add("cnots_adv_total", w.totals[3], "count");
    return 0;
  }

  LayerInputs in;
  in.fixture_s = setup_s;
  const obs::MetricsSnapshot before = obs::registry().snapshot();
  const Window plain = table1_window(rows, opt.seed, opt.seconds / 2);
  const obs::MetricsSnapshot after = obs::registry().snapshot();
  obs::Tracer tracer;
  obs::Tracer::set_active(&tracer);
  const Window traced = table1_window(rows, opt.seed, opt.seconds / 2);
  obs::Tracer::set_active(nullptr);
  const std::string trace_json = tracer.to_json();
  {
    std::ofstream out(opt.run_dir + "/trace-table1.json", std::ios::binary);
    out << trace_json;
  }
  if (!in.ledger.add_trace(trace_json, "", err)) result.fail("trace: " + err);
  result.attempted = plain.plans + traced.plans;
  result.failed = plain.failed + traced.failed;
  in.traced_wall_s = traced.wall_s;
  in.untraced_wall_s = plain.wall_s;
  in.traced_plans = static_cast<double>(traced.plans);
  in.untraced_plans = static_cast<double>(plain.plans);
  in.threads = 1.0;
  in.sa_steps = static_cast<double>(counter(after, "solver.sa_steps") -
                                    counter(before, "solver.sa_steps"));
  in.gtsp_generations =
      static_cast<double>(counter(after, "solver.gtsp_generations") -
                          counter(before, "solver.gtsp_generations"));
  in.gtsp_solves = static_cast<double>(counter(after, "solver.gtsp_solves") -
                                       counter(before, "solver.gtsp_solves"));
  in.busy_frac = ratio(plain.cpu_s, plain.wall_s);
  add_layer_metrics(result, in);
  return 0;
}

// ---------------------------------------------------------------------------
// serve_unique / serve_repeat: closed-loop load on a femtod child.

/// The shared, seeded request sequence: consecutive rounds, each a seeded
/// permutation of every scenario. Clients pull indices from it; a new
/// round starts only while it is expected to end within the budget.
class RequestStream {
 public:
  RequestStream(std::size_t scenarios, std::uint64_t seed, bool repeat,
                double budget_s)
      : n_(scenarios), seed_(seed), repeat_(repeat), budget_s_(budget_s),
        start_(Clock::now()) {}

  std::optional<std::size_t> next() {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return std::nullopt;
    const std::size_t k = next_;
    if (k > 0 && k % n_ == 0) {
      const double elapsed = seconds_since(start_);
      const double per_round = elapsed / static_cast<double>(k / n_);
      if (elapsed + per_round > budget_s_) {
        stopped_ = true;
        return std::nullopt;
      }
    }
    ++next_;
    return k;
  }

  void abort() {
    const std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }

  [[nodiscard]] std::size_t scenario(std::size_t k) const {
    return permutation(n_, splitmix64(seed_ ^ (0x5851f42d4c957f2dULL * (k / n_ + 1))))[k % n_];
  }

  /// Compile seeds do not depend on --seed, which sets only the order:
  /// compile cost varies with the compile seed, so a per-run seed would make
  /// each run time a different set of requests. serve_repeat compiles every
  /// request under one fixed seed; serve_unique gives each (round,
  /// scenario) a seed of its own, so no request of a run repeats.
  [[nodiscard]] std::uint64_t request_seed(std::size_t k) const {
    if (repeat_) return kCompileSeed;
    const std::size_t slot = k / n_ * n_ + scenario(k);
    return splitmix64(kCompileSeed + 0x9e3779b97f4a7c15ULL * (slot + 1));
  }

 private:
  const std::size_t n_;
  const std::uint64_t seed_;
  const bool repeat_;
  const double budget_s_;
  const Clock::time_point start_;
  std::mutex mu_;
  std::size_t next_ = 0;
  bool stopped_ = false;
};

struct Sample {
  std::size_t index = 0;  // position in the request stream
  std::size_t scenario = 0;
  std::uint64_t seed = 0;
  double latency_ms = 0.0;
  double done_s = 0.0;  // completion, seconds into the window
  bool answered = false;  // a result line arrived
  bool done = false;      // DONE, one outcome, verified
  bool coalesced = false;
  std::string canonical;
  std::string error;
};

core::CompileRequest make_request(const core::CompileScenario& scenario,
                                  std::uint64_t seed) {
  return {.scenarios = {scenario},
          .restarts = kRestarts,
          .seed = seed,
          .verify = true};
}

struct ServeWindow {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<Sample> samples;
  std::uint64_t plans = 0;
  double peak_rss_mb = 0.0;  // of femtod, after kRssAfterPlans or at the end
  std::optional<json::Value> stats_before, stats_after;
  std::optional<json::Value> metrics_before, metrics_after;
};

double json_number(const std::optional<json::Value>& v,
                   std::initializer_list<const char*> path) {
  const json::Value* cur = v.has_value() ? &*v : nullptr;
  for (const char* key : path) {
    if (cur == nullptr || !cur->is_object()) return 0.0;
    cur = cur->find(key);
  }
  return cur != nullptr && cur->is_number() ? cur->as_double() : 0.0;
}

double delta(const ServeWindow& w, bool metrics,
             std::initializer_list<const char*> path) {
  return metrics ? json_number(w.metrics_after, path) -
                       json_number(w.metrics_before, path)
                 : json_number(w.stats_after, path) -
                       json_number(w.stats_before, path);
}

ServeWindow serve_window(Daemon& daemon,
                         const std::vector<core::CompileScenario>& scenarios,
                         std::uint64_t seed, bool repeat, double budget_s,
                         const std::string& fault) {
  ServeWindow w;
  w.stats_before = daemon.admin("stats");
  w.metrics_before = daemon.admin("metrics");
  RequestStream stream(scenarios.size(), seed, repeat, budget_s);
  std::mutex samples_mu;
  const pid_t pid = daemon.pid();
  const double cpu0 = daemon.cpu_s();
  const auto start = Clock::now();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      service::CompileClient client{service::ClientConnection{}};
      std::size_t sent = 0;
      while (const std::optional<std::size_t> k = stream.next()) {
        Sample s;
        s.index = *k;
        s.scenario = stream.scenario(*k);
        s.seed = stream.request_seed(*k);
        if (!client.connection().connected() &&
            !client.connection().connect(daemon.socket()).empty()) {
          // The daemon is gone: this and every later request is unanswered.
          s.error = "cannot connect to femtod";
          stream.abort();
        } else {
          const auto t0 = Clock::now();
          std::optional<service::Served> served = client.compile(
              make_request(scenarios[s.scenario], s.seed),
              "c" + std::to_string(c) + "-" + std::to_string(sent++), s.error,
              /*include_circuit=*/true, kRequestTimeoutMs);
          s.latency_ms = 1e3 * seconds_since(t0);
          s.done_s = seconds_since(start);
          if (served.has_value()) {
            s.answered = true;
            s.coalesced = served->coalesced;
            s.done = served->state == service::RequestState::kDone &&
                     served->response.outcomes.size() == 1 &&
                     served->response.outcomes[0].verified == true;
            if (!s.done) s.error = "not DONE and verified";
            s.canonical = std::move(served->canonical_response);
          } else {
            // Timed out, disconnected or torn: the daemon cannot be trusted
            // with more requests, so the window ends here.
            client.connection().close();
            stream.abort();
          }
        }
        const std::lock_guard<std::mutex> lock(samples_mu);
        w.samples.push_back(std::move(s));
        if (w.samples.size() == kRssAfterPlans)
          w.peak_rss_mb = Daemon::peak_rss_mb(pid);
      }
    });
  }
  if (!fault.empty()) {
    std::this_thread::sleep_for(std::chrono::duration<double>(kFaultAfterS));
    if (fault == "kill") daemon.kill_now();
    else daemon.suspend();
  }
  for (std::thread& t : clients) t.join();
  w.wall_s = seconds_since(start);
  w.cpu_s = daemon.cpu_s() - cpu0;
  if (w.samples.size() < kRssAfterPlans) w.peak_rss_mb = Daemon::peak_rss_mb(pid);
  w.stats_after = daemon.admin("stats");
  w.metrics_after = daemon.admin("metrics");
  for (const Sample& s : w.samples)
    if (s.done) ++w.plans;
  return w;
}

/// Boots a daemon and waits for its first successful ping; the boot time
/// goes to `boot_s`.
std::unique_ptr<Daemon> boot(const Options& opt, const std::string& trace_dir,
                             double& boot_s) {
  const auto start = Clock::now();
  auto daemon = std::make_unique<Daemon>(opt.femtod, opt.run_dir + "/femtod.sock",
                                         kWorkers, trace_dir,
                                         opt.run_dir + "/femtod.log");
  const bool ready = daemon->wait_ready(30000);
  boot_s = seconds_since(start);
  if (!ready) return nullptr;
  return daemon;
}

/// Canonical wire bytes of an in-process response, as femtod would send them.
std::string canonical(const core::CompileResponse& response) {
  return service::protocol::encode_response(
             service::protocol::summarize(response, /*include_circuit=*/true))
      .encode();
}

struct Reference {
  std::string canonical;
  double check_spec_s = 0.0;
};

/// In-process copies of every distinct served (scenario, seed), computed on
/// all cores after the timed windows. With `time_verify`, also times the
/// verifier's check_spec on each winning artifact.
std::map<std::pair<std::size_t, std::uint64_t>, Reference> references(
    const std::vector<core::CompileScenario>& scenarios,
    const std::vector<const ServeWindow*>& windows, bool time_verify) {
  std::map<std::pair<std::size_t, std::uint64_t>, Reference> refs;
  for (const ServeWindow* w : windows)
    for (const Sample& s : w->samples)
      if (s.answered) refs[{s.scenario, s.seed}];
  std::vector<std::pair<const std::pair<std::size_t, std::uint64_t>, Reference>*>
      todo;
  for (auto& entry : refs) todo.push_back(&entry);
  std::atomic<std::size_t> next{0};
  const std::size_t threads = std::max<std::size_t>(
      1, std::min<std::size_t>(std::thread::hardware_concurrency(), 4));
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      core::CompilePipeline pipeline({.workers = 1});
      const verify::EquivalenceChecker checker;
      for (std::size_t i = next++; i < todo.size(); i = next++) {
        auto& [key, ref] = *todo[i];
        const core::CompileResponse response =
            pipeline.compile(make_request(scenarios[key.first], key.second));
        ref.canonical = canonical(response);
        if (time_verify && !response.outcomes.empty()) {
          const core::CompileResult& best = response.outcomes[0].result.best;
          const auto t0 = Clock::now();
          const verify::EquivalenceReport report =
              checker.check_spec(best.final_circuit(), best.spec);
          ref.check_spec_s = seconds_since(t0);
          if (!report.equivalent()) ref.canonical = "not equivalent";
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return refs;
}

/// Share of a window's requests whose bytes were already sent before in it.
double repeat_share(const ServeWindow& w) {
  std::set<std::pair<std::size_t, std::uint64_t>> seen;
  std::size_t repeats = 0;
  for (const Sample& s : w.samples)
    if (!seen.insert({s.scenario, s.seed}).second) ++repeats;
  return ratio(static_cast<double>(repeats),
               static_cast<double>(w.samples.size()));
}

int run_serve(const Options& opt, bool repeat, Result& result) {
  // Set-up: every chemistry fixture and scenario is built here, before any
  // client thread exists (bench_fixtures.hpp's lazy cache is unguarded).
  std::vector<core::CompileScenario> scenarios;
  for (core::CompileScenario& s : bench::suite_scenarios("table1"))
    if (s.name.size() > 4 && s.name.compare(s.name.size() - 4, 4, "/Adv") == 0)
      scenarios.push_back(std::move(s));
  if (scenarios.empty()) {
    std::fprintf(stderr, "perfbench: no Adv scenarios in the table1 suite\n");
    return 2;
  }
  const std::vector<chem::Molecule> molecules = {
      chem::make_hf(), chem::make_lih(), chem::make_beh2(), chem::make_h2o()};
  std::vector<double> setups, fixtures;
  bool fixtures_match = true;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (daemon != nullptr) daemon->stop();
    const double f = fixture_pass(molecules, fixtures_match);
    double boot_s = 0.0;
    daemon = boot(opt, "", boot_s);
    if (daemon == nullptr) {
      std::fprintf(stderr, "perfbench: femtod did not answer ping\n");
      return 2;
    }
    fixtures.push_back(f);
    setups.push_back(f + boot_s);
  }
  if (!fixtures_match) result.fail("fixture chain disagrees with bench fixtures");
  const double setup_s = quantile(setups, 0.5);
  print_samples("setup_s", setups);

  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  const ServeWindow plain = serve_window(*daemon, scenarios, opt.seed, repeat,
                                         budget, opt.daemon_fault);
  // The daemon publishes its SIMD dispatch level once it has compiled.
  std::printf("context: femtod sim.simd_level=%.0f (0 portable, 1 avx2, 2 "
              "avx512)\n",
              json_number(plain.metrics_after, {"gauges", "sim.simd_level"}));
  daemon->stop();
  daemon.reset();

  std::optional<ServeWindow> traced;
  const std::string trace_dir = opt.run_dir + "/femtod-traces";
  if (opt.trace) {
    double boot_s = 0.0;
    daemon = boot(opt, trace_dir, boot_s);
    if (daemon == nullptr) {
      std::fprintf(stderr, "perfbench: traced femtod did not answer ping\n");
      return 2;
    }
    traced = serve_window(*daemon, scenarios, opt.seed, repeat, budget, "");
    daemon->stop();
    daemon.reset();
  }

  std::vector<const ServeWindow*> windows = {&plain};
  if (traced.has_value()) windows.push_back(&*traced);
  const auto refs = references(scenarios, windows, opt.trace);
  for (const ServeWindow* w : windows) {
    for (const Sample& s : w->samples) {
      ++result.attempted;
      std::string why = s.error;
      if (why.empty() && !s.answered) why = "unanswered";
      if (why.empty() &&
          s.canonical != refs.at({s.scenario, s.seed}).canonical)
        why = "served bytes differ from the in-process compile";
      if (!why.empty()) {
        ++result.failed;
        if (result.failed <= 5)
          std::printf("FAIL: %s seed %llu: %s\n",
                      scenarios[s.scenario].name.c_str(),
                      static_cast<unsigned long long>(s.seed), why.c_str());
      }
    }
  }

  if (!opt.trace) {
    std::vector<double> latencies;
    int adv_total = 0;
    for (const Sample& s : plain.samples)
      if (s.done) latencies.push_back(s.latency_ms);
    // Adv CNOTs of the first round: every run compiles the same requests
    // in it, so the sum is exact.
    for (const Sample& s : plain.samples) {
      service::protocol::WireResponse wire;
      std::string err;
      const std::optional<json::Value> v = json::parse(s.canonical, &err);
      if (s.index < scenarios.size() && s.done && v.has_value() &&
          service::protocol::decode_response(*v, wire, err))
        adv_total += wire.outcomes[0].model_cnots;
    }
    const std::size_t rounds = plain.samples.size() / scenarios.size();
    {
      // Completion time of each round's last request, as a steadiness check.
      std::vector<double> ends(rounds, 0.0);
      for (std::size_t i = 0; i < plain.samples.size(); ++i) {
        const std::size_t r = i / scenarios.size();
        if (r < rounds) ends[r] = std::max(ends[r], plain.samples[i].done_s);
      }
      std::printf("round seconds:");
      double prev = 0.0;
      for (double e : ends) {
        std::printf(" %.3f", e - prev);
        prev = e;
      }
      std::printf("\n");
    }
    std::printf("%s: %zu requests (%zu rounds of %zu scenarios) in %.3f s; "
                "latency samples %zu; service.repeat_share %.4f\n",
                opt.workload.c_str(), plain.samples.size(), rounds,
                scenarios.size(), plain.wall_s, latencies.size(),
                repeat_share(plain));
    result.add("setup_s", setup_s, "s");
    result.add("plans_per_s",
               ratio(static_cast<double>(plain.plans), plain.wall_s), "1/s");
    result.add("latency_p50_ms", quantile(latencies, 0.50), "ms");
    result.add("latency_p95_ms", quantile(latencies, 0.95), "ms");
    result.add("cpu_s_per_plan",
               ratio(plain.cpu_s, static_cast<double>(plain.plans)), "s");
    result.add("peak_rss_mb", plain.peak_rss_mb, "MiB");
    result.add("cnots_adv_total", adv_total, "count");
    return 0;
  }

  LayerInputs in;
  in.fixture_s = quantile(fixtures, 0.5);
  std::string err;
  // femtod wrote one Chrome trace per request; the ledger reads each, and
  // they are merged into one file with a process row per request.
  json::Value merged = json::Value::array();
  std::uint64_t request_pid = 0;
  if (std::filesystem::is_directory(trace_dir)) {
    for (const auto& entry : std::filesystem::directory_iterator(trace_dir)) {
      const std::string text = read_file(entry.path().string());
      if (!in.ledger.add_trace(text, "adv", err)) {
        result.fail("trace " + entry.path().string() + ": " + err);
        continue;
      }
      ++request_pid;
      const std::optional<json::Value> doc = json::parse(text);
      for (const json::Value& e : doc->find("traceEvents")->items()) {
        json::Value event = json::Value::object();
        for (const json::Member& m : e.members())
          if (m.first != "pid") event.set(m.first, m.second);
        event.set("pid", json::Value::number(request_pid));
        merged.push(std::move(event));
      }
    }
  }
  {
    json::Value doc = json::Value::object();
    doc.set("traceEvents", std::move(merged));
    std::ofstream out(opt.run_dir + "/trace-" + opt.workload + ".json",
                      std::ios::binary);
    out << doc.encode();
  }
  std::printf("femtod histograms (bucket upper bounds): queue_wait_s p50 %g "
              "p95 %g; request_latency_s p50 %g p95 %g\n",
              json_number(traced->metrics_after,
                          {"histograms", "service.queue_wait_s", "p50_s"}),
              json_number(traced->metrics_after,
                          {"histograms", "service.queue_wait_s", "p95_s"}),
              json_number(traced->metrics_after,
                          {"histograms", "service.request_latency_s", "p50_s"}),
              json_number(traced->metrics_after,
                          {"histograms", "service.request_latency_s", "p95_s"}));
  in.traced_wall_s = traced->wall_s;
  in.untraced_wall_s = plain.wall_s;
  in.traced_plans = static_cast<double>(traced->plans);
  in.untraced_plans = static_cast<double>(plain.plans);
  in.threads = static_cast<double>(kWorkers);
  in.sa_steps = delta(plain, true, {"counters", "solver.sa_steps"});
  in.gtsp_generations =
      delta(plain, true, {"counters", "solver.gtsp_generations"});
  in.gtsp_solves = delta(plain, true, {"counters", "solver.gtsp_solves"});
  in.cache_l1_hits = delta(plain, true, {"counters", "cache.l1_hits"});
  in.cache_lookups = in.cache_l1_hits +
                     delta(plain, true, {"counters", "cache.l2_hits"}) +
                     delta(plain, true, {"counters", "cache.misses"});
  in.busy_frac = ratio(plain.cpu_s, plain.wall_s * static_cast<double>(kWorkers));
  in.coalesce_ratio = ratio(delta(plain, false, {"coalesced"}),
                            delta(plain, false, {"submitted"}));
  in.repeat_share = repeat_share(plain);
  in.queue_wait_s = in.ledger.durations_s("queue_wait");
  const double mean_request_s = mean(in.ledger.durations_s("request"));
  in.run_s = mean_request_s - mean(in.queue_wait_s);
  std::vector<double> rtt_s;
  for (const Sample& s : traced->samples)
    if (s.done && !s.coalesced) rtt_s.push_back(1e-3 * s.latency_ms);
  in.transport_s = mean(rtt_s) - mean_request_s;

  // Protocol layer, timed from here on the traced window's requests and
  // replies: the client's encode of each request and decode of each reply.
  std::vector<double> encode_s, decode_s;
  for (const Sample& s : traced->samples) {
    const core::CompileRequest request =
        make_request(scenarios[s.scenario], s.seed);
    auto t0 = Clock::now();
    const std::string line = service::protocol::encode_request(request).encode();
    encode_s.push_back(seconds_since(t0));
    if (line.empty() || !s.answered) continue;
    t0 = Clock::now();
    service::protocol::WireResponse wire;
    const std::optional<json::Value> v = json::parse(s.canonical, &err);
    const bool decoded =
        v.has_value() && service::protocol::decode_response(*v, wire, err);
    decode_s.push_back(seconds_since(t0));
    if (!decoded) result.fail("cannot decode a served response: " + err);
  }
  in.client_encode_s = mean(encode_s);
  in.client_decode_s = mean(decode_s);
  std::vector<double> check_s;
  for (const Sample& s : traced->samples)
    if (s.answered) check_s.push_back(refs.at({s.scenario, s.seed}).check_spec_s);
  in.check_spec_s = mean(check_s);
  add_layer_metrics(result, in);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload table1|serve_unique|serve_repeat "
               "--seed N --seconds S --trace 0|1 --femtod PATH "
               "--expected PATH --run-dir DIR [--daemon-fault kill|stop]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (arg == "--workload") opt.workload = v;
    else if (arg == "--seed") opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (arg == "--seconds") opt.seconds = std::atof(v.c_str());
    else if (arg == "--trace") opt.trace = v == "1";
    else if (arg == "--femtod") opt.femtod = v;
    else if (arg == "--expected") opt.expected = v;
    else if (arg == "--run-dir") opt.run_dir = v;
    else if (arg == "--daemon-fault" && (v == "kill" || v == "stop")) opt.daemon_fault = v;
    else return usage();
  }
  if (opt.run_dir.empty() || !(opt.seconds > 0.0)) return usage();
  std::signal(SIGPIPE, SIG_IGN);

  std::printf("context: workload=%s seed=%llu seconds=%g trace=%d nproc=%ld "
              "hardware_concurrency=%u sim.simd_level=%s compiler=\"%s\" "
              "build_type=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, ::sysconf(_SC_NPROCESSORS_ONLN),
              std::thread::hardware_concurrency(),
              simd::to_string(simd::level()), __VERSION__, PERFBENCH_BUILD_TYPE);

  Result result;
  int rc = 0;
  if (opt.workload == "table1") {
    rc = run_table1(opt, result);
  } else if (opt.workload == "serve_unique" || opt.workload == "serve_repeat") {
    if (opt.femtod.empty()) return usage();
    rc = run_serve(opt, opt.workload == "serve_repeat", result);
  } else {
    return usage();
  }
  if (rc != 0) return rc;
  result.print();
  return 0;
}
