// Tests for the parallel multi-restart compilation pipeline
// (core/pipeline.hpp) and its substrate: the thread pool, derived seed
// streams, and the common optimizer restart driver.
//
// The load-bearing property is determinism: one master seed must yield
// bit-identical best plans for ANY worker count, which is what makes the CI
// bench-regression gates trustworthy numbers rather than noise.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_fixtures.hpp"
#include "chem/integrals.hpp"
#include "chem/mo_integrals.hpp"
#include "chem/molecules.hpp"
#include "chem/scf.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "opt/restart.hpp"
#include "vqe/uccsd.hpp"

namespace femto {
namespace {

struct Fixture {
  std::size_t n = 0;
  std::vector<fermion::ExcitationTerm> terms;
};

/// HMP2-ranked UCCSD terms of a molecule, truncated to `keep`.
Fixture molecule_terms(const chem::Molecule& mol, std::size_t keep) {
  auto basis = chem::build_sto3g(mol);
  chem::normalize_basis(basis);
  const auto ints = chem::compute_integrals(mol, basis);
  const auto scf = chem::run_rhf(mol, ints);
  const auto mo = chem::transform_to_mo(mol, ints, scf);
  const auto so = chem::to_spin_orbitals(mo);
  Fixture f;
  f.n = so.n;
  f.terms = vqe::uccsd_hmp2_terms(so);
  if (f.terms.size() > keep) f.terms.resize(keep);
  return f;
}

const Fixture& lih() {
  static const Fixture f = molecule_terms(chem::make_lih(), 5);
  return f;
}

const Fixture& h2() {
  static const Fixture f = molecule_terms(chem::make_h2(), 3);
  return f;
}

/// Trimmed solver knobs: every stochastic stage still runs, just shorter.
core::CompileOptions fast_options() {
  core::CompileOptions o;
  o.coloring_orders = 8;
  o.sa_options = {2.0, 0.05, 150, 0};
  o.pso_options.particles = 8;
  o.pso_options.iterations = 15;
  o.gtsp_options.population = 12;
  o.gtsp_options.generations = 30;
  o.gtsp_options.stagnation_limit = 15;
  return o;
}

void expect_identical(const core::CompileResult& a,
                      const core::CompileResult& b) {
  EXPECT_EQ(a.num_qubits, b.num_qubits);
  EXPECT_EQ(a.model_cnots, b.model_cnots);
  EXPECT_EQ(a.emitted_cnots, b.emitted_cnots);
  EXPECT_EQ(a.decompression_cnots, b.decompression_cnots);
  EXPECT_TRUE(a.gamma == b.gamma);
  EXPECT_EQ(a.term_order, b.term_order);
  EXPECT_EQ(a.compressed_pair_lows, b.compressed_pair_lows);
  EXPECT_EQ(a.circuit.to_string(), b.circuit.to_string());
}

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> counts(kN);
  pool.parallel_for(kN, [&](std::size_t i) { counts[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i].load(), 1);
}

TEST(ThreadPool, CallerDrainsWhenPoolIsBusy) {
  // Even a 1-worker pool completes nested-free parallel_for promptly because
  // the calling thread participates in draining the index range.
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.parallel_for(100, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(8,
                        [&](std::size_t i) {
                          if (i == 3) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(RngStreams, RestartZeroIsMasterAndStreamsAreDistinct) {
  const std::uint64_t master = 20230306;
  EXPECT_EQ(opt::restart_seed(master, 0), master);
  std::vector<std::uint64_t> seeds;
  for (std::size_t r = 0; r < 16; ++r) seeds.push_back(opt::restart_seed(master, r));
  for (std::size_t a = 0; a < seeds.size(); ++a)
    for (std::size_t b = a + 1; b < seeds.size(); ++b)
      EXPECT_NE(seeds[a], seeds[b]) << "streams " << a << " and " << b;
  // Pure function of (master, stream).
  EXPECT_EQ(derive_stream_seed(1, 2), derive_stream_seed(1, 2));
  EXPECT_NE(derive_stream_seed(1, 2), derive_stream_seed(2, 1));
}

TEST(RestartDriver, NeverWorseThanSingleShotAndPoolInvariant) {
  // Rugged integer lattice from test_opt, deliberately short chains so
  // single restarts frequently miss the global minimum.
  const auto energy = [](const int& x) {
    return (x - 17) * (x - 17) / 10.0 + 3.0 * std::sin(static_cast<double>(x));
  };
  const auto propose = [](const int& x, Rng& r) { return x + r.range(-3, 3); };
  const opt::SaOptions sa{5.0, 0.01, 60, 0};
  const std::uint64_t master = 99;

  Rng single_rng(master);
  const auto single =
      opt::simulated_annealing<int>(100, energy, propose, single_rng, sa);
  const auto serial = opt::simulated_annealing_restarts<int>(
      8, master, 100, energy, propose, sa, nullptr);
  EXPECT_LE(serial.best_energy, single.best_energy);

  ThreadPool pool(4);
  const auto parallel = opt::simulated_annealing_restarts<int>(
      8, master, 100, energy, propose, sa, &pool);
  EXPECT_EQ(parallel.best, serial.best);
  EXPECT_EQ(parallel.best_energy, serial.best_energy);
}

TEST(RestartDriver, GtspRestartsNeverWorse) {
  opt::GtspInstance inst;
  const std::size_t m = 10, k = 4;
  int next = 0;
  for (std::size_t c = 0; c < m; ++c) {
    std::vector<int> cluster;
    for (std::size_t v = 0; v < k; ++v) cluster.push_back(next++);
    inst.clusters.push_back(cluster);
  }
  inst.weight = [](int a, int b) {
    const unsigned h = static_cast<unsigned>(a) * 73856093u ^
                       static_cast<unsigned>(b) * 19349663u;
    return static_cast<double>(h % 1000) / 100.0;
  };
  opt::GtspOptions options;
  options.generations = 40;
  options.stagnation_limit = 20;
  Rng single_rng(7);
  const double single = opt::solve_gtsp_ga(inst, single_rng, options).value;
  ThreadPool pool(3);
  const double multi =
      opt::solve_gtsp_ga_restarts(6, 7, inst, options, &pool).value;
  EXPECT_GE(multi, single - 1e-12);
}

core::CompileScenario scenario(const std::string& name, const Fixture& f) {
  return {name, f.n, f.terms, fast_options()};
}

/// pipeline.compile(request), expecting every restart job to run. A
/// rejected request still returns one (empty) outcome per cell, so the
/// caller's checks fail instead of indexing past the end.
core::CompileResponse compile_done(core::CompilePipeline& pipeline,
                                   const core::CompileRequest& request) {
  core::CompileResponse response = pipeline.compile(request);
  EXPECT_TRUE(response.done())
      << core::to_string(response.status) << ": " << response.detail;
  response.outcomes.resize(
      request.scenarios.size() *
      (request.targets.empty() ? 1 : request.targets.size()));
  return response;
}

TEST(Pipeline, VerifyOnCertifiesEveryRestartAndScenario) {
  const core::CompileScenario s = scenario("lih", lih());
  core::CompilePipeline pipeline({.workers = 4});
  const core::CompileResponse one = compile_done(
      pipeline, {.scenarios = {s}, .restarts = 3, .verify = true});
  ASSERT_EQ(one.outcomes.size(), 1u);
  const core::MultiStartResult& multi = one.outcomes[0].result;
  ASSERT_EQ(multi.verification.size(), 3u);
  EXPECT_TRUE(multi.all_verified());
  for (const auto& report : multi.verification)
    EXPECT_TRUE(report.equivalent()) << report.to_string();

  // Two scenarios: per-scenario verification slices, all certified.
  const core::CompileResponse batch = compile_done(
      pipeline, {.scenarios = {s, s}, .restarts = 3, .verify = true});
  ASSERT_EQ(batch.outcomes.size(), 2u);
  for (const core::ScenarioOutcome& oc : batch.outcomes) {
    ASSERT_EQ(oc.result.verification.size(), 3u);
    EXPECT_TRUE(oc.result.all_verified());
  }
}

TEST(Pipeline, VerifyOnDoesNotChangeResults) {
  const core::CompileScenario s = scenario("h2", h2());
  core::CompilePipeline plain({.workers = 2});
  core::CompilePipeline verified({.workers = 2});
  const core::MultiStartResult a =
      compile_done(plain, {.scenarios = {s}, .restarts = 2})
          .outcomes[0]
          .result;
  const core::MultiStartResult b =
      compile_done(verified, {.scenarios = {s}, .restarts = 2, .verify = true})
          .outcomes[0]
          .result;
  EXPECT_EQ(a.best_restart, b.best_restart);
  expect_identical(a.best, b.best);
  EXPECT_TRUE(a.verification.empty());  // off by default
  EXPECT_TRUE(b.all_verified());
}

TEST(Pipeline, ThreadCountInvariance) {
  // 1, 2, and 8 workers must produce bit-identical best plans (gamma, term
  // order, CNOT counts, and the emitted gate stream) for one master seed.
  const core::CompileScenario s = scenario("lih", lih());
  std::vector<core::MultiStartResult> results;
  for (std::size_t workers : {1u, 2u, 8u}) {
    core::CompilePipeline pipeline({.workers = workers});
    results.push_back(compile_done(pipeline, {.scenarios = {s}, .restarts = 4})
                          .outcomes[0]
                          .result);
  }
  for (std::size_t k = 1; k < results.size(); ++k) {
    EXPECT_EQ(results[k].best_restart, results[0].best_restart);
    ASSERT_EQ(results[k].restarts.size(), results[0].restarts.size());
    for (std::size_t r = 0; r < results[0].restarts.size(); ++r) {
      EXPECT_EQ(results[k].restarts[r].seed, results[0].restarts[r].seed);
      EXPECT_EQ(results[k].restarts[r].model_cnots,
                results[0].restarts[r].model_cnots);
    }
    expect_identical(results[k].best, results[0].best);
  }
}

TEST(Pipeline, MultiRestartNeverWorseThanSingleShot) {
  const core::CompileScenario s = scenario("lih", lih());
  const core::CompileResult single =
      core::compile_vqe(s.num_qubits, s.terms, s.options);
  core::CompilePipeline pipeline({.workers = 2});
  const core::MultiStartResult multi =
      compile_done(pipeline, {.scenarios = {s}, .restarts = 4})
          .outcomes[0]
          .result;
  EXPECT_LE(multi.best.model_cnots, single.model_cnots);
  // Restart 0 runs the master seed itself, reproducing single-shot exactly.
  ASSERT_EQ(multi.restarts.size(), 4u);
  EXPECT_EQ(multi.restarts[0].seed, s.options.seed);
  EXPECT_EQ(multi.restarts[0].model_cnots, single.model_cnots);
}

TEST(Pipeline, BatchOutputOrderMatchesInputScenarioOrder) {
  std::vector<core::CompileScenario> scenarios = {
      scenario("lih-advanced", lih()), scenario("h2-jw-baseline", h2()),
      scenario("h2-advanced", h2())};
  scenarios[1].options.transform = core::TransformKind::kJordanWigner;
  scenarios[1].options.sorting = core::SortingMode::kBaseline;
  scenarios[1].options.compression = core::CompressionMode::kBosonicOnly;
  core::CompilePipeline pipeline({.workers = 4});
  const core::CompileResponse response =
      compile_done(pipeline, {.scenarios = scenarios});
  ASSERT_EQ(response.outcomes.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(response.outcomes[i].scenario, scenarios[i].name);
    const core::CompileResult direct = core::compile_vqe(
        scenarios[i].num_qubits, scenarios[i].terms, scenarios[i].options);
    expect_identical(response.outcomes[i].result.best, direct);
  }
}

TEST(Pipeline, MultiScenarioRequestEqualsPerScenarioRequests) {
  // Sharing one job queue (and one synthesis cache) across scenarios must
  // not change any scenario's restart winner or plan.
  std::vector<core::CompileScenario> scenarios = {scenario("h2", h2()),
                                                  scenario("h2-jw", h2()),
                                                  scenario("h2-again", h2())};
  scenarios[1].options.transform = core::TransformKind::kJordanWigner;
  core::CompilePipeline pipeline({.workers = 2});
  const core::CompileResponse batch =
      compile_done(pipeline, {.scenarios = scenarios, .restarts = 3});
  ASSERT_EQ(batch.outcomes.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    core::CompilePipeline fresh({.workers = 2});
    const core::CompileResponse single =
        compile_done(fresh, {.scenarios = {scenarios[i]}, .restarts = 3});
    const core::MultiStartResult& a = batch.outcomes[i].result;
    const core::MultiStartResult& b = single.outcomes[0].result;
    EXPECT_EQ(a.best_restart, b.best_restart) << scenarios[i].name;
    ASSERT_EQ(a.restarts.size(), b.restarts.size());
    for (std::size_t r = 0; r < a.restarts.size(); ++r)
      EXPECT_EQ(a.restarts[r].model_cnots, b.restarts[r].model_cnots);
    expect_identical(a.best, b.best);
  }
}

// --- the CompileRequest entry point ------------------------------------------

TEST(Pipeline, CompileRequestRejectsInvalidInputWithDiagnostic) {
  core::CompilePipeline pipeline({.workers = 2});
  const Fixture& f = h2();
  core::CompileScenario s;
  s.name = "h2";
  s.num_qubits = f.n;
  s.terms = f.terms;
  s.options = fast_options();

  const core::CompileResponse no_restarts =
      pipeline.compile({.scenarios = {s}, .restarts = 0});
  EXPECT_EQ(no_restarts.status, core::RequestStatus::kRejected);
  EXPECT_FALSE(no_restarts.detail.empty());

  const core::CompileResponse no_scenarios = pipeline.compile({});
  EXPECT_EQ(no_scenarios.status, core::RequestStatus::kRejected);

  core::CompileScenario bad = s;
  bad.options.target = synth::HardwareTarget::linear_nn(2);  // wrong size
  const core::CompileResponse bad_target =
      pipeline.compile({.scenarios = {bad}});
  EXPECT_EQ(bad_target.status, core::RequestStatus::kRejected);
  EXPECT_NE(bad_target.detail.find(bad.name), std::string::npos)
      << "diagnostic must name the offending scenario: " << bad_target.detail;

  // Terms the compiler would abort on: every orbital must be a qubit, and
  // a double must be in make_double's form (built by hand here, as the
  // wire decoder does, since make_double itself refuses or reorders them).
  const auto raw_double = [](std::size_t p, std::size_t q, std::size_t r,
                             std::size_t s) {
    fermion::ExcitationTerm t;
    t.kind = fermion::ExcitationTerm::Kind::kDouble;
    t.p = p;
    t.q = q;
    t.r = r;
    t.s = s;
    return t;
  };
  ASSERT_EQ(s.num_qubits, 4u);
  const std::size_t k = s.terms.size();  // index of the appended bad term
  const struct {
    fermion::ExcitationTerm term;
    std::string want;
  } term_rows[] = {
      {fermion::ExcitationTerm::single(9, 0), "orbital 9 is out of range"},
      {fermion::ExcitationTerm::single(2, 4), "orbital 4 is out of range"},
      {raw_double(2, 3, 0, 4), "orbital 4 is out of range"},
      {raw_double(2, 2, 0, 1), "repeats orbital 2"},
      {raw_double(2, 3, 1, 1), "repeats orbital 1"},
      {raw_double(3, 2, 0, 1), "must be ascending"},
      {raw_double(2, 3, 1, 0), "must be ascending"},
      {raw_double(0, 1, 0, 1), "same pair (0, 1)"},
  };
  for (const auto& row : term_rows) {
    core::CompileScenario bad_term = s;
    bad_term.terms.push_back(row.term);
    const core::CompileResponse r = pipeline.compile({.scenarios = {bad_term}});
    EXPECT_EQ(r.status, core::RequestStatus::kRejected) << row.want;
    for (const std::string& part :
         {std::string("scenario 'h2'"), "term " + std::to_string(k) + ":",
          row.want})
      EXPECT_NE(r.detail.find(part), std::string::npos)
          << "missing '" << part << "' in: " << r.detail;
  }

  // Deadlines the steady clock cannot represent are rejected up front
  // instead of overflowing into an instant DEADLINE_EXCEEDED.
  for (const double deadline :
       {1e300, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(), -1.0,
        2.0 * core::max_deadline_s()}) {
    const core::CompileResponse r =
        pipeline.compile({.scenarios = {s}, .deadline_s = deadline});
    EXPECT_EQ(r.status, core::RequestStatus::kRejected) << deadline;
    EXPECT_NE(r.detail.find("deadline_s"), std::string::npos) << r.detail;
  }
  // A long but representable budget (~31 years) is an ordinary request.
  EXPECT_TRUE(pipeline.compile({.scenarios = {s}, .deadline_s = 1e9}).done());

  // Requests too large to run: compile() allocates a slot per restart job
  // (scenarios x targets x restarts) up front, and every stage allocates
  // per qubit. The diagnostic names the offending value.
  core::CompileScenario wide = s;
  wide.num_qubits = 1000000000;
  core::CompileScenario at_width_cap = s;
  at_width_cap.num_qubits = core::kMaxRequestQubits + 1;
  const struct {
    core::CompileRequest request;
    std::string want;
  } size_rows[] = {
      {{.scenarios = {s}, .restarts = 1000000000}, "x 1000000000 restarts"},
      {{.scenarios = {s}, .restarts = core::kMaxRequestJobs + 1},
       std::to_string(core::kMaxRequestJobs + 1) + " restarts, more than"},
      {{.scenarios = {s, s},
        .targets = {synth::HardwareTarget::all_to_all_cnot(),
                    synth::HardwareTarget::all_to_all_cnot()},
        .restarts = core::kMaxRequestJobs / 4 + 1},
       "2 scenarios x 2 targets x"},
      {{.scenarios = {s}, .restarts = std::numeric_limits<std::size_t>::max()},
       std::to_string(std::numeric_limits<std::size_t>::max()) + " restarts"},
      {{.scenarios = {wide}}, "scenario 'h2': num_qubits 1000000000 exceeds"},
      {{.scenarios = {at_width_cap}},
       "num_qubits " + std::to_string(core::kMaxRequestQubits + 1)},
  };
  for (const auto& row : size_rows) {
    const core::CompileResponse r = pipeline.compile(row.request);
    EXPECT_EQ(r.status, core::RequestStatus::kRejected) << row.want;
    EXPECT_NE(r.detail.find(row.want), std::string::npos)
        << "missing '" << row.want << "' in: " << r.detail;
  }
  // The job cap itself is an ordinary request size (rejected here only by
  // the pre-set cancel flag, after validation passed).
  const std::atomic<bool> cancelled{true};
  const core::CompileResponse at_cap =
      pipeline.compile({.scenarios = {s},
                        .restarts = core::kMaxRequestJobs,
                        .cancel = &cancelled});
  EXPECT_EQ(at_cap.status, core::RequestStatus::kCancelled) << at_cap.detail;
}

TEST(Pipeline, ValidateRequestCapsGaBudgets) {
  // The GA allocates population x (clusters + vertices) and runs up to
  // population x generations evaluations, so oversized budgets are
  // rejected by validation alone; these values are never run.
  core::CompileScenario s;
  s.name = "h2";
  s.num_qubits = h2().n;
  s.terms = h2().terms;
  s.options = fast_options();
  const int huge = std::numeric_limits<int>::max();
  const struct {
    int population, generations;
    std::string want;
  } rows[] = {
      {huge, 30, "gtsp_options.population must be <= " +
                     std::to_string(core::kMaxGtspPopulation) + " (got " +
                     std::to_string(huge) + ")"},
      {core::kMaxGtspPopulation + 1, 30, "gtsp_options.population"},
      {12, huge, "gtsp_options.generations must be <= " +
                     std::to_string(core::kMaxGtspGenerations) + " (got " +
                     std::to_string(huge) + ")"},
      {12, core::kMaxGtspGenerations + 1, "gtsp_options.generations"},
  };
  for (const auto& row : rows) {
    core::CompileScenario capped = s;
    capped.options.gtsp_options.population = row.population;
    capped.options.gtsp_options.generations = row.generations;
    const std::string err = core::validate_request({.scenarios = {capped}});
    EXPECT_NE(err.find("scenario 'h2': " + row.want), std::string::npos)
        << "missing '" << row.want << "' in: " << err;
  }
  core::CompileScenario at_caps = s;
  at_caps.options.gtsp_options.population = core::kMaxGtspPopulation;
  at_caps.options.gtsp_options.generations = core::kMaxGtspGenerations;
  EXPECT_EQ(core::validate_request({.scenarios = {at_caps}}), "");
}

TEST(Pipeline, ValidateRequestCapsSolverBudgetsAndTerms) {
  // SA steps, PSO particles x iterations, coloring orders, GA tournament
  // draws and the term count all scale the work one restart does before
  // its deadline is checked, so each is capped by validation alone; the
  // over-cap values are never run.
  core::CompileScenario s;
  s.name = "h2";
  s.num_qubits = h2().n;
  s.terms = h2().terms;
  s.options = fast_options();
  constexpr int huge = std::numeric_limits<int>::max();
  using Edit = void (*)(core::CompileOptions&);
  const struct {
    Edit edit;
    std::string want;
  } rows[] = {
      {[](core::CompileOptions& o) { o.sa_options.steps = huge; },
       "sa_options.steps must be in [1, " + std::to_string(core::kMaxSaSteps) +
           "] (got " + std::to_string(huge) + ")"},
      {[](core::CompileOptions& o) {
         o.sa_options.steps = core::kMaxSaSteps + 1;
       },
       "sa_options.steps"},
      {[](core::CompileOptions& o) { o.sa_options.steps = 0; },
       "sa_options.steps must be in [1, "},
      {[](core::CompileOptions& o) { o.sa_options.t_final = 0.0; },
       "sa_options.t_initial and t_final must be > 0"},
      {[](core::CompileOptions& o) { o.pso_options.particles = huge; },
       "pso_options.particles must be <= " +
           std::to_string(core::kMaxPsoParticles) + " (got " +
           std::to_string(huge) + ")"},
      {[](core::CompileOptions& o) {
         o.pso_options.particles = core::kMaxPsoParticles + 1;
       },
       "pso_options.particles"},
      {[](core::CompileOptions& o) { o.pso_options.iterations = huge; },
       "pso_options.iterations must be <= " +
           std::to_string(core::kMaxPsoIterations) + " (got " +
           std::to_string(huge) + ")"},
      {[](core::CompileOptions& o) {
         o.pso_options.iterations = core::kMaxPsoIterations + 1;
       },
       "pso_options.iterations"},
      {[](core::CompileOptions& o) { o.coloring_orders = huge; },
       "coloring_orders must be in [1, " +
           std::to_string(core::kMaxColoringOrders) + "] (got " +
           std::to_string(huge) + ")"},
      {[](core::CompileOptions& o) {
         o.coloring_orders = core::kMaxColoringOrders + 1;
       },
       "coloring_orders"},
      {[](core::CompileOptions& o) { o.gtsp_options.tournament = huge; },
       "gtsp_options.tournament must be <= " +
           std::to_string(core::kMaxGtspTournament) + " (got " +
           std::to_string(huge) + ")"},
  };
  for (const auto& row : rows) {
    core::CompileScenario capped = s;
    row.edit(capped.options);
    const std::string err = core::validate_request({.scenarios = {capped}});
    EXPECT_NE(err.find("scenario 'h2': " + row.want), std::string::npos)
        << "missing '" << row.want << "' in: " << err;
  }

  core::CompileScenario many_terms = s;
  many_terms.terms.assign(core::kMaxScenarioTerms + 1, s.terms.front());
  const std::string err = core::validate_request({.scenarios = {many_terms}});
  EXPECT_NE(err.find("scenario 'h2': terms has " +
                     std::to_string(core::kMaxScenarioTerms + 1) +
                     " entries, more than the " +
                     std::to_string(core::kMaxScenarioTerms)),
            std::string::npos)
      << err;

  core::CompileScenario at_caps = s;
  at_caps.options.sa_options.steps = core::kMaxSaSteps;
  at_caps.options.pso_options.particles = core::kMaxPsoParticles;
  at_caps.options.pso_options.iterations = core::kMaxPsoIterations;
  at_caps.options.coloring_orders = core::kMaxColoringOrders;
  at_caps.options.gtsp_options.tournament = core::kMaxGtspTournament;
  at_caps.terms.assign(core::kMaxScenarioTerms, s.terms.front());
  EXPECT_EQ(core::validate_request({.scenarios = {at_caps}}), "");
}

TEST(Pipeline, CompileRequestHonorsCancelAndDeadline) {
  const Fixture& f = lih();
  core::CompileScenario s;
  s.name = "lih";
  s.num_qubits = f.n;
  s.terms = f.terms;
  s.options = fast_options();
  core::CompilePipeline pipeline({.workers = 2});

  // Pre-set cancel flag: nothing may run.
  std::atomic<bool> cancel{true};
  const core::CompileResponse cancelled = pipeline.compile(
      {.scenarios = {s}, .restarts = 8, .cancel = &cancel});
  EXPECT_EQ(cancelled.status, core::RequestStatus::kCancelled);
  ASSERT_EQ(cancelled.outcomes.size(), 1u);
  EXPECT_EQ(cancelled.outcomes[0].restarts_completed, 0u);

  // Already-expired deadline: same, but reported as DEADLINE_EXCEEDED.
  const core::CompileResponse expired = pipeline.compile(
      {.scenarios = {s}, .restarts = 8, .deadline_s = 1e-9});
  EXPECT_EQ(expired.status, core::RequestStatus::kDeadlineExceeded);
  EXPECT_EQ(expired.outcomes[0].restarts_completed, 0u);

  // A generous deadline changes nothing about the result.
  const core::CompileResponse relaxed = pipeline.compile(
      {.scenarios = {s}, .restarts = 2, .deadline_s = 3600.0});
  const core::CompileResponse plain =
      pipeline.compile({.scenarios = {s}, .restarts = 2});
  ASSERT_TRUE(relaxed.done());
  ASSERT_TRUE(plain.done());
  expect_identical(relaxed.outcomes[0].result.best,
                   plain.outcomes[0].result.best);
}

TEST(BenchFixtures, ConcurrentFirstTouchBuildsOneFixture) {
  // Four threads released together all touch the same lazily built
  // fixtures first: each must see the one cached object, fully built.
  constexpr std::size_t kThreads = 4;
  std::atomic<std::size_t> ready{0};
  std::vector<const bench::TermFixture*> water(kThreads, nullptr);
  std::vector<const bench::TermFixture*> molecule(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kThreads; ++k)
    threads.emplace_back([&, k] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      water[k] = &bench::water_terms(5);
      molecule[k] = &bench::molecule_terms(chem::make_lih());
    });
  for (std::thread& t : threads) t.join();
  const Fixture expected = molecule_terms(chem::make_h2o(), 5);
  for (std::size_t k = 0; k < kThreads; ++k) {
    EXPECT_EQ(water[k], water[0]);
    EXPECT_EQ(molecule[k], molecule[0]);
  }
  EXPECT_EQ(water[0]->n, expected.n);
  ASSERT_EQ(water[0]->terms.size(), expected.terms.size());
  for (std::size_t t = 0; t < expected.terms.size(); ++t)
    EXPECT_EQ(water[0]->terms[t].support(), expected.terms[t].support());
  EXPECT_GT(molecule[0]->n, 0u);
  EXPECT_FALSE(molecule[0]->terms.empty());
}

}  // namespace
}  // namespace femto
