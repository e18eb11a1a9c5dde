// Persistent compilation database: cold-build vs warm-serve (db/database.hpp).
//
// Workflow under test (the production cold/warm cycle):
//   1. cold   compile a small Table-1 slice with a recording DatabaseBuilder
//             attached to the pipeline cache; write femto_bench.fdb
//   2. warm   reopen the file via PipelineOptions.database_path (mmap,
//             read-only) and recompile the identical slice with
//             verify-on-compile certifying the DB-served segments
//   3. lookup micro-benchmark of raw Database::lookup over every stored key
//
// Gated metrics (tools/check_bench.py):
//   warm_equals_cold    1.0 exact pin -- every warm result matches its cold
//                       result field-for-field and gate-for-gate (the
//                       database's bit-identity contract, end to end)
//   warm_verified       1.0 exact pin -- verify-on-compile certified every
//                       warm circuit, i.e. DB-served artifacts pass the same
//                       equivalence check as freshly synthesized ones
//   warm_lookups_per_s  absolute floor -- serving from the mmap'd index must
//                       stay at memory speed on any machine
// info_* metrics (hit counters, sizes, speedups) are informational.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_fixtures.hpp"
#include "bench_harness.hpp"
#include "core/pipeline.hpp"
#include "db/database.hpp"

namespace {

using namespace femto;

std::vector<core::CompileScenario> make_scenarios() {
  struct Entry {
    std::string label;
    chem::Molecule mol;
    std::size_t ne;
  };
  const std::vector<Entry> entries = {
      {"HF", chem::make_hf(), 3},
      {"LiH", chem::make_lih(), 3},
      {"H2O(4)", chem::make_h2o(), 4},
      {"H2O(5)", chem::make_h2o(), 5},
  };
  std::vector<core::CompileScenario> scenarios;
  for (const Entry& e : entries) {
    const bench::TermFixture f = bench::molecule_fixture(e.mol, e.ne);
    core::CompileScenario s;
    s.name = e.label;
    s.num_qubits = f.n;
    s.terms = f.terms;
    s.options = bench::table1_column_options("Adv", f.terms.size());
    s.options.emit_circuit = true;  // the database stores real artifacts
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

bool results_identical(const core::CompileResult& a,
                       const core::CompileResult& b) {
  return a.num_qubits == b.num_qubits && a.model_cnots == b.model_cnots &&
         a.emitted_cnots == b.emitted_cnots &&
         a.term_order == b.term_order &&
         a.circuit.to_string() == b.circuit.to_string();
}

}  // namespace

int main() {
  bench::Harness h("db");
  const std::string db_path = "femto_bench.fdb";
  const std::vector<core::CompileScenario> scenarios = make_scenarios();

  // ---- 1. cold: record and write ----------------------------------------
  db::DatabaseBuilder builder;
  std::vector<core::CompileResult> cold_results;
  h.run("db/cold_build", 1, [&] {
    core::CompilePipeline pipeline;
    pipeline.set_store(&builder);
    cold_results.clear();
    for (core::ScenarioOutcome& oc :
         bench::compile_all(pipeline, {.scenarios = scenarios}).outcomes)
      cold_results.push_back(std::move(oc.result.best));
  });
  if (const std::string err = builder.write(db_path); !err.empty()) {
    std::fprintf(stderr, "bench_db: %s\n", err.c_str());
    return 1;
  }
  h.metric("info_db_entries", static_cast<double>(builder.size()));

  std::string err;
  const auto database = db::Database::open(db_path, &err);
  if (!database.has_value()) {
    std::fprintf(stderr, "bench_db: %s\n", err.c_str());
    return 1;
  }
  h.metric("info_db_bytes", static_cast<double>(database->file_bytes()));

  // ---- 2. warm: serve from the database, verify-on-compile --------------
  std::vector<core::CompileResult> warm_results;
  bool warm_verified = false;
  synth::SynthesisCache::Stats warm_stats;
  const double warm_s = h.run("db/warm_compile", 3, [&] {
    core::CompilePipeline pipeline({.database_path = db_path});
    warm_results.clear();
    warm_verified = true;
    for (core::ScenarioOutcome& oc :
         bench::compile_all(pipeline, {.scenarios = scenarios, .verify = true})
             .outcomes) {
      warm_verified = warm_verified && oc.result.all_verified();
      warm_results.push_back(std::move(oc.result.best));
    }
    warm_stats = pipeline.cache().stats();
  });
  h.metric("info_l2_hits", static_cast<double>(warm_stats.l2_hits));
  h.metric("info_l1_misses", static_cast<double>(warm_stats.misses));
  bool identical = warm_results.size() == cold_results.size();
  for (std::size_t i = 0; identical && i < warm_results.size(); ++i)
    identical = results_identical(cold_results[i], warm_results[i]);
  h.metric("warm_equals_cold", identical ? 1.0 : 0.0);
  h.metric("warm_verified", warm_verified ? 1.0 : 0.0);

  // ---- 3. raw lookup throughput over every stored key --------------------
  std::vector<std::string> keys;
  keys.reserve(database->entry_count());
  for (std::size_t i = 0; i < database->entry_count(); ++i)
    keys.emplace_back(database->key(i));
  constexpr int kRounds = 200;
  std::size_t served = 0;
  const double lookup_s = h.run("db/warm_lookup", 3, [&] {
    served = 0;
    for (int round = 0; round < kRounds; ++round)
      for (const std::string& key : keys)
        if (database->lookup(key).has_value()) ++served;
  });
  if (served != keys.size() * kRounds) {
    std::fprintf(stderr, "bench_db: lookup served %zu of %zu keys\n", served,
                 keys.size() * kRounds);
    return 1;
  }
  h.metric("warm_lookups_per_s",
           lookup_s > 0.0 ? static_cast<double>(served) / lookup_s : 0.0);
  h.metric("info_warm_compile_speedup",
           warm_s > 0.0 ? h.sections()[0].median_s / warm_s : 0.0);

  std::printf("# cold build -> %s (%zu entries, %zu bytes); warm recompile "
              "identical: %s, verified: %s\n",
              db_path.c_str(), database->entry_count(),
              database->file_bytes(), identical ? "yes" : "NO",
              warm_verified ? "yes" : "NO");
  return h.write_json() ? 0 : 1;
}
