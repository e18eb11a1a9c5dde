// Shared chemistry fixtures for the bench binaries.
//
// One entry point builds (and caches) the molecule -> STO-3G -> RHF -> MO ->
// UCCSD/HMP2 pipeline per molecule, so bench_table1, bench_targets,
// bench_solvers, bench_pipeline and bench_ablation_sorting all construct
// their Hamiltonians the same way instead of each re-deriving the chain.
// The lazy caches are mutex-guarded, so any thread may touch a fixture first.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "chem/integrals.hpp"
#include "chem/mo_integrals.hpp"
#include "chem/molecules.hpp"
#include "chem/scf.hpp"
#include "core/compiler.hpp"
#include "core/pipeline.hpp"
#include "fermion/excitation.hpp"
#include "vqe/uccsd.hpp"

namespace femto::bench {

struct TermFixture {
  std::size_t n = 0;
  std::vector<fermion::ExcitationTerm> terms;
};

/// Full HMP2-ranked UCCSD term sequence of a molecule (STO-3G), cached by
/// molecule name. The static-MP2 ranking reproduces the paper's Table I
/// term choices (see bench_table1.cpp).
inline const TermFixture& molecule_terms(const chem::Molecule& mol) {
  static std::mutex mutex;
  static std::map<std::string, TermFixture> cache;
  const std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(mol.name);
  if (it == cache.end()) {
    auto basis = chem::build_sto3g(mol);
    chem::normalize_basis(basis);
    const auto ints = chem::compute_integrals(mol, basis);
    const auto scf = chem::run_rhf(mol, ints);
    FEMTO_ASSERT(scf.converged);
    const auto mo = chem::transform_to_mo(mol, ints, scf);
    const auto so = chem::to_spin_orbitals(mo);
    TermFixture f;
    f.n = so.n;
    f.terms = vqe::uccsd_hmp2_terms(so);
    it = cache.emplace(mol.name, std::move(f)).first;
  }
  return it->second;
}

/// Copy of a molecule's fixture truncated to the top `ne` terms (clamped).
inline TermFixture molecule_fixture(const chem::Molecule& mol, std::size_t ne) {
  const TermFixture& all = molecule_terms(mol);
  TermFixture f;
  f.n = all.n;
  if (ne > all.terms.size()) ne = all.terms.size();
  f.terms.assign(all.terms.begin(),
                 all.terms.begin() + static_cast<std::ptrdiff_t>(ne));
  return f;
}

/// Water / STO-3G UCCSD terms ranked by HMP2 importance, truncated to the
/// top `ne` (ne <= 31). Cached per size so repeated bench sections can hold
/// a stable reference. Unlike molecule_fixture (whose Table-1 callers clamp
/// by design), an out-of-range request here aborts: a silently shortened
/// fixture would mislabel a committed bench baseline.
inline const TermFixture& water_terms(std::size_t ne) {
  static std::mutex mutex;
  static TermFixture fixtures[32];
  FEMTO_EXPECTS(ne < 32);
  const std::lock_guard<std::mutex> lock(mutex);
  FEMTO_EXPECTS(ne <= molecule_terms(chem::make_h2o()).terms.size());
  TermFixture& f = fixtures[ne];
  if (f.n == 0) f = molecule_fixture(chem::make_h2o(), ne);
  return f;
}

/// Compile options of one Table-I column ("JW" / "BK" / "GT" / "Adv"), with
/// the solver budgets the Table-I reproduction uses (scaled down for the
/// large NH3 instance). Shared by bench_table1 and bench_targets so the
/// all-to-all target's counts stay bit-identical to the Table-I baseline.
inline core::CompileOptions table1_column_options(const std::string& column,
                                                  std::size_t num_terms) {
  core::CompileOptions opt;
  opt.emit_circuit = false;  // counting only; callers opt back in for routing
  const bool large = num_terms > 20;
  opt.sa_options.steps = large ? 500 : 1500;
  opt.pso_options.iterations = large ? 12 : 60;
  opt.pso_options.particles = large ? 10 : 20;
  opt.gtsp_options.generations = large ? 80 : 250;
  opt.gtsp_options.population = large ? 24 : 32;
  opt.coloring_orders = 64;
  if (column == "JW") {
    opt.transform = core::TransformKind::kJordanWigner;
    opt.sorting = core::SortingMode::kBaseline;
    opt.compression = core::CompressionMode::kBosonicOnly;
  } else if (column == "BK") {
    opt.transform = core::TransformKind::kBravyiKitaev;
    opt.sorting = core::SortingMode::kBaseline;
    opt.compression = core::CompressionMode::kBosonicOnly;
  } else if (column == "GT") {
    opt.transform = core::TransformKind::kBaselineGT;
    opt.sorting = core::SortingMode::kBaseline;
    opt.compression = core::CompressionMode::kBosonicOnly;
  } else {  // Adv
    opt.transform = core::TransformKind::kAdvanced;
    opt.sorting = core::SortingMode::kAdvanced;
    opt.compression = core::CompressionMode::kHybrid;
  }
  return opt;
}

/// Named compile-scenario suites shared by femto-client export-scenarios,
/// femtod's service bench, and the bench binaries: Table-1 columns at the
/// bench fixtures' solver budgets, with circuits emitted (counting-only
/// compiles synthesize nothing worth serving). Unknown suite -> empty.
inline std::vector<core::CompileScenario> suite_scenarios(
    const std::string& suite) {
  struct Entry {
    std::string label;
    chem::Molecule mol;
    std::size_t ne;
  };
  std::vector<Entry> entries;
  std::vector<std::string> columns;
  if (suite == "small") {
    entries = {{"HF", chem::make_hf(), 3},
               {"LiH", chem::make_lih(), 3},
               {"H2O(4)", chem::make_h2o(), 4},
               {"H2O(5)", chem::make_h2o(), 5},
               {"H2O(6)", chem::make_h2o(), 6}};
    columns = {"Adv"};
  } else if (suite == "table1") {
    entries = {{"HF", chem::make_hf(), 3},
               {"LiH", chem::make_lih(), 3},
               {"BeH2", chem::make_beh2(), 9}};
    for (std::size_t ne : {4, 5, 6, 8, 9, 11, 12, 14, 16, 17})
      entries.push_back(
          {"H2O(" + std::to_string(ne) + ")", chem::make_h2o(), ne});
    columns = {"JW", "BK", "GT", "Adv"};
  } else {
    return {};
  }
  std::vector<core::CompileScenario> scenarios;
  for (const Entry& e : entries) {
    const TermFixture f = molecule_fixture(e.mol, e.ne);
    for (const std::string& column : columns) {
      core::CompileScenario s;
      s.name = e.label + "/" + column;
      s.num_qubits = f.n;
      s.terms = f.terms;
      s.options = table1_column_options(column, f.terms.size());
      s.options.emit_circuit = true;  // serve real artifacts, not counts
      scenarios.push_back(std::move(s));
    }
  }
  return scenarios;
}

/// pipeline.compile(request) for a bench: bench requests are fixed and
/// valid, so anything short of kDone is a broken bench -- exit loudly
/// rather than report numbers from a partial response.
inline core::CompileResponse compile_all(core::CompilePipeline& pipeline,
                                         const core::CompileRequest& request) {
  core::CompileResponse response = pipeline.compile(request);
  if (!response.done()) {
    std::fprintf(stderr, "bench: compile %s: %s\n",
                 core::to_string(response.status), response.detail.c_str());
    std::exit(1);
  }
  return response;
}

}  // namespace femto::bench
