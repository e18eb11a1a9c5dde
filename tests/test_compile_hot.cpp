// Property tests for the compile hot-path rewrites: every fast path must be
// BIT-IDENTICAL to its reference implementation --
//  * word-parallel interface_saving / best_shared_target_saving vs the
//    scalar per-site omega sums,
//  * table-driven fast_term_cost vs detail::fast_term_cost_reference,
//  * incremental GammaObjective apply/undo vs full recomputation
//    (fermionic_fast_cost) over random elementary-move sequences,
//  * anneal_gamma_fast vs the generic simulated-annealing driver on the
//    same RNG stream,
//  * the dense GTSP GA vs the preserved lazy reference solver,
//  * the shared-table Held-Karp baseline sort and the phase-free real-cost
//    objective vs the per-target / LinearEncoding oracles of
//    tests/oracles/gt_reference.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "bench_fixtures.hpp"
#include "core/compiler.hpp"
#include "oracles/gt_reference.hpp"
#include "transform/linear_encoding.hpp"

namespace femto {
namespace {

using pauli::Letter;

/// Random non-identity Pauli string on n qubits.
pauli::PauliString random_string(std::size_t n, Rng& rng) {
  pauli::PauliString p(n);
  while (p.weight() == 0) {
    for (std::size_t q = 0; q < n; ++q) {
      constexpr Letter letters[4] = {Letter::I, Letter::X, Letter::Y,
                                     Letter::Z};
      p.set_letter(q, letters[rng.index(4)]);
    }
  }
  return p;
}

std::vector<synth::RotationBlock> random_blocks(std::size_t n, std::size_t m,
                                                Rng& rng) {
  std::vector<synth::RotationBlock> blocks;
  for (std::size_t k = 0; k < m; ++k) {
    synth::RotationBlock b;
    b.string = random_string(n, rng);
    b.target = b.string.support().lowest_set();
    b.angle_coeff = 1.0;
    b.param = static_cast<int>(k);
    blocks.push_back(std::move(b));
  }
  return blocks;
}

/// Scalar reference of the default-model interface saving (the per-site
/// omega sum of Sec. III-B, exactly as the seed code computed it).
int interface_saving_scalar(const pauli::PauliString& p1, std::size_t t1,
                            const pauli::PauliString& p2, std::size_t t2) {
  if (t1 != t2) return 0;
  const bool good =
      synth::target_collision_good(p1.letter(t1), p2.letter(t1));
  int saving = 0;
  for (std::size_t q = 0; q < p1.num_qubits(); ++q) {
    if (q == t1) continue;
    const Letter a = p1.letter(q);
    const Letter b = p2.letter(q);
    if (a == Letter::I || b == Letter::I) continue;
    saving += (good && a == b) ? 2 : 1;
  }
  return saving;
}

TEST(InterfaceSaving, WordParallelMatchesScalarOnRandomPairs) {
  Rng rng(101);
  for (int rep = 0; rep < 400; ++rep) {
    const std::size_t n = 2 + rng.index(78);  // crosses the 64-bit word edge
    const pauli::PauliString p1 = random_string(n, rng);
    const pauli::PauliString p2 = random_string(n, rng);
    int best = -1;
    for (std::size_t t = 0; t < n; ++t) {
      if (p1.letter(t) == Letter::I || p2.letter(t) == Letter::I) continue;
      const int scalar = interface_saving_scalar(p1, t, p2, t);
      EXPECT_EQ(synth::interface_saving(p1, t, p2, t), scalar);
      best = std::max(best, scalar);
    }
    EXPECT_EQ(synth::best_shared_target_saving(p1, p2), best)
        << "n=" << n << " rep=" << rep;
  }
}

TEST(InterfaceSaving, DeviceFormsMatchScalarReference) {
  // The partner-form rewrite must agree with a direct per-site loop for the
  // XX target on every shared-target pair.
  const synth::HardwareTarget xx = synth::HardwareTarget::trapped_ion_xx();
  Rng rng(102);
  for (int rep = 0; rep < 200; ++rep) {
    const std::size_t n = 2 + rng.index(14);
    const pauli::PauliString p1 = random_string(n, rng);
    const pauli::PauliString p2 = random_string(n, rng);
    for (std::size_t t = 0; t < n; ++t) {
      if (p1.letter(t) == Letter::I || p2.letter(t) == Letter::I) continue;
      const std::size_t partner1 = synth::xx_partner(p1, t);
      const std::size_t partner2 = synth::xx_partner(p2, t);
      const bool good =
          synth::target_collision_good(p1.letter(t), p2.letter(t));
      int expected = 0;
      for (std::size_t q = 0; q < n; ++q) {
        if (q == t || q == partner1 || q == partner2) continue;
        const Letter a = p1.letter(q);
        const Letter b = p2.letter(q);
        if (a == Letter::I || b == Letter::I) continue;
        expected += (good && a == b) ? 2 : 1;
      }
      EXPECT_EQ(synth::interface_saving(p1, t, p2, t, xx), expected);
    }
  }
}

TEST(FastTermCost, TableDrivenMatchesReferenceOnAllTargets) {
  Rng rng(103);
  for (int rep = 0; rep < 150; ++rep) {
    const std::size_t n = 3 + rng.index(12);
    const std::size_t m = 1 + rng.index(9);
    const auto blocks = random_blocks(n, m, rng);
    const synth::HardwareTarget targets[3] = {
        synth::HardwareTarget::all_to_all_cnot(),
        synth::HardwareTarget::trapped_ion_xx(),
        synth::HardwareTarget::linear_nn(n)};
    // hw == nullptr (the annealing default) and all three built-ins.
    EXPECT_EQ(core::fast_term_cost(blocks),
              core::detail::fast_term_cost_reference(blocks));
    for (const auto& hw : targets) {
      const int reference = core::detail::fast_term_cost_reference(blocks, &hw);
      EXPECT_EQ(core::fast_term_cost(blocks, &hw), reference);
      synth::StringCostCache cache(hw);
      EXPECT_EQ(core::fast_term_cost(blocks, &hw, &cache), reference);
      // Cache hits must return the same values.
      EXPECT_EQ(core::fast_term_cost(blocks, &hw, &cache), reference);
    }
  }
}

TEST(StringCostCache, MemoizesExactly) {
  Rng rng(104);
  const synth::HardwareTarget targets[2] = {
      synth::HardwareTarget::trapped_ion_xx(),
      synth::HardwareTarget::linear_nn(10)};
  for (const auto& hw : targets) {
    synth::StringCostCache cache(hw);
    for (int rep = 0; rep < 200; ++rep) {
      const pauli::PauliString p = random_string(10, rng);
      int cheapest = std::numeric_limits<int>::max();
      for (std::size_t t = 0; t < 10; ++t) {
        if (p.letter(t) == Letter::I) continue;
        const int direct = synth::string_cost(p, t, hw);
        EXPECT_EQ(cache.cost(p, t), direct);
        EXPECT_EQ(cache.cost(p, t), direct);  // hit path
        cheapest = std::min(cheapest, direct);
      }
      EXPECT_EQ(cache.min_cost(p), cheapest);
    }
  }
}

/// Random double-excitation term set on n modes (n even), the Hamiltonian
/// shape the Gamma searches run on.
std::vector<fermion::ExcitationTerm> random_terms(std::size_t n,
                                                  std::size_t count,
                                                  Rng& rng) {
  std::vector<fermion::ExcitationTerm> terms;
  while (terms.size() < count) {
    const std::size_t p = rng.index(n), q = rng.index(n);
    const std::size_t r = rng.index(n), s = rng.index(n);
    if (p == q || r == s) continue;
    terms.push_back(fermion::ExcitationTerm::make_double(p, q, r, s));
  }
  return terms;
}

std::vector<std::vector<synth::RotationBlock>> jw_term_blocks(
    std::size_t n, const std::vector<fermion::ExcitationTerm>& terms) {
  std::vector<std::vector<synth::RotationBlock>> out;
  int param = 0;
  for (const auto& t : terms)
    out.push_back(core::blocks_from_generator(
        transform::jw_map(n, t.generator()), param++));
  return out;
}

TEST(GammaObjective, IncrementalMatchesFullRecomputeUnderRandomMoves) {
  Rng rng(105);
  const synth::HardwareTarget linear8 = synth::HardwareTarget::linear_nn(8);
  for (int rep = 0; rep < 10; ++rep) {
    const std::size_t n = 8;
    const auto terms = random_terms(n, 4 + rng.index(4), rng);
    const auto term_blocks = jw_term_blocks(n, terms);
    const auto blocks = core::discover_blocks(n, terms, {});
    std::vector<std::size_t> movable;
    for (std::size_t b = 0; b < blocks.size(); ++b)
      if (blocks[b].size() >= 2) movable.push_back(b);
    if (movable.empty()) continue;

    const synth::HardwareTarget* hws[2] = {nullptr, &linear8};
    for (const synth::HardwareTarget* hw : hws) {
      const synth::HardwareTarget cache_target =
          hw != nullptr ? *hw : synth::HardwareTarget::all_to_all_cnot();
      synth::StringCostCache cache(cache_target);
      core::GammaObjective objective(n, term_blocks, hw,
                                     hw != nullptr ? &cache : nullptr);
      objective.reset(gf2::Matrix::identity(n));
      gf2::Matrix gamma = gf2::Matrix::identity(n);
      EXPECT_EQ(objective.energy(),
                core::fermionic_fast_cost(gamma, term_blocks, hw));
      for (int move = 0; move < 60; ++move) {
        const auto& block = blocks[movable[rng.index(movable.size())]];
        const std::size_t src = block[rng.index(block.size())];
        std::size_t dst = block[rng.index(block.size())];
        while (dst == src) dst = block[rng.index(block.size())];
        objective.apply_move(src, dst);
        if (rng.bernoulli(0.3)) {
          // Rejected proposal: undo must restore state and energy exactly.
          objective.undo_move();
        } else {
          gamma.add_row(src, dst);
        }
        ASSERT_TRUE(objective.gamma() == gamma);
        ASSERT_EQ(objective.energy(),
                  core::fermionic_fast_cost(gamma, term_blocks, hw))
            << "rep=" << rep << " move=" << move
            << " device=" << (hw != nullptr);
        // The maintained inverse-transpose must stay exact.
        ASSERT_TRUE(objective.inverse_transpose() ==
                    gamma.inverse()->transpose());
      }
    }
  }
}

TEST(AnnealGammaFast, BitIdenticalToGenericSimulatedAnnealing) {
  Rng build_rng(106);
  for (int rep = 0; rep < 6; ++rep) {
    const std::size_t n = 8;
    const auto terms = random_terms(n, 5, build_rng);
    const auto term_blocks = jw_term_blocks(n, terms);
    const auto blocks = core::discover_blocks(n, terms, {});
    const opt::SaOptions options{2.0, 0.05, 300, rep % 2 == 0 ? 0 : 50};

    Rng generic_rng(500 + rep);
    const core::GammaState generic = core::anneal_gamma(
        n, blocks,
        [&](const gf2::Matrix& g) {
          return core::fermionic_fast_cost(g, term_blocks);
        },
        generic_rng, options);

    Rng fast_rng(500 + rep);
    const core::GammaState fast = core::anneal_gamma_fast(
        n, blocks, term_blocks, nullptr, nullptr, fast_rng, options);

    EXPECT_TRUE(fast.gamma == generic.gamma) << "rep " << rep;
    EXPECT_EQ(fast.blocks, generic.blocks);
    // Both Rngs must have consumed the identical stream.
    EXPECT_EQ(generic_rng.index(1u << 30), fast_rng.index(1u << 30));
  }
}

/// Random GTSP instance with a pure tabulated weight.
opt::GtspInstance random_gtsp(std::size_t clusters, std::size_t max_size,
                              Rng& rng, std::vector<double>& table) {
  opt::GtspInstance inst;
  int next = 0;
  for (std::size_t c = 0; c < clusters; ++c) {
    std::vector<int> cluster;
    const std::size_t size = 1 + rng.index(max_size);
    for (std::size_t v = 0; v < size; ++v) cluster.push_back(next++);
    inst.clusters.push_back(std::move(cluster));
  }
  const std::size_t stride = static_cast<std::size_t>(next);
  table.resize(stride * stride);
  for (double& v : table) v = rng.uniform(-2.0, 8.0);
  inst.weight = [&table, stride](int a, int b) {
    return table[static_cast<std::size_t>(a) * stride +
                 static_cast<std::size_t>(b)];
  };
  return inst;
}

/// Random GTSP instance in the regime the GA's prefix reuse lives in: small
/// integer weights (ties and duplicate children are common), clusters of 1
/// to `max_size` vertices, and vertex ids shuffled over twice the vertex
/// count, so clusters are neither contiguous nor gap-free.
opt::GtspInstance integer_gtsp(std::size_t clusters, std::size_t max_size,
                               Rng& rng, std::vector<double>& table) {
  std::vector<std::size_t> sizes(clusters);
  std::size_t total = 0;
  for (std::size_t& size : sizes) total += size = 1 + rng.index(max_size);
  std::vector<int> ids(2 * total);
  std::iota(ids.begin(), ids.end(), 0);
  rng.shuffle(ids);
  opt::GtspInstance inst;
  auto next = ids.begin();
  for (std::size_t size : sizes) {
    inst.clusters.emplace_back(next, next + static_cast<std::ptrdiff_t>(size));
    next += static_cast<std::ptrdiff_t>(size);
  }
  const std::size_t stride = ids.size();
  table.resize(stride * stride);
  for (double& v : table) v = static_cast<double>(rng.index(9)) - 2.0;
  inst.weight = [&table, stride](int a, int b) {
    return table[static_cast<std::size_t>(a) * stride +
                 static_cast<std::size_t>(b)];
  };
  return inst;
}

/// Solves with the dense GA and the lazy reference on the same seed and
/// expects identical solutions and the same next RNG draw.
void expect_ga_matches_reference(const opt::GtspInstance& inst,
                                 const opt::GtspOptions& options,
                                 std::uint64_t seed, const std::string& what) {
  Rng ref_rng(seed), dense_rng(seed);
  const opt::GtspSolution reference =
      opt::detail::solve_gtsp_ga_reference(inst, ref_rng, options);
  const opt::GtspSolution dense = opt::solve_gtsp_ga(inst, dense_rng, options);
  EXPECT_EQ(dense.cluster_order, reference.cluster_order) << what;
  EXPECT_EQ(dense.vertex_choice, reference.vertex_choice) << what;
  EXPECT_EQ(dense.value, reference.value) << what;
  EXPECT_EQ(ref_rng.index(1u << 30), dense_rng.index(1u << 30)) << what;
}

TEST(DenseGtsp, GaBitIdenticalToLazyReference) {
  Rng build_rng(107);
  for (int rep = 0; rep < 12; ++rep) {
    std::vector<double> table;
    const auto inst =
        random_gtsp(1 + build_rng.index(20), 3, build_rng, table);
    const opt::GtspOptions options{.population = 16,
                                   .generations = 40,
                                   .tournament = 3,
                                   .mutation_rate = 0.4,
                                   .stagnation_limit = 25};
    expect_ga_matches_reference(inst, options, 700 + rep,
                                "rep " + std::to_string(rep));
  }
}

// Table-1 budgets run long enough to converge: most children then repeat a
// parent or share a long prefix with one, which is the path that reuses DP
// layers instead of recomputing them.
constexpr opt::GtspOptions kTableOneGtsp{.population = 32,
                                         .generations = 250,
                                         .tournament = 3,
                                         .mutation_rate = 0.35,
                                         .stagnation_limit = 60};

TEST(DenseGtsp, ConvergingIntegerInstancesMatchReference) {
  Rng build_rng(109);
  for (int rep = 0; rep < 16; ++rep) {
    std::vector<double> table;
    const auto inst =
        integer_gtsp(2 + build_rng.index(39), 8, build_rng, table);
    expect_ga_matches_reference(inst, kTableOneGtsp, 900 + rep,
                                "rep " + std::to_string(rep));
  }
}

TEST(DenseGtsp, MutationExtremesAndMinimalPopulationMatchReference) {
  Rng build_rng(110);
  for (int rep = 0; rep < 6; ++rep) {
    std::vector<double> table;
    const auto inst =
        integer_gtsp(2 + build_rng.index(39), 8, build_rng, table);
    for (const double rate : {0.0, 0.35, 1.0}) {
      opt::GtspOptions options = kTableOneGtsp;
      options.mutation_rate = rate;
      expect_ga_matches_reference(
          inst, options, 950 + rep,
          "rep " + std::to_string(rep) + " rate " + std::to_string(rate));
      options.population = 4;
      expect_ga_matches_reference(
          inst, options, 970 + rep,
          "rep " + std::to_string(rep) + " rate " + std::to_string(rate) +
              " population 4");
    }
  }
}

TEST(DenseGtsp, CountersReportWorkRunAndLayerReuse) {
  Rng build_rng(111);
  std::vector<double> table;
  const auto inst = integer_gtsp(40, 8, build_rng, table);
  auto& registry = obs::registry();
  const auto value = [&](const char* name) {
    return registry.counter(name).value();
  };
  const std::uint64_t generations = value("solver.gtsp_generations");
  const std::uint64_t to_best = value("solver.gtsp_generations_to_best");
  const std::uint64_t layers = value("solver.gtsp_dp_layers");
  const std::uint64_t reused = value("solver.gtsp_dp_layers_reused");
  Rng rng(112);
  (void)opt::solve_gtsp_ga(inst, rng, kTableOneGtsp);
  const std::uint64_t ran = value("solver.gtsp_generations") - generations;
  // The stagnation limit ends this converging solve before the budget, and
  // the counter reports the generations that ran, not the budget.
  EXPECT_GT(ran, 0u);
  EXPECT_LT(ran, static_cast<std::uint64_t>(kTableOneGtsp.generations));
  EXPECT_LE(value("solver.gtsp_generations_to_best") - to_best, ran);
  // Every scored member accounts for m layers, computed or reused, and the
  // prefix reuse fires.
  const std::uint64_t run = value("solver.gtsp_dp_layers") - layers;
  const std::uint64_t copied = value("solver.gtsp_dp_layers_reused") - reused;
  EXPECT_GT(copied, 0u);
  EXPECT_EQ((run + copied) % inst.clusters.size(), 0u);
  EXPECT_EQ((run + copied) / inst.clusters.size(),
            static_cast<std::uint64_t>(kTableOneGtsp.population) *
                (1 + ran) - ran);
}

TEST(DenseGtsp, RestartsShareOneMatrixAndMatchSerial) {
  Rng build_rng(108);
  std::vector<double> table;
  const auto inst = random_gtsp(10, 3, build_rng, table);
  // Count weight-function invocations: the restart API must materialize
  // exactly once regardless of restart count.
  std::size_t calls = 0;
  opt::GtspInstance counting = inst;
  const auto base = inst.weight;
  counting.weight = [&calls, base](int a, int b) {
    ++calls;
    return base(a, b);
  };
  const opt::GtspSolution multi =
      opt::solve_gtsp_ga_restarts(6, 42, counting, {});
  std::size_t cross_cluster_pairs = 0;
  for (const auto& ca : inst.clusters)
    for (const auto& cb : inst.clusters)
      if (&ca != &cb) cross_cluster_pairs += ca.size() * cb.size();
  EXPECT_EQ(calls, cross_cluster_pairs);

  // And the winner equals the best serial run over the derived streams.
  opt::GtspSolution best;
  double best_cost = 0;
  for (std::size_t r = 0; r < 6; ++r) {
    Rng rng(opt::restart_seed(42, r));
    opt::GtspSolution sol = opt::solve_gtsp_ga(inst, rng, {});
    if (r == 0 || -sol.value < best_cost) {
      best_cost = -sol.value;
      best = std::move(sol);
    }
  }
  EXPECT_EQ(multi.cluster_order, best.cluster_order);
  EXPECT_EQ(multi.vertex_choice, best.vertex_choice);
  EXPECT_EQ(multi.value, best.value);
}

/// Column-major shared-target savings table (wt[j*m + i] = saving of j
/// following i) of blocks that all carry support on `target`.
std::vector<int> shared_target_table(
    const std::vector<synth::RotationBlock>& blocks, std::size_t target) {
  const std::size_t m = blocks.size();
  std::vector<int> wt(m * m, 0);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < m; ++j)
      if (i != j && !blocks[i].string.same_letters(blocks[j].string))
        wt[j * m + i] = synth::interface_saving(blocks[i].string, target,
                                                blocks[j].string, target);
  return wt;
}

TEST(HeldKarp, PullDpMatchesBruteForceOnSmallTerms) {
  Rng rng(109);
  for (int rep = 0; rep < 40; ++rep) {
    const std::size_t n = 4 + rng.index(6);
    const std::size_t m = 2 + rng.index(4);  // brute force m! orders
    auto blocks = random_blocks(n, m, rng);
    // Shared target 0: force support there (interface_saving requires the
    // target to sit inside both strings' support, as sort_baseline
    // guarantees via common_targets).
    const std::size_t target = 0;
    for (auto& b : blocks) {
      if (b.string.letter(0) == Letter::I) b.string.set_letter(0, Letter::X);
      b.target = 0;
    }
    const std::vector<int> wt = shared_target_table(blocks, target);
    const auto res = core::detail::held_karp_order(wt.data(), m);
    // Brute force the maximum path savings.
    std::vector<std::size_t> perm(m);
    for (std::size_t i = 0; i < m; ++i) perm[i] = i;
    int best = -1;
    do {
      int savings = 0;
      for (std::size_t k = 0; k + 1 < m; ++k)
        if (!blocks[perm[k]].string.same_letters(blocks[perm[k + 1]].string))
          savings += synth::interface_saving(blocks[perm[k]].string, target,
                                             blocks[perm[k + 1]].string,
                                             target);
      best = std::max(best, savings);
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_EQ(res.savings, best) << "rep " << rep;
    // The returned order must realize the claimed savings.
    int realized = 0;
    for (std::size_t k = 0; k + 1 < m; ++k)
      if (!blocks[res.order[k]].string.same_letters(
              blocks[res.order[k + 1]].string))
        realized += synth::interface_saving(blocks[res.order[k]].string,
                                            target,
                                            blocks[res.order[k + 1]].string,
                                            target);
    EXPECT_EQ(realized, best) << "rep " << rep;
    EXPECT_GE(core::detail::path_savings_bound(wt.data(), m), best)
        << "rep " << rep;
  }
}

TEST(HeldKarp, ExactAndBoundedOnAsymmetricTables) {
  // Device savings need not be symmetric: the DP must still find the best
  // directed path, and path_savings_bound must never undercut it.
  Rng rng(115);
  for (int rep = 0; rep < 200; ++rep) {
    const std::size_t m = 1 + rng.index(6);
    std::vector<int> wt(m * m, 0);
    for (std::size_t j = 0; j < m; ++j)
      for (std::size_t i = 0; i < m; ++i)
        if (i != j) wt[j * m + i] = static_cast<int>(rng.index(10));
    std::vector<std::size_t> perm(m);
    for (std::size_t i = 0; i < m; ++i) perm[i] = i;
    int best = -1;
    do {
      int savings = 0;
      for (std::size_t k = 0; k + 1 < m; ++k)
        savings += wt[perm[k + 1] * m + perm[k]];
      best = std::max(best, savings);
    } while (std::next_permutation(perm.begin(), perm.end()));
    const auto res = core::detail::held_karp_order(wt.data(), m);
    EXPECT_EQ(res.savings, best) << "rep " << rep;
    int realized = 0;
    for (std::size_t k = 0; k + 1 < m; ++k)
      realized += wt[res.order[k + 1] * m + res.order[k]];
    EXPECT_EQ(realized, best) << "rep " << rep;
    EXPECT_GE(core::detail::path_savings_bound(wt.data(), m), best)
        << "rep " << rep;
  }
}

/// The production baseline sort must return exactly the oracle's blocks:
/// same strings (letters and phase), targets, angles, parameters, order.
void expect_sort_baseline_matches_oracle(
    const std::vector<std::vector<synth::RotationBlock>>& per_term,
    const synth::HardwareTarget* hw, const std::string& where) {
  const auto got = core::sort_baseline(per_term, hw);
  const auto want = oracles::sort_baseline_reference(per_term, hw);
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_TRUE(got[k].string == want[k].string) << where << " slot " << k;
    EXPECT_EQ(got[k].target, want[k].target) << where << " slot " << k;
    EXPECT_EQ(got[k].param, want[k].param) << where << " slot " << k;
    EXPECT_EQ(got[k].angle_coeff, want[k].angle_coeff)
        << where << " slot " << k;
  }
}

/// Random terms of 1..8 blocks sharing `shared` common qubits (the shape of
/// one excitation's strings); letters there are drawn from a small alphabet
/// so candidate targets often repeat a letter column.
std::vector<std::vector<synth::RotationBlock>> random_shared_terms(
    std::size_t n, std::size_t count, std::size_t shared, Rng& rng) {
  std::vector<std::vector<synth::RotationBlock>> per_term;
  int param = 0;
  for (std::size_t t = 0; t < count; ++t) {
    auto blocks = random_blocks(n, 1 + rng.index(8), rng);
    std::vector<std::size_t> sites;
    while (sites.size() < shared) {
      const std::size_t q = rng.index(n);
      if (std::find(sites.begin(), sites.end(), q) == sites.end())
        sites.push_back(q);
    }
    for (auto& b : blocks) {
      for (std::size_t q : sites)
        b.string.set_letter(q, rng.bernoulli(0.5) ? Letter::X : Letter::Y);
      b.target = b.string.support().lowest_set();
      b.param = param;
      b.angle_coeff = rng.uniform(-1.0, 1.0);
    }
    ++param;
    per_term.push_back(std::move(blocks));
  }
  return per_term;
}

TEST(BaselineSort, MatchesOracleOnRandomTerms) {
  Rng rng(110);
  for (int rep = 0; rep < 120; ++rep) {
    const std::size_t n = 4 + rng.index(10);
    const auto per_term =
        random_shared_terms(n, 1 + rng.index(6), 1 + rng.index(3), rng);
    expect_sort_baseline_matches_oracle(per_term, nullptr,
                                        "rep " + std::to_string(rep));
  }
}

TEST(BaselineSort, MatchesOracleOnTermsWithoutCommonTarget) {
  Rng rng(111);
  int fallback_terms = 0;
  for (int rep = 0; rep < 80; ++rep) {
    const std::size_t n = 4 + rng.index(6);
    std::vector<std::vector<synth::RotationBlock>> per_term;
    for (std::size_t t = 0; t < 1 + rng.index(4); ++t) {
      auto blocks = random_blocks(n, 2 + rng.index(6), rng);
      for (auto& b : blocks) b.param = static_cast<int>(t);
      if (core::detail::common_targets(blocks).empty()) ++fallback_terms;
      per_term.push_back(std::move(blocks));
    }
    expect_sort_baseline_matches_oracle(per_term, nullptr,
                                        "rep " + std::to_string(rep));
    const synth::HardwareTarget line = synth::HardwareTarget::linear_nn(n);
    expect_sort_baseline_matches_oracle(per_term, &line,
                                        "linear rep " + std::to_string(rep));
  }
  // The fallback (candidates = the first block's support) must really run.
  EXPECT_GE(fallback_terms, 20);
}

TEST(BaselineSort, MatchesOracleOnConstrainedDeviceTarget) {
  Rng rng(112);
  for (int rep = 0; rep < 60; ++rep) {
    const std::size_t n = 4 + rng.index(10);
    const auto per_term =
        random_shared_terms(n, 1 + rng.index(6), 1 + rng.index(3), rng);
    const synth::HardwareTarget line = synth::HardwareTarget::linear_nn(n);
    const synth::HardwareTarget xx = synth::HardwareTarget::trapped_ion_xx();
    expect_sort_baseline_matches_oracle(per_term, &line,
                                        "linear rep " + std::to_string(rep));
    expect_sort_baseline_matches_oracle(per_term, &xx,
                                        "xx rep " + std::to_string(rep));
  }
}

TEST(BaselineSort, MatchesOracleOnGammaMappedWater14Terms) {
  const bench::TermFixture& water = bench::water_terms(14);
  const auto jw_blocks = jw_term_blocks(water.n, water.terms);
  const synth::HardwareTarget line = synth::HardwareTarget::linear_nn(water.n);
  Rng rng(113);
  for (int rep = 0; rep < 30; ++rep) {
    const transform::LinearEncoding enc(
        gf2::Matrix::random_invertible(water.n, rng));
    std::vector<std::vector<synth::RotationBlock>> per_term = jw_blocks;
    for (auto& term_blocks : per_term)
      for (auto& b : term_blocks) {
        b.string = enc.map_string(b.string);
        b.target = b.string.support().lowest_set();
      }
    expect_sort_baseline_matches_oracle(per_term, nullptr,
                                        "rep " + std::to_string(rep));
    expect_sort_baseline_matches_oracle(per_term, &line,
                                        "linear rep " + std::to_string(rep));
  }
}

TEST(BaselineSort, SkipsOnlyTargetsThatCannotWin) {
  // Water(14) under Gamma = I: every double excitation has four common
  // targets, so the letter-column and bound skips both fire, and the
  // Held-Karp runs plus the skipped targets account for every candidate.
  const bench::TermFixture& water = bench::water_terms(14);
  const auto per_term = jw_term_blocks(water.n, water.terms);
  std::uint64_t candidates = 0;
  for (const auto& blocks : per_term)
    candidates += core::detail::common_targets(blocks).size();
  core::detail::HeldKarpTally tally;
  for (const auto& blocks : per_term)
    (void)core::detail::plan_term(blocks, nullptr, tally);
  EXPECT_EQ(tally.runs + tally.skipped, candidates);
  EXPECT_GT(tally.skipped, 0u);
  EXPECT_GT(tally.runs, 0u);
  expect_sort_baseline_matches_oracle(per_term, nullptr, "identity");
}

TEST(RealCost, PhaseFreeMatchesLinearEncodingOracleOnWater8) {
  const bench::TermFixture& water = bench::water_terms(8);
  const auto jw_blocks = jw_term_blocks(water.n, water.terms);
  core::CompileOptions options;
  // Equivalence, not quality: a small GA budget keeps 400 sorts cheap.
  options.gtsp_options.generations = 10;
  options.gtsp_options.population = 8;
  Rng rng(114);
  for (int rep = 0; rep < 200; ++rep) {
    const gf2::Matrix gamma = gf2::Matrix::random_invertible(water.n, rng);
    // The phase-free map yields the exact Clifford image's letters.
    const transform::LinearEncoding enc(gamma);
    const auto mapped = core::detail::map_blocks_phase_free(gamma, jw_blocks);
    for (std::size_t t = 0; t < mapped.size(); ++t)
      for (std::size_t k = 0; k < mapped[t].size(); ++k)
        ASSERT_TRUE(mapped[t][k].string.same_letters(
            enc.map_string(jw_blocks[t][k].string)));
    for (const core::SortingMode sorting :
         {core::SortingMode::kBaseline, core::SortingMode::kAdvanced}) {
      options.sorting = sorting;
      EXPECT_EQ(
          core::detail::fermionic_real_cost(gamma, jw_blocks, options, nullptr),
          oracles::real_fermionic_cost_reference(gamma, jw_blocks, options,
                                                 nullptr))
          << "rep " << rep << " sorting " << static_cast<int>(sorting);
    }
  }
  // A constrained device target re-weights both the sort and the cost.
  core::CompileOptions device = options;
  device.target = synth::HardwareTarget::linear_nn(water.n);
  device.sorting = core::SortingMode::kBaseline;
  for (int rep = 0; rep < 20; ++rep) {
    const gf2::Matrix gamma = gf2::Matrix::random_invertible(water.n, rng);
    EXPECT_EQ(core::detail::fermionic_real_cost(gamma, jw_blocks, device,
                                                &device.target),
              oracles::real_fermionic_cost_reference(gamma, jw_blocks, device,
                                                     &device.target))
        << "device rep " << rep;
  }
}

}  // namespace
}  // namespace femto
