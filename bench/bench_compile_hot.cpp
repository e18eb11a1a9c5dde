// Compile hot-path overhaul bench: old-vs-new paths timed in-process.
//
// Three speedup ratios, each measured as (median old path) / (median new
// path) on the SAME machine in the SAME run, so they are machine-independent
// and CI-gateable with absolute floors (tools/check_bench.py):
//
//   gamma_eval_speedup      Gamma-candidate evaluation on the water(14)
//                           fermionic JW block table: full recompute
//                           (gamma.inverse() + re-map of every string, the
//                           historical SA objective) vs the incremental
//                           GammaObjective apply-per-move path. Gated >= 3x.
//   gtsp_ga_speedup         The GTSP GA at 48 clusters: the historical lazy
//                           std::function solver (memoizing weight closure,
//                           per-generation allocations) vs the dense
//                           flat-matrix core. Gated >= 2x.
//   info_fast_term_cost_speedup
//                           Table-driven fast_term_cost vs the scalar
//                           reference loop (informational).
//   gt_real_cost_speedup    The GT baseline's real-cost objective on the
//                           water(14) block table over a fixed set of
//                           PSO-style Gamma candidates (upper-triangular
//                           times a level-labeling permutation): the
//                           LinearEncoding + per-target Held-Karp oracle of
//                           tests/oracles/gt_reference.hpp vs the phase-free
//                           map + shared-table Held-Karp production path.
//                           Gated >= 2.5x.
//
// Every comparison also asserts the two paths produce IDENTICAL results --
// the speedups are only meaningful because the fast paths are bit-identical.
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bench_fixtures.hpp"
#include "bench_harness.hpp"
#include "core/compiler.hpp"
#include "oracles/gt_reference.hpp"
#include "transform/linear_encoding.hpp"

namespace {

using namespace femto;

/// Jordan-Wigner rotation-block table of the water(14) ansatz, one entry per
/// term (the shape stage_plan hands the Gamma searches).
std::vector<std::vector<synth::RotationBlock>> water_term_blocks(
    const bench::TermFixture& fixture) {
  std::vector<std::vector<synth::RotationBlock>> term_blocks;
  int param = 0;
  for (const auto& term : fixture.terms)
    term_blocks.push_back(core::blocks_from_generator(
        transform::jw_map(fixture.n, term.generator()), param++));
  return term_blocks;
}

struct Move {
  std::size_t src = 0, dst = 0;
};

/// Random in-block elementary moves (the SA proposal distribution).
std::vector<Move> random_moves(
    const std::vector<std::vector<std::size_t>>& blocks, std::size_t count,
    Rng& rng) {
  std::vector<const std::vector<std::size_t>*> movable;
  for (const auto& b : blocks)
    if (b.size() >= 2) movable.push_back(&b);
  FEMTO_ASSERT(!movable.empty());
  std::vector<Move> moves;
  moves.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    const auto& block = *movable[rng.index(movable.size())];
    const std::size_t src = block[rng.index(block.size())];
    std::size_t dst = block[rng.index(block.size())];
    while (dst == src) dst = block[rng.index(block.size())];
    moves.push_back({src, dst});
  }
  return moves;
}

/// PSO-style GT candidates: a random upper-triangular unit-diagonal matrix
/// (what binary PSO decodes) times a random level-labeling permutation.
std::vector<gf2::Matrix> gt_candidates(std::size_t n, std::size_t count,
                                       Rng& rng) {
  std::vector<gf2::Matrix> out;
  for (std::size_t k = 0; k < count; ++k) {
    gf2::Matrix ut = gf2::Matrix::identity(n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) ut.set(i, j, rng.bernoulli(0.5));
    std::vector<std::size_t> perm(n);
    for (std::size_t i = 0; i < n; ++i) perm[i] = i;
    for (std::size_t i = n; i-- > 1;)
      std::swap(perm[i], perm[rng.index(i + 1)]);
    out.push_back(ut.multiply(gf2::Matrix::permutation(perm)));
  }
  return out;
}

}  // namespace

int main() {
  bench::Harness h("compile_hot");

  // ---- Gamma-candidate evaluation: full recompute vs incremental ---------
  const bench::TermFixture fixture =
      bench::molecule_fixture(chem::make_h2o(), 14);
  const std::size_t n = fixture.n;
  const auto term_blocks = water_term_blocks(fixture);
  const auto blocks = core::discover_blocks(n, fixture.terms, {});
  Rng move_rng(7);
  const std::vector<Move> moves = random_moves(blocks, 1500, move_rng);

  // Reference trajectory: apply every move to gamma and recompute from
  // scratch, exactly what the pre-incremental SA objective did per
  // candidate.
  std::vector<double> full_energies(moves.size());
  const double t_full = h.run("compile_hot/gamma_eval_full", 3, [&] {
    gf2::Matrix gamma = gf2::Matrix::identity(n);
    for (std::size_t k = 0; k < moves.size(); ++k) {
      gamma.add_row(moves[k].src, moves[k].dst);
      full_energies[k] = core::fermionic_fast_cost(gamma, term_blocks);
    }
  });

  std::vector<double> inc_energies(moves.size());
  core::GammaObjective objective(n, term_blocks);
  const double t_inc = h.run("compile_hot/gamma_eval_incremental", 3, [&] {
    objective.reset(gf2::Matrix::identity(n));
    for (std::size_t k = 0; k < moves.size(); ++k) {
      objective.apply_move(moves[k].src, moves[k].dst);
      inc_energies[k] = objective.energy();
    }
  });
  for (std::size_t k = 0; k < moves.size(); ++k)
    FEMTO_ASSERT(full_energies[k] == inc_energies[k]);

  // ---- GTSP GA at 48 clusters: lazy reference vs dense core --------------
  const std::size_t clusters = 48, per_cluster = 3;
  opt::GtspInstance inst;
  std::vector<double> weight_table(clusters * per_cluster * clusters *
                                   per_cluster);
  {
    Rng build(11);
    int next = 0;
    for (std::size_t c = 0; c < clusters; ++c) {
      std::vector<int> cluster;
      for (std::size_t v = 0; v < per_cluster; ++v) cluster.push_back(next++);
      inst.clusters.push_back(std::move(cluster));
    }
    for (double& v : weight_table) v = build.uniform(0.0, 8.0);
    const std::size_t stride = clusters * per_cluster;
    inst.weight = [&weight_table, stride](int a, int b) {
      return weight_table[static_cast<std::size_t>(a) * stride +
                          static_cast<std::size_t>(b)];
    };
  }
  opt::GtspSolution ref_sol, dense_sol;
  const double t_ref = h.run("compile_hot/gtsp_ga_48_reference", 3, [&] {
    // The historical production path: lazy solver behind the memoizing
    // closure sort_advanced used to build.
    auto memo = std::make_shared<std::unordered_map<std::uint64_t, double>>();
    opt::GtspInstance lazy = inst;
    const auto base = inst.weight;
    lazy.weight = [memo, base](int a, int b) {
      const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) |
                                static_cast<std::uint32_t>(b);
      const auto it = memo->find(key);
      if (it != memo->end()) return it->second;
      const double w = base(a, b);
      memo->emplace(key, w);
      return w;
    };
    Rng rng(23);
    ref_sol = opt::detail::solve_gtsp_ga_reference(lazy, rng);
  });
  opt::GtspWorkspace ws;
  const double t_dense = h.run("compile_hot/gtsp_ga_48_dense", 3, [&] {
    const opt::GtspDense dense(inst);  // materialization is part of the path
    Rng rng(23);
    dense_sol = opt::solve_gtsp_ga(dense, rng, {}, &ws);
  });
  FEMTO_ASSERT(ref_sol.cluster_order == dense_sol.cluster_order);
  FEMTO_ASSERT(ref_sol.vertex_choice == dense_sol.vertex_choice);
  FEMTO_ASSERT(ref_sol.value == dense_sol.value);

  // ---- fast_term_cost: table-driven vs scalar reference ------------------
  std::vector<std::vector<synth::RotationBlock>> cost_sets = term_blocks;
  long long sum_new = 0, sum_ref = 0;
  const double t_cost_ref = h.run("compile_hot/fast_term_cost_reference", 3, [&] {
    sum_ref = 0;
    for (int rep = 0; rep < 200; ++rep)
      for (const auto& set : cost_sets)
        sum_ref += core::detail::fast_term_cost_reference(set);
  });
  const double t_cost_new = h.run("compile_hot/fast_term_cost_table", 3, [&] {
    sum_new = 0;
    for (int rep = 0; rep < 200; ++rep)
      for (const auto& set : cost_sets)
        sum_new += core::fast_term_cost(set);
  });
  FEMTO_ASSERT(sum_new == sum_ref);

  // ---- GT real-cost objective: oracle vs phase-free shared-table path ----
  const core::CompileOptions gt_options =
      bench::table1_column_options("GT", fixture.terms.size());
  Rng gt_rng(31);
  const std::vector<gf2::Matrix> gt_gammas = gt_candidates(n, 40, gt_rng);
  std::vector<int> gt_ref_costs(gt_gammas.size());
  std::vector<int> gt_fast_costs(gt_gammas.size());
  const double t_gt_ref = h.run("compile_hot/gt_real_cost_reference", 3, [&] {
    for (std::size_t k = 0; k < gt_gammas.size(); ++k)
      gt_ref_costs[k] = oracles::real_fermionic_cost_reference(
          gt_gammas[k], term_blocks, gt_options);
  });
  const double t_gt_fast = h.run("compile_hot/gt_real_cost_fast", 3, [&] {
    for (std::size_t k = 0; k < gt_gammas.size(); ++k)
      gt_fast_costs[k] = core::detail::fermionic_real_cost(
          gt_gammas[k], term_blocks, gt_options, nullptr);
  });
  FEMTO_ASSERT(gt_ref_costs == gt_fast_costs);

  h.section("compile_hot/speedups");
  h.metric("gamma_eval_speedup", t_full / t_inc);
  h.metric("gtsp_ga_speedup", t_ref / t_dense);
  h.metric("info_fast_term_cost_speedup", t_cost_ref / t_cost_new);
  h.metric("gt_real_cost_speedup", t_gt_ref / t_gt_fast);
  std::printf(
      "[bench] gamma_eval %.1fx, gtsp_ga %.1fx, fast_term_cost %.1fx, "
      "gt_real_cost %.1fx\n",
      t_full / t_inc, t_ref / t_dense, t_cost_ref / t_cost_new,
      t_gt_ref / t_gt_fast);
  return h.write_json() ? 0 : 1;
}
