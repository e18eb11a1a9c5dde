// String-ordering engines.
//
// Advanced sorting (paper Sec. III-B): all strings of a segment are sorted
// jointly over both order and per-string target choice by mapping to GTSP
// (cluster = string, vertices = (string, target)) and solving with the
// genetic algorithm.
//
// Baseline sorting ([9], used for the JW / BK / GT columns of Table I):
// every string of one excitation term shares a single target; the
// intra-term order is solved exactly per target (Held-Karp over <= 8
// strings, the "exhaustive search" of the baseline); inter-term ordering is
// doubly greedy -- group terms by best target, order within groups by
// nearest-neighbor savings.
//
// Hot-path layout (all bit-identical to the historical scalar code):
//  * sort_advanced materializes the GTSP weights straight into a dense
//    matrix (opt::GtspDense) -- no std::function, no hash-map memo -- and
//    runs the allocation-free GA core.
//  * sort_baseline counts each pair's support once per term and fills one
//    Held-Karp weight table per candidate target from those counts (or from
//    the device savings); the DP runs on flat per-thread scratch with set-bit
//    iteration over the subset masks, and candidates that provably cannot
//    win are skipped. tests/oracles/gt_reference.hpp keeps the per-target
//    sorter this must match.
//  * fast_term_cost builds an m x m best-shared-target savings table once
//    (word-parallel closed form on the default model) and runs the greedy
//    chain as table lookups; the historical scalar loop survives as
//    detail::fast_term_cost_reference (test oracle + speedup bench).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/rotation_blocks.hpp"
#include "obs/metrics.hpp"
#include "opt/gtsp.hpp"
#include "synth/cost_model.hpp"

namespace femto::core {

/// GTSP-based joint sort (order + targets). Returns the blocks in
/// implementation order with targets assigned. With a non-default
/// HardwareTarget the GTSP edge weights become the *device* savings
/// (synth/cost_model.hpp); on connectivity-constrained targets each edge
/// additionally carries the successor vertex's target-choice bonus (its
/// cluster-minimal routing-aware string cost minus the vertex's own), so the
/// solver is steered toward cheap target placements as well as savings. Both
/// extras are exactly zero for all_to_all_cnot / hw == nullptr, keeping the
/// historical behavior bit-identical.
[[nodiscard]] inline std::vector<synth::RotationBlock> sort_advanced(
    const std::vector<synth::RotationBlock>& blocks, Rng& rng,
    const opt::GtspOptions& options = {},
    const synth::HardwareTarget* hw = nullptr) {
  if (blocks.size() <= 1) return blocks;
  // Vertex table: (block index, target).
  struct Vertex {
    std::size_t block;
    std::size_t target;
    double bonus;  // cluster-min string cost - this vertex's string cost
  };
  std::vector<Vertex> vertices;
  const bool device = hw != nullptr && !hw->is_all_to_all_cnot();
  const bool constrained = device && hw->coupling.constrained();
  opt::GtspDense inst;
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    std::vector<int> cluster;
    const std::size_t first = vertices.size();
    for (std::size_t t : valid_targets(blocks[k])) {
      cluster.push_back(static_cast<int>(vertices.size()));
      vertices.push_back({k, t, 0.0});
    }
    FEMTO_EXPECTS(!cluster.empty());
    if (constrained) {
      int min_cost = std::numeric_limits<int>::max();
      for (std::size_t v = first; v < vertices.size(); ++v)
        min_cost = std::min(
            min_cost, synth::string_cost(blocks[k].string,
                                         vertices[v].target, *hw));
      for (std::size_t v = first; v < vertices.size(); ++v)
        vertices[v].bonus = static_cast<double>(
            min_cost - synth::string_cost(blocks[k].string,
                                          vertices[v].target, *hw));
    }
    inst.clusters.push_back(std::move(cluster));
  }
  // Dense interface-saving table. Identical letter strings get weight 0 (the
  // paper inserts no edge between equal strings; adjacency is allowed but
  // yields no credit). Intra-cluster pairs are never consulted and stay 0.
  inst.allocate();
  for (std::size_t a = 0; a < vertices.size(); ++a) {
    const Vertex& va = vertices[a];
    for (std::size_t b = 0; b < vertices.size(); ++b) {
      const Vertex& vb = vertices[b];
      if (va.block == vb.block) continue;
      double w = 0.0;
      if (!blocks[va.block].string.same_letters(blocks[vb.block].string))
        w = device ? synth::interface_saving(blocks[va.block].string,
                                             va.target,
                                             blocks[vb.block].string,
                                             vb.target, *hw)
                   : synth::interface_saving(blocks[va.block].string,
                                             va.target,
                                             blocks[vb.block].string,
                                             vb.target);
      w += vb.bonus;
      inst.set_weight(static_cast<int>(a), static_cast<int>(b), w);
    }
  }
  const opt::GtspSolution sol = opt::solve_gtsp_ga(inst, rng, options);
  std::vector<synth::RotationBlock> out;
  out.reserve(blocks.size());
  for (std::size_t slot = 0; slot < sol.cluster_order.size(); ++slot) {
    const Vertex& v = vertices[static_cast<std::size_t>(sol.vertex_choice[slot])];
    synth::RotationBlock b = blocks[v.block];
    b.target = v.target;
    out.push_back(std::move(b));
  }
  return out;
}

namespace detail {

/// Block indices in path order and the total savings along the path.
struct IntraResult {
  std::vector<std::size_t> order;
  int savings = 0;
};

/// Exact best order of one term's m <= 16 blocks (Held-Karp) on a
/// caller-filled savings table. `wt` is column-major: wt[j*m + i] is the
/// (non-negative) saving of block j following block i; the diagonal is
/// never read.
[[nodiscard]] inline IntraResult held_karp_order(const int* wt,
                                                 std::size_t m) {
  FEMTO_EXPECTS(m >= 1 && m <= 16);
  // Flat per-thread scratch: this is the inner loop of the baseline-search
  // objective (one call per term per candidate target per candidate Gamma),
  // so the 2^m x m tables must not touch the allocator on the steady state.
  static thread_local std::vector<int> dp, parent;
  const std::size_t full = std::size_t{1} << m;
  dp.resize(full * m);
  parent.resize(full * m);
  // Pull form of the subset DP: every relaxation into state (mask, last)
  // comes from the unique source mask \ {last}, so computing each state
  // once as a max over that row is exactly the push relaxation -- same
  // values (savings are non-negative) and the same first-maximizer
  // tie-break (predecessors scanned in ascending index). Entries for
  // last not in mask are never read, so no -1 initialization pass is
  // needed.
  for (std::size_t k = 0; k < m; ++k) {
    dp[(std::size_t{1} << k) * m + k] = 0;
    parent[(std::size_t{1} << k) * m + k] = -1;
  }
  for (std::size_t mask = 1; mask < full; ++mask) {
    if ((mask & (mask - 1)) == 0) continue;  // singletons are base cases
    for (std::size_t rest = mask; rest != 0; rest &= rest - 1) {
      const std::size_t last =
          static_cast<std::size_t>(__builtin_ctzll(rest));
      const std::size_t pm = mask ^ (std::size_t{1} << last);
      const int* dp_row = dp.data() + pm * m;
      const int* w_col = wt + last * m;
      int best = -1;
      int best_prev = -1;
      for (std::size_t prev_bits = pm; prev_bits != 0;
           prev_bits &= prev_bits - 1) {
        const std::size_t k =
            static_cast<std::size_t>(__builtin_ctzll(prev_bits));
        const int cand = dp_row[k] + w_col[k];
        if (cand > best) {
          best = cand;
          best_prev = static_cast<int>(k);
        }
      }
      dp[mask * m + last] = best;
      parent[mask * m + last] = best_prev;
    }
  }
  IntraResult res;
  std::size_t best_last = 0;
  int best = -1;
  for (std::size_t last = 0; last < m; ++last)
    if (dp[(full - 1) * m + last] > best) {
      best = dp[(full - 1) * m + last];
      best_last = last;
    }
  res.savings = best;
  res.order.resize(m);
  std::size_t mask = full - 1;
  std::size_t cur = best_last;
  for (std::size_t pos = m; pos-- > 0;) {
    res.order[pos] = cur;
    const int par = parent[mask * m + cur];
    mask ^= std::size_t{1} << cur;
    if (par < 0) break;
    cur = static_cast<std::size_t>(par);
  }
  return res;
}

/// Targets common to every block of a term (shared-target candidates).
[[nodiscard]] inline std::vector<std::size_t> common_targets(
    const std::vector<synth::RotationBlock>& blocks) {
  std::vector<std::size_t> out;
  if (blocks.empty()) return out;
  for (std::size_t t : valid_targets(blocks[0])) {
    bool ok = true;
    for (const auto& b : blocks)
      if (b.string.letter(t) == pauli::Letter::I) ok = false;
    if (ok) out.push_back(t);
  }
  return out;
}

/// Upper bound on the savings of any path through all m blocks of the
/// column-major table `wt` (held_karp_order's layout, entries >= 0): the
/// smaller of two relaxations. (1) Every block but the first has one
/// predecessor, worth at most its best incoming saving. (2) Every block
/// touches at most two path edges, each worth at most the larger of its two
/// directions; the two ends touch one, so twice the savings is at most the
/// sum of every block's two best edges less the two smallest second-best.
[[nodiscard]] inline int path_savings_bound(const int* wt, std::size_t m) {
  if (m < 2) return 0;
  int in_sum = 0;
  int in_min = std::numeric_limits<int>::max();
  int edge_sum = 0;
  int second_min = std::numeric_limits<int>::max();
  int second_next = std::numeric_limits<int>::max();
  for (std::size_t j = 0; j < m; ++j) {
    int best_in = 0, first = 0, second = 0;
    for (std::size_t i = 0; i < m; ++i) {
      if (i == j) continue;
      best_in = std::max(best_in, wt[j * m + i]);
      const int edge = std::max(wt[j * m + i], wt[i * m + j]);
      if (edge > first) {
        second = first;
        first = edge;
      } else if (edge > second) {
        second = edge;
      }
    }
    in_sum += best_in;
    in_min = std::min(in_min, best_in);
    edge_sum += first + second;
    if (second < second_min) {
      second_next = second_min;
      second_min = second;
    } else if (second < second_next) {
      second_next = second;
    }
  }
  return std::min(in_sum - in_min,
                  (edge_sum - second_min - second_next) / 2);
}

/// One term of the baseline sort: its blocks in Held-Karp order with the
/// targets assigned, and the shared target that order was solved for.
struct TermPlan {
  std::vector<synth::RotationBlock> ordered;
  std::size_t target = 0;
};

/// Held-Karp work of one sort_baseline call.
struct HeldKarpTally {
  std::uint64_t runs = 0;
  std::uint64_t skipped = 0;
};

/// Best shared target and exact intra-term order of one term: the first
/// candidate (common targets, else the first block's support) whose
/// Held-Karp savings, less the routing-aware string costs on constrained
/// devices, is strictly largest. Blocks lacking support on a candidate keep
/// their own target and save nothing against blocks on other targets.
///
/// One savings table per candidate, one DP: the default model fills the
/// table from each pair's target-independent support counts (taken once per
/// term) and the two letters at the shared target; a device fills it through
/// interface_saving(..., *device). Two exact skips avoid DPs that cannot
/// change the answer: a candidate whose table and string cost repeat an
/// earlier candidate's has the same savings and so cannot strictly beat it
/// (on the default model, any candidate whose letter column repeats an
/// earlier one's), and one whose path_savings_bound, less its string cost,
/// cannot beat the best found so far in (savings, first index) order.
[[nodiscard]] inline TermPlan plan_term(
    const std::vector<synth::RotationBlock>& blocks,
    const synth::HardwareTarget* device, HeldKarpTally& tally) {
  const std::size_t m = blocks.size();
  FEMTO_EXPECTS(m >= 1 && m <= 16);
  const bool constrained = device != nullptr && device->coupling.constrained();
  std::vector<std::size_t> candidates = common_targets(blocks);
  if (candidates.empty()) candidates = valid_targets(blocks[0]);
  FEMTO_EXPECTS(!candidates.empty());

  // Pair counts, symmetric; pairs with identical letters never save.
  std::array<synth::detail::CommonSupport, 16 * 16> counts{};
  std::array<bool, 16 * 16> distinct{};
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = i + 1; j < m; ++j) {
      const pauli::PauliString& pi = blocks[i].string;
      const pauli::PauliString& pj = blocks[j].string;
      if (pi.same_letters(pj)) continue;
      distinct[i * m + j] = distinct[j * m + i] = true;
      if (device == nullptr)
        counts[i * m + j] = counts[j * m + i] =
            synth::detail::common_support_counts(pi.x(), pi.z(), pj.x(),
                                                 pj.z());
    }

  // Blocks lacking support on the candidate keep their own target.
  std::array<std::size_t, 16> targets{};
  const auto assign_targets = [&](std::size_t t) {
    for (std::size_t k = 0; k < m; ++k)
      targets[k] = blocks[k].string.letter(t) != pauli::Letter::I
                       ? t
                       : blocks[k].target;
  };

  // Every candidate's table; the distinct ones are scored by their savings
  // bound less their string cost.
  struct Scored {
    std::size_t index;  // into candidates
    int bound;
    int string_costs;
  };
  const std::size_t cells = m * m;
  std::vector<int> tables(candidates.size() * cells);
  std::vector<Scored> scored;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    assign_targets(candidates[c]);
    int string_costs = 0;
    if (constrained)
      for (std::size_t k = 0; k < m; ++k)
        string_costs +=
            synth::string_cost(blocks[k].string, targets[k], *device);
    int* wt = tables.data() + c * cells;
    for (std::size_t j = 0; j < m; ++j)
      for (std::size_t i = 0; i < m; ++i)
        wt[j * m + i] =
            !distinct[i * m + j] || targets[i] != targets[j] ? 0
            : device != nullptr
                ? synth::interface_saving(blocks[i].string, targets[i],
                                          blocks[j].string, targets[j],
                                          *device)
                : synth::detail::interface_saving_from_counts(
                      counts[i * m + j],
                      blocks[i].string.letter(targets[i]),
                      blocks[j].string.letter(targets[j]));
    const bool repeat =
        std::any_of(scored.begin(), scored.end(), [&](const Scored& s) {
          return s.string_costs == string_costs &&
                 std::equal(wt, wt + cells, tables.data() + s.index * cells);
        });
    if (repeat) {
      ++tally.skipped;
      continue;
    }
    scored.push_back(
        {c, path_savings_bound(wt, m) - string_costs, string_costs});
  }

  // The answer is the first candidate with the largest savings, i.e. the
  // lexicographic max of (savings, -index). Solving the most promising
  // candidates first finds it early; a candidate whose bound cannot beat
  // the best so far in that order is skipped, and once the (descending)
  // bounds fall below the best savings every remaining one is.
  std::sort(scored.begin(), scored.end(),
            [](const Scored& a, const Scored& b) {
              return a.bound != b.bound ? a.bound > b.bound : a.index < b.index;
            });
  int best_savings = std::numeric_limits<int>::min();
  std::size_t best_index = candidates.size();
  std::vector<std::size_t> best_order;
  for (std::size_t k = 0; k < scored.size(); ++k) {
    const Scored& s = scored[k];
    if (s.bound < best_savings) {
      tally.skipped += scored.size() - k;
      break;
    }
    if (s.bound == best_savings && s.index > best_index) {
      ++tally.skipped;
      continue;
    }
    ++tally.runs;
    IntraResult res = held_karp_order(tables.data() + s.index * cells, m);
    const int savings = res.savings - s.string_costs;
    if (savings > best_savings ||
        (savings == best_savings && s.index < best_index)) {
      best_savings = savings;
      best_index = s.index;
      best_order = std::move(res.order);
    }
  }
  TermPlan plan;
  plan.target = candidates[best_index];
  assign_targets(plan.target);
  plan.ordered.reserve(m);
  for (std::size_t idx : best_order) {
    plan.ordered.push_back(blocks[idx]);
    plan.ordered.back().target = targets[idx];
  }
  return plan;
}

}  // namespace detail

/// Baseline sort: per-term shared target + exact intra-term order
/// (detail::plan_term), then doubly-greedy inter-term ordering (group by
/// target, nearest-neighbor within and across groups). With a non-default
/// HardwareTarget, savings are the device savings and the shared-target
/// choice additionally weighs the routing-aware string costs (zero delta on
/// unconstrained targets). Held-Karp runs and skipped candidate targets are
/// published to the metrics registry once per call.
[[nodiscard]] inline std::vector<synth::RotationBlock> sort_baseline(
    const std::vector<std::vector<synth::RotationBlock>>& per_term,
    const synth::HardwareTarget* hw = nullptr) {
  using detail::TermPlan;
  const synth::HardwareTarget* device =
      hw != nullptr && !hw->is_all_to_all_cnot() ? hw : nullptr;
  detail::HeldKarpTally tally;
  std::vector<TermPlan> plans;
  for (const auto& term_blocks : per_term)
    if (!term_blocks.empty())
      plans.push_back(detail::plan_term(term_blocks, device, tally));
  static obs::Counter& runs = obs::registry().counter("solver.held_karp_runs");
  static obs::Counter& skipped =
      obs::registry().counter("solver.held_karp_targets_skipped");
  runs.inc(tally.runs);
  skipped.inc(tally.skipped);
  // Group by shared target (descending group size), nearest-neighbor order
  // within each group using the real boundary savings.
  std::vector<std::vector<TermPlan>> groups;
  for (auto& plan : plans) {
    bool placed = false;
    for (auto& g : groups)
      if (g.front().target == plan.target) {
        g.push_back(std::move(plan));
        placed = true;
        break;
      }
    if (!placed) groups.push_back({std::move(plan)});
  }
  std::sort(groups.begin(), groups.end(),
            [](const auto& a, const auto& b) { return a.size() > b.size(); });
  const auto boundary_saving = [device](const TermPlan& a, const TermPlan& b) {
    const synth::RotationBlock& last = a.ordered.back();
    const synth::RotationBlock& first = b.ordered.front();
    if (last.string.same_letters(first.string)) return 0;
    return device != nullptr
               ? synth::interface_saving(last.string, last.target,
                                         first.string, first.target, *device)
               : synth::interface_saving(last.string, last.target,
                                         first.string, first.target);
  };
  std::vector<synth::RotationBlock> out;
  for (auto& group : groups) {
    // Greedy chain within the group.
    std::vector<bool> used(group.size(), false);
    std::size_t cur = 0;
    used[0] = true;
    std::vector<std::size_t> order{0};
    for (std::size_t step = 1; step < group.size(); ++step) {
      int best = -1;
      std::size_t best_next = 0;
      for (std::size_t cand = 0; cand < group.size(); ++cand) {
        if (used[cand]) continue;
        const int s = boundary_saving(group[cur], group[cand]);
        if (s > best) {
          best = s;
          best_next = cand;
        }
      }
      used[best_next] = true;
      order.push_back(best_next);
      cur = best_next;
    }
    for (std::size_t idx : order)
      for (const auto& b : group[idx].ordered) out.push_back(b);
  }
  return out;
}

namespace detail {

/// Best shared-target interface saving between two blocks under a device
/// model: max over the shared support of the per-target device saving
/// (scalar loop; the default CNOT model uses the closed-form word-parallel
/// kernel in synth/cost_model.hpp instead). Returns -1 when no shared
/// target exists.
[[nodiscard]] inline int best_shared_device_saving(
    const pauli::PauliString& p1, const pauli::PauliString& p2,
    const synth::HardwareTarget& hw) {
  int best = -1;
  for (std::size_t t = 0; t < p1.num_qubits(); ++t) {
    if (p1.letter(t) == pauli::Letter::I ||
        p2.letter(t) == pauli::Letter::I)
      continue;
    best = std::max(best, synth::interface_saving(p1, t, p2, t, hw));
  }
  return best;
}

/// Greedy nearest-neighbor chain over a precomputed pair-savings table.
/// table[i*m + j] is the best shared-target saving of j following i, with
/// -1 marking pairs that cannot chain (identical letters or no shared
/// target). Returns the total savings collected along the chain; `used` is
/// caller scratch of at least m bytes. Selection order and tie-breaks match
/// the historical nested-loop greedy exactly: candidates are scanned in
/// ascending index with strict improvement, so the first candidate
/// achieving the maximal saving wins, and when every candidate is
/// unreachable the lowest-index unused block is taken with zero credit.
[[nodiscard]] inline int greedy_chain_savings(const int* table, std::size_t m,
                                              std::uint8_t* used) {
  std::fill(used, used + m, std::uint8_t{0});
  used[0] = 1;
  std::size_t cur = 0;
  int collected = 0;
  for (std::size_t step = 1; step < m; ++step) {
    int best = -1;
    std::size_t best_next = 0;
    const int* row = table + cur * m;
    for (std::size_t cand = 0; cand < m; ++cand) {
      if (used[cand]) continue;
      if (row[cand] > best) {
        best = row[cand];
        best_next = cand;
      }
    }
    if (best < 0) {
      for (std::size_t cand = 0; cand < m; ++cand)
        if (!used[cand]) {
          best_next = cand;
          best = 0;
          break;
        }
    }
    collected += std::max(best, 0);
    used[best_next] = 1;
    cur = best_next;
  }
  return collected;
}

/// The historical scalar fast_term_cost, preserved as the equivalence
/// oracle for the table-driven rewrite (tests) and the old-vs-new speedup
/// bench.
[[nodiscard]] inline int fast_term_cost_reference(
    const std::vector<synth::RotationBlock>& blocks,
    const synth::HardwareTarget* hw = nullptr) {
  if (blocks.empty()) return 0;
  const synth::HardwareTarget* device =
      hw != nullptr && !hw->is_all_to_all_cnot() ? hw : nullptr;
  int total = 0;
  for (const auto& b : blocks) {
    if (device == nullptr) {
      total += synth::string_cost(b.string);
    } else if (!device->coupling.constrained()) {
      total += synth::string_cost(b.string, b.target, *device);
    } else {
      int cheapest = std::numeric_limits<int>::max();
      for (std::size_t t : valid_targets(b))
        cheapest = std::min(cheapest,
                            synth::string_cost(b.string, t, *device));
      total += cheapest;
    }
  }
  // Greedy chain: start at block 0 with its first target.
  std::vector<bool> used(blocks.size(), false);
  used[0] = true;
  std::size_t cur = 0;
  for (std::size_t step = 1; step < blocks.size(); ++step) {
    int best = -1;
    std::size_t best_next = 0;
    for (std::size_t cand = 0; cand < blocks.size(); ++cand) {
      if (used[cand] || blocks[cand].string.same_letters(blocks[cur].string))
        continue;
      for (std::size_t t1 : valid_targets(blocks[cur])) {
        if (blocks[cand].string.letter(t1) == pauli::Letter::I) continue;
        const int s =
            device != nullptr
                ? synth::interface_saving(blocks[cur].string, t1,
                                          blocks[cand].string, t1, *device)
                : synth::interface_saving(blocks[cur].string, t1,
                                          blocks[cand].string, t1);
        if (s > best) {
          best = s;
          best_next = cand;
        }
      }
    }
    if (best < 0) {
      // No shareable target; take any unused block with zero saving.
      for (std::size_t cand = 0; cand < blocks.size(); ++cand)
        if (!used[cand]) {
          best_next = cand;
          best = 0;
          break;
        }
    }
    total -= std::max(best, 0);
    used[best_next] = true;
    cur = best_next;
  }
  return total;
}

}  // namespace detail

/// Fast per-term cost used inside annealing loops: nearest-neighbor chain
/// with per-block target freedom, no inter-term credit. With a non-default
/// HardwareTarget this is the device-cost analogue (for constrained targets,
/// string costs use the cheapest routing-aware target per block, memoized in
/// `cost_cache` when one is supplied).
///
/// Hot-path shape: the m x m best-shared-target savings table is built first
/// (the fused support-count kernel of gf2/wordops.hpp on the
/// default model -- see synth::best_shared_target_saving -- scalar
/// per-target device savings otherwise) and the greedy chain then runs on
/// table lookups alone; scratch lives in per-thread buffers, so steady-state
/// calls allocate nothing. Bit-identical to detail::fast_term_cost_reference.
[[nodiscard]] inline int fast_term_cost(
    const std::vector<synth::RotationBlock>& blocks,
    const synth::HardwareTarget* hw = nullptr,
    synth::StringCostCache* cost_cache = nullptr) {
  if (blocks.empty()) return 0;
  const synth::HardwareTarget* device =
      hw != nullptr && !hw->is_all_to_all_cnot() ? hw : nullptr;
  const std::size_t m = blocks.size();
  int total = 0;
  for (const auto& b : blocks) {
    if (device == nullptr) {
      total += synth::string_cost(b.string);
    } else if (!device->coupling.constrained()) {
      total += cost_cache != nullptr
                   ? cost_cache->cost(b.string, b.target)
                   : synth::string_cost(b.string, b.target, *device);
    } else if (cost_cache != nullptr) {
      total += cost_cache->min_cost(b.string);
    } else {
      int cheapest = std::numeric_limits<int>::max();
      for (std::size_t t : valid_targets(b))
        cheapest = std::min(cheapest,
                            synth::string_cost(b.string, t, *device));
      total += cheapest;
    }
  }
  if (m == 1) return total;
  static thread_local std::vector<int> table;
  static thread_local std::vector<std::uint8_t> used;
  table.resize(m * m);
  used.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      if (i == j ||
          blocks[i].string.same_letters(blocks[j].string)) {
        table[i * m + j] = -1;
        continue;
      }
      table[i * m + j] =
          device != nullptr
              ? detail::best_shared_device_saving(blocks[i].string,
                                                  blocks[j].string, *device)
              : synth::best_shared_target_saving(blocks[i].string,
                                                 blocks[j].string);
    }
  }
  return total - detail::greedy_chain_savings(table.data(), m, used.data());
}

}  // namespace femto::core
