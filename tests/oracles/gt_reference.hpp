// Reference implementations of the GT baseline's real-cost objective, kept
// as equivalence oracles for the production rewrite (tests) and as the "old"
// side of the bench_compile_hot speedup gate. Nothing in src/ includes this.
//
//  * held_karp_order_reference / sort_baseline_reference: the per-target
//    Held-Karp sort, which copies the term and rebuilds its savings table
//    from scratch for every candidate shared target. Production
//    (core/sorting.hpp) counts each pair's support once per term, fills one
//    weight table per target from those counts and skips targets that
//    provably cannot win.
//  * real_fermionic_cost_reference: maps every Jordan-Wigner block through a
//    full transform::LinearEncoding (PMH synthesis plus Clifford map, exact
//    signs) before sorting. Production (core/compiler.hpp) maps the letters
//    symplectically, since the cost never reads a sign.
//
// One deliberate difference from the historical code: the held_karp_order
// savings table uses each block's own target. On terms with a common target
// this is the candidate for every block, so nothing changes. On the
// no-common-target fallback the historical code passed the candidate for a
// block lacking support there, which aborted on interface_saving's
// precondition; here such a block keeps its first support qubit and saves
// nothing against blocks on other targets, as sort_baseline documents.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/compiler.hpp"
#include "core/sorting.hpp"
#include "transform/linear_encoding.hpp"

namespace femto::oracles {

/// Exact best order of one term's blocks, each on its assigned target
/// (Held-Karp over <= ~12 blocks). Returns ordered indices and the total
/// savings along the path.
[[nodiscard]] inline core::detail::IntraResult held_karp_order_reference(
    const std::vector<synth::RotationBlock>& blocks,
    const synth::HardwareTarget* hw = nullptr) {
  const std::size_t m = blocks.size();
  FEMTO_EXPECTS(m >= 1 && m <= 16);
  static thread_local std::vector<int> wt, dp, parent;
  // Column-major savings (wt[j*m + i] = saving of j following i).
  wt.assign(m * m, 0);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < m; ++j)
      if (i != j &&
          !blocks[i].string.same_letters(blocks[j].string))
        wt[j * m + i] = hw != nullptr
                      ? synth::interface_saving(blocks[i].string,
                                                blocks[i].target,
                                                blocks[j].string,
                                                blocks[j].target, *hw)
                      : synth::interface_saving(blocks[i].string,
                                                blocks[i].target,
                                                blocks[j].string,
                                                blocks[j].target);
  const std::size_t full = std::size_t{1} << m;
  dp.resize(full * m);
  parent.resize(full * m);
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
      const int* w_col = wt.data() + last * m;
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
  core::detail::IntraResult res;
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

/// Baseline sort: per-term shared target + exact intra-term order, then
/// doubly-greedy inter-term ordering (group by target, nearest-neighbor
/// within and across groups).
[[nodiscard]] inline std::vector<synth::RotationBlock> sort_baseline_reference(
    const std::vector<std::vector<synth::RotationBlock>>& per_term,
    const synth::HardwareTarget* hw = nullptr) {
  struct TermPlan {
    std::vector<synth::RotationBlock> ordered;  // with targets assigned
    std::size_t target = 0;
  };
  const synth::HardwareTarget* device =
      hw != nullptr && !hw->is_all_to_all_cnot() ? hw : nullptr;
  std::vector<TermPlan> plans;
  for (const auto& term_blocks : per_term) {
    if (term_blocks.empty()) continue;
    TermPlan best;
    int best_savings = std::numeric_limits<int>::min();
    std::vector<std::size_t> candidates =
        core::detail::common_targets(term_blocks);
    if (candidates.empty()) candidates = core::valid_targets(term_blocks[0]);
    for (std::size_t t : candidates) {
      // Blocks lacking support on t keep their own first support qubit.
      std::vector<synth::RotationBlock> with_target = term_blocks;
      for (auto& b : with_target)
        if (b.string.letter(t) != pauli::Letter::I) b.target = t;
      const core::detail::IntraResult res =
          held_karp_order_reference(with_target, device);
      int savings = res.savings;
      if (device != nullptr && device->coupling.constrained())
        for (const auto& b : with_target)
          savings -= synth::string_cost(b.string, b.target, *device);
      if (savings > best_savings) {
        best_savings = savings;
        best.target = t;
        best.ordered.clear();
        for (std::size_t idx : res.order)
          best.ordered.push_back(with_target[idx]);
      }
    }
    plans.push_back(std::move(best));
  }
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

/// Real (final-pipeline) cost of the fermionic segment under `gamma`:
/// conjugate every Jordan-Wigner block exactly through a LinearEncoding,
/// fold the sign into the angle, sort, and cost the sequence.
[[nodiscard]] inline int real_fermionic_cost_reference(
    const gf2::Matrix& gamma,
    const std::vector<std::vector<synth::RotationBlock>>& jw_blocks,
    const core::CompileOptions& options,
    const synth::HardwareTarget* hw = nullptr) {
  if (jw_blocks.empty()) return 0;
  const transform::LinearEncoding cand{gamma};
  std::vector<synth::RotationBlock> flat;
  std::vector<std::vector<synth::RotationBlock>> per_term;
  for (const auto& term_blocks : jw_blocks) {
    std::vector<synth::RotationBlock> mapped = term_blocks;
    for (auto& b : mapped) {
      b.string = cand.map_string(b.string);
      // Canonicalize sign into the angle for the synthesizer contract.
      const pauli::Complex s = b.string.sign();
      b.angle_coeff *= s.real();
      const int y = static_cast<int>((b.string.x() & b.string.z()).popcount());
      b.string.set_phase_exponent(y);
      b.target = b.string.support().lowest_set();
    }
    per_term.push_back(mapped);
    for (auto& b : per_term.back()) flat.push_back(b);
  }
  Rng sort_rng(options.seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<synth::RotationBlock> ordered;
  switch (options.sorting) {
    case core::SortingMode::kAdvanced:
      ordered = core::sort_advanced(flat, sort_rng, options.gtsp_options, hw);
      break;
    case core::SortingMode::kBaseline:
      ordered = sort_baseline_reference(per_term, hw);
      break;
    case core::SortingMode::kNone: ordered = flat; break;
  }
  return synth::sequence_model_cost(ordered, options.target);
}

}  // namespace femto::oracles
