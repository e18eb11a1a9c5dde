// Trotterized real-time evolution compiler (paper Sec. V extension).
//
// Compiles one first-order Trotter step exp(-i dt H) ~ prod_k exp(-i dt c_k
// P_k) with the advanced sorting engine. The same GTSP machinery that
// optimizes VQE ansatz circuits applies unchanged -- precisely the paper's
// point about extending the framework to dynamics.
#pragma once

#include <vector>

#include "core/compiler.hpp"
#include "core/rotation_blocks.hpp"
#include "core/sorting.hpp"
#include "synth/pauli_exponential.hpp"

namespace femto::core {

struct TrotterOptions {
  SortingMode sorting = SortingMode::kAdvanced;
  opt::GtspOptions gtsp_options{};
  std::uint64_t seed = 7;
};

struct TrotterResult {
  circuit::QuantumCircuit step;   // one Trotter step
  int model_cnots = 0;            // cost-model count of the sorted order
  int naive_cnots = 0;            // unsorted, unmerged emission
  std::vector<synth::RotationBlock> ordered_blocks;
};

/// Second-order (symmetric Suzuki) Trotter step: half step forward, half
/// step in reversed order. Error O(dt^3) per step versus O(dt^2) for first
/// order; the reversed half reuses the same sorted sequence, so the CNOT
/// cost is at most twice the first-order step minus the shared interface.
[[nodiscard]] inline circuit::QuantumCircuit second_order_step(
    std::size_t n, const std::vector<synth::RotationBlock>& ordered) {
  std::vector<synth::RotationBlock> sym;
  sym.reserve(2 * ordered.size());
  for (const auto& b : ordered) {
    sym.push_back(b);
    sym.back().angle_coeff *= 0.5;
  }
  for (auto it = ordered.rbegin(); it != ordered.rend(); ++it) {
    sym.push_back(*it);
    sym.back().angle_coeff *= 0.5;
  }
  return synth::synthesize_sequence(n, sym);
}

/// Compiles one Trotter step for a Hermitian PauliSum Hamiltonian.
[[nodiscard]] inline TrotterResult compile_trotter_step(
    std::size_t n, const pauli::PauliSum& hamiltonian, double dt,
    const TrotterOptions& options = {}) {
  std::vector<synth::RotationBlock> blocks;
  for (const pauli::PauliTerm& term : hamiltonian.terms()) {
    if (term.string.is_identity_letters()) continue;  // global phase
    FEMTO_EXPECTS(std::abs(term.coefficient.imag()) < 1e-10);
    synth::RotationBlock b;
    b.string = term.string;
    b.angle_coeff = 2.0 * term.coefficient.real() * dt;
    b.param = -1;
    b.target = b.string.support().lowest_set();
    blocks.push_back(std::move(b));
  }
  TrotterResult result;
  result.naive_cnots =
      synth::synthesize_sequence(n, blocks, synth::MergePolicy::kNone)
          .cnot_count();
  Rng rng(options.seed);
  switch (options.sorting) {
    case SortingMode::kAdvanced:
      result.ordered_blocks = sort_advanced(blocks, rng, options.gtsp_options);
      break;
    case SortingMode::kBaseline:
    case SortingMode::kNone:
      result.ordered_blocks = blocks;
      break;
  }
  result.model_cnots = synth::sequence_model_cost(result.ordered_blocks);
  result.step = synth::synthesize_sequence(n, result.ordered_blocks);
  return result;
}

}  // namespace femto::core
