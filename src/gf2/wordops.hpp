// Word kernels for the GF(2) layer: XOR/OR/AND row ops, popcount, parity,
// and the fused common-support reduction of the CNOT cost model.
//
// Everything here operates on raw 64-bit word spans (BitVec exposes its
// storage via word_data()/word_count()). All callers rely on the BitVec
// tail invariant -- bits >= size() in the final word are always zero -- so
// reductions read whole words with no tail masking.
//
// Each primitive is one plain loop: every Table-1 and served operand fits
// in a single word, so wider lanes would have nothing to do.
#pragma once

#include <cstddef>
#include <cstdint>

namespace femto::gf2::wordops {

/// The fused reduction behind interface_saving / best_shared_target_saving:
/// per wire (bit), "common" counts support overlap of two symplectic pairs,
/// "equal" the equal-letter subset, and has_xy flags any X/Y collision.
struct SupportCounts {
  int common = 0;
  int equal = 0;
  bool has_xy = false;
};

inline void xor_inplace(std::uint64_t* dst, const std::uint64_t* src,
                        std::size_t nw) {
  for (std::size_t w = 0; w < nw; ++w) dst[w] ^= src[w];
}

inline void or_inplace(std::uint64_t* dst, const std::uint64_t* src,
                       std::size_t nw) {
  for (std::size_t w = 0; w < nw; ++w) dst[w] |= src[w];
}

inline void and_inplace(std::uint64_t* dst, const std::uint64_t* src,
                        std::size_t nw) {
  for (std::size_t w = 0; w < nw; ++w) dst[w] &= src[w];
}

[[nodiscard]] inline std::size_t popcount(const std::uint64_t* w,
                                          std::size_t nw) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < nw; ++i)
    count += static_cast<std::size_t>(__builtin_popcountll(w[i]));
  return count;
}

/// XOR-parity of all bits in the span (== popcount(w, nw) & 1).
[[nodiscard]] inline bool parity(const std::uint64_t* w, std::size_t nw) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < nw; ++i) acc ^= w[i];
  return (__builtin_popcountll(acc) & 1) != 0;
}

[[nodiscard]] inline std::size_t and_popcount(const std::uint64_t* a,
                                              const std::uint64_t* b,
                                              std::size_t nw) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < nw; ++i)
    count += static_cast<std::size_t>(__builtin_popcountll(a[i] & b[i]));
  return count;
}

/// popcount(a | b): support weight of a symplectic (x, z) pair.
[[nodiscard]] inline std::size_t or_popcount(const std::uint64_t* a,
                                             const std::uint64_t* b,
                                             std::size_t nw) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < nw; ++i)
    count += static_cast<std::size_t>(__builtin_popcountll(a[i] | b[i]));
  return count;
}

/// Parity of the GF(2) inner product <a, b>.
[[nodiscard]] inline bool and_parity(const std::uint64_t* a,
                                     const std::uint64_t* b, std::size_t nw) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < nw; ++i) acc ^= a[i] & b[i];
  return (__builtin_popcountll(acc) & 1) != 0;
}

[[nodiscard]] inline SupportCounts support_counts(const std::uint64_t* x1,
                                                  const std::uint64_t* z1,
                                                  const std::uint64_t* x2,
                                                  const std::uint64_t* z2,
                                                  std::size_t nw) {
  SupportCounts out;
  std::uint64_t xy = 0;
  for (std::size_t w = 0; w < nw; ++w) {
    const std::uint64_t common = (x1[w] | z1[w]) & (x2[w] | z2[w]);
    out.common += __builtin_popcountll(common);
    out.equal +=
        __builtin_popcountll(common & ~(x1[w] ^ x2[w]) & ~(z1[w] ^ z2[w]));
    xy |= x1[w] & x2[w] & (z1[w] ^ z2[w]);
  }
  out.has_xy = xy != 0;
  return out;
}

}  // namespace femto::gf2::wordops
