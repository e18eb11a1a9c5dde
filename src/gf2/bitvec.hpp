// Dynamic bit vector over GF(2).
//
// Used as the row type of GF2Matrix and as the symplectic x/z components of
// Pauli strings. Sized at runtime (molecular problems range from 4 to ~20
// qubits but the container supports arbitrary n).
//
// TAIL INVARIANT: bits at positions >= size() in the final storage word are
// ALWAYS zero. Construction zero-fills; the per-bit mutators only touch
// checked indices < size(); the word-parallel mutators (^=, |=, &=) combine
// two vectors of equal size, and 0 op 0 == 0 for all three operators, so the
// padding stays zero through every mutating op. The reduction kernels
// (popcount, parity, dot, the word ops in wordops.hpp, and hash_value)
// rely on this to read whole words with no tail masking. Property-tested in
// tests/test_gf2.cpp (TailPaddingInvariant).
//
// Hot-path accessors: get/set/flip validate their index with FEMTO_EXPECTS
// on every call, which is the right default for a library API but costs a
// compare+branch per *bit* inside compile inner loops (gamma_search move
// apply/undo, PauliString::letter). The *_u variants check only in Debug
// builds (FEMTO_DEBUG_EXPECTS) -- sanitizer CI still validates every index.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "gf2/wordops.hpp"

namespace femto::gf2 {

/// Fixed-length vector over GF(2), packed into 64-bit words.
class BitVec {
 public:
  BitVec() = default;
  explicit BitVec(std::size_t n) : n_(n), words_((n + 63) / 64, 0) {}

  /// Builds from a string of '0'/'1' characters, index 0 first.
  [[nodiscard]] static BitVec from_string(const std::string& bits) {
    BitVec v(bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i) {
      FEMTO_EXPECTS(bits[i] == '0' || bits[i] == '1');
      if (bits[i] == '1') v.set(i, true);
    }
    return v;
  }

  [[nodiscard]] std::size_t size() const { return n_; }

  [[nodiscard]] bool get(std::size_t i) const {
    FEMTO_EXPECTS(i < n_);
    return (words_[i / 64] >> (i % 64)) & 1ULL;
  }

  void set(std::size_t i, bool value) {
    FEMTO_EXPECTS(i < n_);
    const std::uint64_t mask = 1ULL << (i % 64);
    if (value)
      words_[i / 64] |= mask;
    else
      words_[i / 64] &= ~mask;
  }

  void flip(std::size_t i) {
    FEMTO_EXPECTS(i < n_);
    words_[i / 64] ^= 1ULL << (i % 64);
  }

  /// Unchecked accessors (Debug-only index validation): for inner loops
  /// whose indices are already bounded by construction. Same semantics as
  /// get/set/flip.
  [[nodiscard]] bool get_u(std::size_t i) const {
    FEMTO_DEBUG_EXPECTS(i < n_);
    return (words_[i / 64] >> (i % 64)) & 1ULL;
  }

  void set_u(std::size_t i, bool value) {
    FEMTO_DEBUG_EXPECTS(i < n_);
    const std::uint64_t mask = 1ULL << (i % 64);
    if (value)
      words_[i / 64] |= mask;
    else
      words_[i / 64] &= ~mask;
  }

  void flip_u(std::size_t i) {
    FEMTO_DEBUG_EXPECTS(i < n_);
    words_[i / 64] ^= 1ULL << (i % 64);
  }

  /// In-place XOR (vector addition over GF(2)).
  BitVec& operator^=(const BitVec& other) {
    FEMTO_EXPECTS(n_ == other.n_);
    wordops::xor_inplace(words_.data(), other.words_.data(), words_.size());
    return *this;
  }

  [[nodiscard]] friend BitVec operator^(BitVec lhs, const BitVec& rhs) {
    lhs ^= rhs;
    return lhs;
  }

  /// In-place OR.
  BitVec& operator|=(const BitVec& other) {
    FEMTO_EXPECTS(n_ == other.n_);
    wordops::or_inplace(words_.data(), other.words_.data(), words_.size());
    return *this;
  }

  [[nodiscard]] friend BitVec operator|(BitVec lhs, const BitVec& rhs) {
    lhs |= rhs;
    return lhs;
  }

  /// In-place AND.
  BitVec& operator&=(const BitVec& other) {
    FEMTO_EXPECTS(n_ == other.n_);
    wordops::and_inplace(words_.data(), other.words_.data(), words_.size());
    return *this;
  }

  [[nodiscard]] friend BitVec operator&(BitVec lhs, const BitVec& rhs) {
    lhs &= rhs;
    return lhs;
  }

  [[nodiscard]] bool operator==(const BitVec& other) const {
    return n_ == other.n_ && words_ == other.words_;
  }

  /// Number of set bits.
  [[nodiscard]] std::size_t popcount() const {
    return wordops::popcount(words_.data(), words_.size());
  }

  /// XOR of all bits (== popcount() & 1).
  [[nodiscard]] bool parity() const {
    return wordops::parity(words_.data(), words_.size());
  }

  [[nodiscard]] bool any() const {
    for (std::uint64_t w : words_)
      if (w != 0) return true;
    return false;
  }

  /// Parity of the inner product <this, other> over GF(2).
  [[nodiscard]] bool dot(const BitVec& other) const {
    FEMTO_EXPECTS(n_ == other.n_);
    return wordops::and_parity(words_.data(), other.words_.data(),
                               words_.size());
  }

  /// Index of the lowest set bit; n (size) when empty.
  [[nodiscard]] std::size_t lowest_set() const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      if (words_[w] != 0)
        return w * 64 + static_cast<std::size_t>(__builtin_ctzll(words_[w]));
    }
    return n_;
  }

  [[nodiscard]] std::string to_string() const {
    std::string out(n_, '0');
    for (std::size_t i = 0; i < n_; ++i)
      if (get(i)) out[i] = '1';
    return out;
  }

  /// Word storage, exposed for hashing.
  [[nodiscard]] const std::vector<std::uint64_t>& words() const { return words_; }

  /// Raw word span (tail invariant applies: bits >= size() are zero). The
  /// unchecked entry point for wordops.hpp kernels.
  [[nodiscard]] const std::uint64_t* word_data() const { return words_.data(); }
  [[nodiscard]] std::uint64_t* word_data() { return words_.data(); }
  [[nodiscard]] std::size_t word_count() const { return words_.size(); }

  /// The whole vector as one packed word. Only valid for size() <= 64; used
  /// by the statevector kernels to turn Pauli x/z components into O(1)
  /// per-index bit masks.
  [[nodiscard]] std::uint64_t mask64() const {
    FEMTO_EXPECTS(n_ <= 64);
    return words_.empty() ? 0 : words_[0];
  }

 private:
  std::size_t n_ = 0;
  std::vector<std::uint64_t> words_;
};

/// FNV-1a style hash over the packed words; used in hash maps of Pauli strings.
[[nodiscard]] inline std::size_t hash_value(const BitVec& v) {
  std::size_t h = 1469598103934665603ULL;
  for (std::uint64_t w : v.words()) {
    h ^= static_cast<std::size_t>(w);
    h *= 1099511628211ULL;
  }
  return h ^ v.size();
}

}  // namespace femto::gf2
