// Square matrices over GF(2) and the operations the paper's transforms need:
// rank / invertibility, inverse, transpose, products, row operations, random
// invertible sampling, and block-diagonal assembly (Sec. III-C of the paper).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gf2/bitvec.hpp"

namespace femto::gf2 {

/// Dense square matrix over GF(2), stored row-major as BitVec rows.
class Matrix {
 public:
  Matrix() = default;
  explicit Matrix(std::size_t n) : n_(n), rows_(n, BitVec(n)) {}

  [[nodiscard]] static Matrix identity(std::size_t n) {
    Matrix m(n);
    for (std::size_t i = 0; i < n; ++i) m.rows_[i].set(i, true);
    return m;
  }

  /// Builds from rows given as '0'/'1' strings.
  [[nodiscard]] static Matrix from_rows(const std::vector<std::string>& rows) {
    Matrix m(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      FEMTO_EXPECTS(rows[i].size() == rows.size());
      m.rows_[i] = BitVec::from_string(rows[i]);
    }
    return m;
  }

  [[nodiscard]] std::size_t size() const { return n_; }

  [[nodiscard]] bool get(std::size_t r, std::size_t c) const {
    return rows_[r].get(c);
  }
  void set(std::size_t r, std::size_t c, bool v) { rows_[r].set(c, v); }

  [[nodiscard]] const BitVec& row(std::size_t r) const { return rows_[r]; }

  /// Row operation row[dst] ^= row[src] (an elementary GL(n,2) generator).
  /// Word-parallel via BitVec::operator^= (wordops.hpp) --
  /// this is the Gamma-move primitive the SA loop issues per candidate.
  void add_row(std::size_t src, std::size_t dst) {
    FEMTO_EXPECTS(src != dst);
    rows_[dst] ^= rows_[src];
  }

  void swap_rows(std::size_t a, std::size_t b) { std::swap(rows_[a], rows_[b]); }

  [[nodiscard]] bool operator==(const Matrix& other) const {
    return n_ == other.n_ && rows_ == other.rows_;
  }

  /// Matrix-vector product over GF(2).
  [[nodiscard]] BitVec apply(const BitVec& x) const {
    FEMTO_EXPECTS(x.size() == n_);
    BitVec y(n_);
    for (std::size_t r = 0; r < n_; ++r)
      if (rows_[r].dot(x)) y.set(r, true);
    return y;
  }

  /// Matrix product over GF(2).
  [[nodiscard]] Matrix multiply(const Matrix& rhs) const {
    FEMTO_EXPECTS(n_ == rhs.n_);
    const Matrix rt = rhs.transpose();
    Matrix out(n_);
    for (std::size_t r = 0; r < n_; ++r)
      for (std::size_t c = 0; c < n_; ++c)
        if (rows_[r].dot(rt.rows_[c])) out.set(r, c, true);
    return out;
  }

  [[nodiscard]] Matrix transpose() const {
    Matrix out(n_);
    for (std::size_t r = 0; r < n_; ++r)
      for (std::size_t c = 0; c < n_; ++c)
        if (rows_[r].get_u(c)) out.rows_[c].set_u(r, true);
    return out;
  }

  [[nodiscard]] std::size_t rank() const {
    Matrix work = *this;
    std::size_t rank = 0;
    for (std::size_t col = 0; col < n_ && rank < n_; ++col) {
      std::size_t pivot = rank;
      while (pivot < n_ && !work.get(pivot, col)) ++pivot;
      if (pivot == n_) continue;
      work.swap_rows(rank, pivot);
      for (std::size_t r = 0; r < n_; ++r)
        if (r != rank && work.get(r, col)) work.add_row(rank, r);
      ++rank;
    }
    return rank;
  }

  [[nodiscard]] bool invertible() const { return rank() == n_; }

  /// Gauss-Jordan inverse; nullopt when singular.
  [[nodiscard]] std::optional<Matrix> inverse() const {
    Matrix work = *this;
    Matrix inv = identity(n_);
    for (std::size_t col = 0; col < n_; ++col) {
      std::size_t pivot = col;
      while (pivot < n_ && !work.get(pivot, col)) ++pivot;
      if (pivot == n_) return std::nullopt;
      work.swap_rows(col, pivot);
      inv.swap_rows(col, pivot);
      for (std::size_t r = 0; r < n_; ++r) {
        if (r != col && work.get(r, col)) {
          work.add_row(col, r);
          inv.add_row(col, r);
        }
      }
    }
    return inv;
  }

  /// Uniform-ish random invertible matrix: random bits, retry until full rank.
  [[nodiscard]] static Matrix random_invertible(std::size_t n, Rng& rng) {
    FEMTO_EXPECTS(n > 0);
    // The fraction of invertible matrices over GF(2) tends to ~0.2888, so a
    // retry loop terminates quickly with overwhelming probability.
    for (;;) {
      Matrix m(n);
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c) m.set(r, c, rng.bernoulli(0.5));
      if (m.invertible()) return m;
    }
  }

  /// Random invertible upper-triangular matrix (unit diagonal), the baseline
  /// search space of [9].
  [[nodiscard]] static Matrix random_upper_triangular(std::size_t n, Rng& rng) {
    Matrix m = identity(n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = r + 1; c < n; ++c) m.set(r, c, rng.bernoulli(0.5));
    return m;
  }

  /// Permutation matrix P with P e_i = e_{perm[i]} (column i -> row perm[i]).
  [[nodiscard]] static Matrix permutation(const std::vector<std::size_t>& perm) {
    Matrix m(perm.size());
    for (std::size_t c = 0; c < perm.size(); ++c) {
      FEMTO_EXPECTS(perm[c] < perm.size());
      m.set(perm[c], c, true);
    }
    FEMTO_ENSURES(m.invertible());
    return m;
  }

  /// Assembles a block-diagonal matrix; `blocks[i]` occupies the index set
  /// `supports[i]` (strictly increasing indices). Unlisted indices get 1 on
  /// the diagonal. This realizes the reduced Gamma search space of Sec. III-C.
  [[nodiscard]] static Matrix block_diagonal(
      std::size_t n, const std::vector<std::vector<std::size_t>>& supports,
      const std::vector<Matrix>& blocks) {
    FEMTO_EXPECTS(supports.size() == blocks.size());
    Matrix m = identity(n);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      const auto& sup = supports[b];
      FEMTO_EXPECTS(sup.size() == blocks[b].size());
      for (std::size_t i : sup) {
        FEMTO_EXPECTS(i < n);
        m.set(i, i, false);  // clear the identity diagonal inside the block
      }
      for (std::size_t r = 0; r < sup.size(); ++r)
        for (std::size_t c = 0; c < sup.size(); ++c)
          m.set(sup[r], sup[c], blocks[b].get(r, c));
    }
    return m;
  }

  [[nodiscard]] std::string to_string() const {
    std::string out;
    for (std::size_t r = 0; r < n_; ++r) {
      out += rows_[r].to_string();
      out += '\n';
    }
    return out;
  }

 private:
  std::size_t n_ = 0;
  std::vector<BitVec> rows_;
};

}  // namespace femto::gf2
