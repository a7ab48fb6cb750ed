// LU factorization with partial pivoting, real and complex.
//
// Used for the small s x s solves inside block COCG (lines 8 and 12 of
// Algorithm 3) and for the dense direct baseline. The factorization
// exposes a cheap condition indicator (pivot growth ratio) that block
// COCG uses to detect near-breakdown of the conjugacy matrix mu_j.
#pragma once

#include <vector>

#include "la/matrix.hpp"

namespace rsrpa::la {

template <typename T>
class Lu {
 public:
  /// An empty factorization for factor() to fill.
  Lu() = default;

  /// Factor a (copied) square matrix. Throws NumericalBreakdown on an
  /// exactly singular pivot.
  explicit Lu(Matrix<T> a);

  /// Factor `a` into this object's storage, replacing any earlier
  /// factorization. Allocation-free once the object has held a
  /// factorization of the same size; the arithmetic is the constructor's,
  /// so the factors are bitwise equal. Throws like the constructor.
  void factor(const Matrix<T>& a);

  /// Solve A x = b in place for a single right-hand side (no allocation).
  void solve_inplace(std::span<T> b) const;

  /// Solve A X = B, overwriting B with X column by column.
  void solve_inplace(Matrix<T>& b) const;

  /// |smallest pivot| / |largest pivot| — a cheap proxy for 1/cond(A).
  [[nodiscard]] double pivot_ratio() const { return pivot_ratio_; }

  /// Determinant (product of pivots with sign of the permutation).
  [[nodiscard]] T det() const;

  [[nodiscard]] std::size_t size() const { return lu_.rows(); }

 private:
  void factor_lu();

  Matrix<T> lu_;
  // Row interchanges in LAPACK ipiv form: step k swapped rows k and
  // piv_[k].
  std::vector<std::size_t> piv_;
  int perm_sign_ = 1;
  double pivot_ratio_ = 0.0;
};

/// Convenience: X = A^{-1} B without keeping the factorization.
template <typename T>
Matrix<T> lu_solve(const Matrix<T>& a, const Matrix<T>& b) {
  Lu<T> f(a);
  Matrix<T> x = b;
  f.solve_inplace(x);
  return x;
}

extern template class Lu<double>;
extern template class Lu<cplx>;

}  // namespace rsrpa::la
