#include "la/lu.hpp"

#include <algorithm>
#include <cmath>

#include "la/cmul.hpp"

namespace rsrpa::la {

template <typename T>
Lu<T>::Lu(Matrix<T> a) : lu_(std::move(a)) {
  factor_lu();
}

template <typename T>
void Lu<T>::factor(const Matrix<T>& a) {
  lu_ = a;
  factor_lu();
}

template <typename T>
void Lu<T>::factor_lu() {
  RSRPA_REQUIRE(lu_.rows() == lu_.cols());
  const std::size_t n = lu_.rows();
  piv_.resize(n);
  perm_sign_ = 1;

  double min_piv = 0.0, max_piv = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: largest magnitude entry in column k at/below k.
    std::size_t piv = k;
    double best = std::abs(lu_(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double mag = std::abs(lu_(i, k));
      if (mag > best) {
        best = mag;
        piv = i;
      }
    }
    if (best == 0.0)
      throw NumericalBreakdown("LU: exactly singular pivot at step " +
                               std::to_string(k));
    piv_[k] = piv;
    if (piv != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(piv, j));
      perm_sign_ = -perm_sign_;
    }
    min_piv = (k == 0) ? best : std::min(min_piv, best);
    max_piv = std::max(max_piv, best);

    const T inv_piv = T{1} / lu_(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const T lik = cmul(lu_(i, k), inv_piv);
      lu_(i, k) = lik;
      if (lik == T{0}) continue;
      for (std::size_t j = k + 1; j < n; ++j)
        lu_(i, j) -= cmul(lik, lu_(k, j));
    }
  }
  pivot_ratio_ = (max_piv > 0.0) ? min_piv / max_piv : 0.0;
}

template <typename T>
void Lu<T>::solve_inplace(std::span<T> b) const {
  const std::size_t n = lu_.rows();
  RSRPA_REQUIRE(b.size() == n);
  // Apply the row interchanges in factorization order.
  for (std::size_t k = 0; k < n; ++k)
    if (piv_[k] != k) std::swap(b[k], b[piv_[k]]);
  // Forward substitution with unit lower factor.
  for (std::size_t i = 1; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) b[i] -= cmul(lu_(i, j), b[j]);
  // Back substitution with upper factor.
  for (std::size_t ii = n; ii-- > 0;) {
    for (std::size_t j = ii + 1; j < n; ++j) b[ii] -= cmul(lu_(ii, j), b[j]);
    b[ii] /= lu_(ii, ii);
  }
}

template <typename T>
void Lu<T>::solve_inplace(Matrix<T>& b) const {
  RSRPA_REQUIRE(b.rows() == lu_.rows());
  for (std::size_t j = 0; j < b.cols(); ++j) solve_inplace(b.col(j));
}

template <typename T>
T Lu<T>::det() const {
  T d = static_cast<T>(perm_sign_);
  for (std::size_t i = 0; i < lu_.rows(); ++i) d = cmul(d, lu_(i, i));
  return d;
}

template class Lu<double>;
template class Lu<cplx>;

}  // namespace rsrpa::la
