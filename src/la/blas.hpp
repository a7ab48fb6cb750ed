// Hand-rolled BLAS-1/2/3 kernels.
//
// No vendor BLAS is available in this environment, so the library carries
// its own kernels. The GEMM variants are cache-blocked and, above a
// flop-count threshold, fan column tiles out on the sched runtime
// (sched::parallel_for over disjoint output-column ranges — bitwise
// identical to the serial loop at any thread count); that is sufficient
// for the tall-and-skinny shapes dominating this code (n_d x s with
// s <= a few hundred).
//
// Complex products are plain (la/cmul.hpp): no C99 Annex G infinity
// recovery, and a NaN or Inf operand still yields a non-finite result.
//
// Transpose conventions: `t` means plain transpose WITHOUT conjugation.
// COCG's conjugate-orthogonality products (W^T W, P^T A P) need the
// unconjugated bilinear form, which is why these kernels exist separately
// from the Hermitian (`h`) forms.
#pragma once

#include <complex>
#include <span>

#include "la/matrix.hpp"

namespace rsrpa::la {

// ---------- BLAS-1 on spans ----------

/// Euclidean dot product x.y (no conjugation).
double dot(std::span<const double> x, std::span<const double> y);
/// Unconjugated bilinear product x^T y for complex vectors.
cplx dot_u(std::span<const cplx> x, std::span<const cplx> y);
/// Conjugated inner product x^H y.
cplx dot_c(std::span<const cplx> x, std::span<const cplx> y);

double nrm2(std::span<const double> x);
double nrm2(std::span<const cplx> x);

/// y += alpha * x
void axpy(double alpha, std::span<const double> x, std::span<double> y);
void axpy(cplx alpha, std::span<const cplx> x, std::span<cplx> y);

void scal(double alpha, std::span<double> x);
void scal(cplx alpha, std::span<cplx> x);

// ---------- BLAS-3 ----------

/// C = alpha * A * B + beta * C      (A: m x k, B: k x n, C: m x n)
void gemm_nn(double alpha, const Matrix<double>& a, const Matrix<double>& b,
             double beta, Matrix<double>& c);
void gemm_nn(cplx alpha, const Matrix<cplx>& a, const Matrix<cplx>& b,
             cplx beta, Matrix<cplx>& c);

/// C = alpha * A^T * B + beta * C    (A: k x m, B: k x n, C: m x n)
/// For complex T this is the UNCONJUGATED transpose.
void gemm_tn(double alpha, const Matrix<double>& a, const Matrix<double>& b,
             double beta, Matrix<double>& c);
void gemm_tn(cplx alpha, const Matrix<cplx>& a, const Matrix<cplx>& b,
             cplx beta, Matrix<cplx>& c);

/// C = alpha * A^H * B + beta * C    (conjugated transpose)
void gemm_hn(cplx alpha, const Matrix<cplx>& a, const Matrix<cplx>& b,
             cplx beta, Matrix<cplx>& c);

/// Frobenius norm.
double norm_fro(const Matrix<double>& a);
double norm_fro(const Matrix<cplx>& a);

/// Largest absolute entry.
double norm_max(const Matrix<double>& a);

}  // namespace rsrpa::la
