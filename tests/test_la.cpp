// Unit and property tests for the dense linear algebra substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/cmul.hpp"
#include "la/eig.hpp"
#include "la/lu.hpp"
#include "la/matrix.hpp"
#include "la/qr.hpp"
#include "sched/thread_pool.hpp"

namespace rsrpa::la {
namespace {

Matrix<double> random_matrix(std::size_t m, std::size_t n, Rng& rng) {
  Matrix<double> a(m, n);
  for (std::size_t j = 0; j < n; ++j) rng.fill_uniform(a.col(j));
  return a;
}

Matrix<cplx> random_cmatrix(std::size_t m, std::size_t n, Rng& rng) {
  Matrix<cplx> a(m, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < m; ++i)
      a(i, j) = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return a;
}

Matrix<double> random_spd(std::size_t n, Rng& rng) {
  Matrix<double> b = random_matrix(n, n, rng);
  Matrix<double> spd(n, n);
  gemm_tn(1.0, b, b, 0.0, spd);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  return spd;
}

Matrix<double> random_symmetric(std::size_t n, Rng& rng) {
  Matrix<double> a = random_matrix(n, n, rng);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < j; ++i) a(i, j) = a(j, i);
  return a;
}

TEST(Matrix, BasicAccessAndColumnViews) {
  Matrix<double> a(3, 2);
  a(0, 0) = 1.0;
  a(2, 1) = 5.0;
  EXPECT_EQ(a.rows(), 3u);
  EXPECT_EQ(a.cols(), 2u);
  auto c1 = a.col(1);
  EXPECT_DOUBLE_EQ(c1[2], 5.0);
  c1[0] = 7.0;
  EXPECT_DOUBLE_EQ(a(0, 1), 7.0);
}

TEST(Matrix, SliceAndSetColsRoundTrip) {
  Rng rng(11);
  Matrix<double> a = random_matrix(5, 6, rng);
  Matrix<double> s = a.slice_cols(2, 3);
  Matrix<double> b(5, 6);
  b.set_cols(2, s);
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t i = 0; i < 5; ++i)
      EXPECT_DOUBLE_EQ(b(i, 2 + j), a(i, 2 + j));
}

TEST(Matrix, TransposeIdentityAndInvolution) {
  Rng rng(5);
  Matrix<double> a = random_matrix(4, 7, rng);
  Matrix<double> att = a.transposed().transposed();
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i)
      EXPECT_DOUBLE_EQ(att(i, j), a(i, j));
}

TEST(Blas1, DotAxpyNrm2) {
  std::vector<double> x = {1, 2, 3}, y = {4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(x, y), 32.0);
  EXPECT_DOUBLE_EQ(nrm2(std::span<const double>(x)), std::sqrt(14.0));
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
}

TEST(Blas1, ComplexDotConventions) {
  std::vector<cplx> x = {{1, 1}, {0, 2}}, y = {{2, 0}, {1, -1}};
  // Unconjugated: (1+i)*2 + 2i*(1-i) = 2+2i + 2i+2 = 4+4i
  const cplx u = dot_u(x, y);
  EXPECT_DOUBLE_EQ(u.real(), 4.0);
  EXPECT_DOUBLE_EQ(u.imag(), 4.0);
  // Conjugated: conj(1+i)*2 + conj(2i)*(1-i) = 2-2i + (-2i)(1-i) = 2-2i -2i-2
  const cplx c = dot_c(x, y);
  EXPECT_DOUBLE_EQ(c.real(), 0.0);
  EXPECT_DOUBLE_EQ(c.imag(), -4.0);
}

TEST(Gemm, MatchesNaiveReference) {
  Rng rng(1);
  const std::size_t m = 17, k = 9, n = 13;
  Matrix<double> a = random_matrix(m, k, rng);
  Matrix<double> b = random_matrix(k, n, rng);
  Matrix<double> c(m, n);
  gemm_nn(1.0, a, b, 0.0, c);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < m; ++i) {
      double ref = 0.0;
      for (std::size_t p = 0; p < k; ++p) ref += a(i, p) * b(p, j);
      EXPECT_NEAR(c(i, j), ref, 1e-12);
    }
}

TEST(Gemm, AlphaBetaScaling) {
  Rng rng(2);
  Matrix<double> a = random_matrix(6, 4, rng);
  Matrix<double> b = random_matrix(4, 5, rng);
  Matrix<double> c0 = random_matrix(6, 5, rng);
  Matrix<double> c = c0;
  gemm_nn(2.0, a, b, 3.0, c);
  Matrix<double> ab(6, 5);
  gemm_nn(1.0, a, b, 0.0, ab);
  for (std::size_t j = 0; j < 5; ++j)
    for (std::size_t i = 0; i < 6; ++i)
      EXPECT_NEAR(c(i, j), 2.0 * ab(i, j) + 3.0 * c0(i, j), 1e-12);
}

TEST(Gemm, TransposeVariantAgainstExplicitTranspose) {
  Rng rng(3);
  Matrix<double> a = random_matrix(20, 6, rng);
  Matrix<double> b = random_matrix(20, 7, rng);
  Matrix<double> c(6, 7), ref(6, 7);
  gemm_tn(1.0, a, b, 0.0, c);
  Matrix<double> at = a.transposed();
  gemm_nn(1.0, at, b, 0.0, ref);
  for (std::size_t j = 0; j < 7; ++j)
    for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(c(i, j), ref(i, j), 1e-12);
}

TEST(Gemm, ComplexUnconjugatedVsConjugated) {
  Rng rng(4);
  Matrix<cplx> a = random_cmatrix(10, 3, rng);
  Matrix<cplx> b = random_cmatrix(10, 4, rng);
  Matrix<cplx> t(3, 4), h(3, 4);
  gemm_tn(cplx{1, 0}, a, b, cplx{0, 0}, t);
  gemm_hn(cplx{1, 0}, a, b, cplx{0, 0}, h);
  for (std::size_t j = 0; j < 4; ++j)
    for (std::size_t i = 0; i < 3; ++i) {
      cplx rt{}, rh{};
      for (std::size_t p = 0; p < 10; ++p) {
        rt += a(p, i) * b(p, j);
        rh += std::conj(a(p, i)) * b(p, j);
      }
      EXPECT_NEAR(std::abs(t(i, j) - rt), 0.0, 1e-12);
      EXPECT_NEAR(std::abs(h(i, j) - rh), 0.0, 1e-12);
    }
}

TEST(Lu, SolvesRandomRealSystem) {
  Rng rng(6);
  const std::size_t n = 30;
  Matrix<double> a = random_matrix(n, n, rng);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 5.0;
  Matrix<double> x_true = random_matrix(n, 3, rng);
  Matrix<double> b(n, 3);
  gemm_nn(1.0, a, x_true, 0.0, b);
  Lu<double> f(a);
  f.solve_inplace(b);
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(b(i, j), x_true(i, j), 1e-9);
}

TEST(Lu, SolvesComplexSymmetricSystem) {
  Rng rng(7);
  const std::size_t n = 20;
  // Complex symmetric (A = A^T, not Hermitian), as in the Sternheimer ops.
  Matrix<cplx> a(n, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i <= j; ++i) {
      const cplx v{rng.uniform(-1, 1), rng.uniform(-1, 1)};
      a(i, j) = v;
      a(j, i) = v;
    }
  for (std::size_t i = 0; i < n; ++i) a(i, i) += cplx{4.0, 2.0};
  Matrix<cplx> x_true = random_cmatrix(n, 2, rng);
  Matrix<cplx> b(n, 2);
  gemm_nn(cplx{1, 0}, a, x_true, cplx{0, 0}, b);
  Lu<cplx> f(a);
  f.solve_inplace(b);
  for (std::size_t j = 0; j < 2; ++j)
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(std::abs(b(i, j) - x_true(i, j)), 0.0, 1e-9);
}

TEST(Lu, SingularMatrixThrowsBreakdown) {
  Matrix<double> a(3, 3);
  a(0, 0) = 1.0;
  a(1, 1) = 1.0;  // third row/col all zero
  EXPECT_THROW(Lu<double>{a}, NumericalBreakdown);
}

TEST(Lu, DetOfKnownMatrix) {
  Matrix<double> a(2, 2);
  a(0, 0) = 3;
  a(0, 1) = 1;
  a(1, 0) = 2;
  a(1, 1) = 4;
  Lu<double> f(a);
  EXPECT_NEAR(f.det(), 10.0, 1e-12);
}

TEST(Lu, PivotRatioDetectsIllConditioning) {
  Rng rng(8);
  Matrix<double> well = random_spd(10, rng);
  Matrix<double> ill = well;
  for (std::size_t j = 0; j < 10; ++j) ill(9, j) = well(8, j) * (1 + 1e-13);
  Lu<double> fw(well), fi(ill);
  EXPECT_GT(fw.pivot_ratio(), 1e-6);
  EXPECT_LT(fi.pivot_ratio(), 1e-8);
}

TEST(Cholesky, FactorsAndSolves) {
  Rng rng(9);
  const std::size_t n = 25;
  Matrix<double> a = random_spd(n, rng);
  Matrix<double> x_true = random_matrix(n, 2, rng);
  Matrix<double> b(n, 2);
  gemm_nn(1.0, a, x_true, 0.0, b);
  Cholesky chol(a);
  chol.solve_inplace(b);
  for (std::size_t j = 0; j < 2; ++j)
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(b(i, j), x_true(i, j), 1e-9);
}

TEST(Cholesky, FactorReconstructsMatrix) {
  Rng rng(10);
  const std::size_t n = 12;
  Matrix<double> a = random_spd(n, rng);
  Cholesky chol(a);
  const Matrix<double>& l = chol.l();
  Matrix<double> lt = l.transposed();
  Matrix<double> rec(n, n);
  gemm_nn(1.0, l, lt, 0.0, rec);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(rec(i, j), a(i, j), 1e-9);
}

TEST(Cholesky, IndefiniteThrows) {
  Matrix<double> a = Matrix<double>::identity(3);
  a(2, 2) = -1.0;
  EXPECT_THROW(Cholesky{a}, NumericalBreakdown);
}

TEST(Cholesky, RightBackwardSolve) {
  Rng rng(12);
  const std::size_t n = 8;
  Matrix<double> b = random_spd(n, rng);
  Cholesky chol(b);
  Matrix<double> c = random_matrix(5, n, rng);
  Matrix<double> orig = c;
  chol.right_backward_t_inplace(c);
  // Verify C_new * L^T == C_orig.
  Matrix<double> lt = chol.l().transposed();
  Matrix<double> rec(5, n);
  gemm_nn(1.0, c, lt, 0.0, rec);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < 5; ++i)
      EXPECT_NEAR(rec(i, j), orig(i, j), 1e-10);
}

TEST(SymEig, DiagonalMatrix) {
  Matrix<double> a(4, 4);
  a(0, 0) = 3.0;
  a(1, 1) = -1.0;
  a(2, 2) = 7.0;
  a(3, 3) = 0.5;
  EigResult r = sym_eig(a);
  ASSERT_EQ(r.values.size(), 4u);
  EXPECT_NEAR(r.values[0], -1.0, 1e-12);
  EXPECT_NEAR(r.values[1], 0.5, 1e-12);
  EXPECT_NEAR(r.values[2], 3.0, 1e-12);
  EXPECT_NEAR(r.values[3], 7.0, 1e-12);
}

TEST(SymEig, ResidualAndOrthogonality) {
  Rng rng(13);
  const std::size_t n = 40;
  Matrix<double> a = random_symmetric(n, rng);
  EigResult r = sym_eig(a);
  // A V = V D
  Matrix<double> av(n, n);
  gemm_nn(1.0, a, r.vectors, 0.0, av);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(av(i, j), r.values[j] * r.vectors(i, j), 1e-8);
  // V^T V = I
  Matrix<double> vtv(n, n);
  gemm_tn(1.0, r.vectors, r.vectors, 0.0, vtv);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(vtv(i, j), i == j ? 1.0 : 0.0, 1e-9);
}

TEST(SymEig, TracePreserved) {
  Rng rng(14);
  const std::size_t n = 30;
  Matrix<double> a = random_symmetric(n, rng);
  double tr = 0.0;
  for (std::size_t i = 0; i < n; ++i) tr += a(i, i);
  EigResult r = sym_eig(a);
  double sum = 0.0;
  for (double v : r.values) sum += v;
  EXPECT_NEAR(sum, tr, 1e-9);
}

TEST(SymEig, ValuesOnlyAgreesWithFull) {
  Rng rng(15);
  Matrix<double> a = random_symmetric(25, rng);
  EigResult full = sym_eig(a);
  std::vector<double> vals = sym_eigvals(a);
  ASSERT_EQ(vals.size(), full.values.size());
  for (std::size_t i = 0; i < vals.size(); ++i)
    EXPECT_NEAR(vals[i], full.values[i], 1e-9);
}

TEST(SymEigGen, ReducesToStandardWhenBIsIdentity) {
  Rng rng(16);
  const std::size_t n = 15;
  Matrix<double> a = random_symmetric(n, rng);
  EigResult std_r = sym_eig(a);
  EigResult gen_r = sym_eig_gen(a, Matrix<double>::identity(n));
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(gen_r.values[i], std_r.values[i], 1e-9);
}

TEST(SymEigGen, SatisfiesGeneralizedResidual) {
  Rng rng(17);
  const std::size_t n = 20;
  Matrix<double> a = random_symmetric(n, rng);
  Matrix<double> b = random_spd(n, rng);
  EigResult r = sym_eig_gen(a, b);
  Matrix<double> av(n, n), bv(n, n);
  gemm_nn(1.0, a, r.vectors, 0.0, av);
  gemm_nn(1.0, b, r.vectors, 0.0, bv);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(av(i, j), r.values[j] * bv(i, j), 1e-7);
  // B-orthonormality: V^T B V = I.
  Matrix<double> vtbv(n, n);
  gemm_tn(1.0, r.vectors, bv, 0.0, vtbv);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(vtbv(i, j), i == j ? 1.0 : 0.0, 1e-8);
}

TEST(TridiagEig, KnownLaplacianSpectrum) {
  // 1D Dirichlet Laplacian tridiag(-1, 2, -1): eigenvalues
  // 2 - 2 cos(k pi / (n+1)).
  const std::size_t n = 16;
  std::vector<double> d(n, 2.0), e(n - 1, -1.0);
  std::vector<double> vals = tridiag_eigvals(d, e);
  for (std::size_t k = 1; k <= n; ++k) {
    const double expected = 2.0 - 2.0 * std::cos(M_PI * k / (n + 1));
    EXPECT_NEAR(vals[k - 1], expected, 1e-10);
  }
}

TEST(TridiagEig, VectorsSatisfyResidual) {
  const std::size_t n = 10;
  std::vector<double> d(n), e(n - 1);
  Rng rng(18);
  for (auto& v : d) v = rng.uniform(-1, 1);
  for (auto& v : e) v = rng.uniform(-1, 1);
  EigResult r = tridiag_eig(d, e);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      double av = d[i] * r.vectors(i, j);
      if (i > 0) av += e[i - 1] * r.vectors(i - 1, j);
      if (i + 1 < n) av += e[i] * r.vectors(i + 1, j);
      EXPECT_NEAR(av, r.values[j] * r.vectors(i, j), 1e-9);
    }
  }
}

TEST(Qr, CholeskyQrOrthonormalizes) {
  Rng rng(19);
  Matrix<double> v = random_matrix(50, 8, rng);
  Matrix<double> orig = v;
  cholesky_qr(v);
  Matrix<double> g(8, 8);
  gemm_tn(1.0, v, v, 0.0, g);
  for (std::size_t j = 0; j < 8; ++j)
    for (std::size_t i = 0; i < 8; ++i)
      EXPECT_NEAR(g(i, j), i == j ? 1.0 : 0.0, 1e-10);
  // Range is preserved: orig = v * (v^T orig).
  Matrix<double> coef(8, 8), rec(50, 8);
  gemm_tn(1.0, v, orig, 0.0, coef);
  gemm_nn(1.0, v, coef, 0.0, rec);
  for (std::size_t j = 0; j < 8; ++j)
    for (std::size_t i = 0; i < 50; ++i)
      EXPECT_NEAR(rec(i, j), orig(i, j), 1e-9);
}

TEST(Qr, HouseholderHandlesNearDependentColumns) {
  Rng rng(20);
  Matrix<double> v = random_matrix(40, 4, rng);
  // Make column 3 nearly equal to column 0.
  for (std::size_t i = 0; i < 40; ++i) v(i, 3) = v(i, 0) + 1e-12 * v(i, 1);
  householder_qr(v);
  Matrix<double> g(4, 4);
  gemm_tn(1.0, v, v, 0.0, g);
  for (std::size_t j = 0; j < 4; ++j)
    for (std::size_t i = 0; i < 4; ++i)
      EXPECT_NEAR(g(i, j), i == j ? 1.0 : 0.0, 1e-8);
}

TEST(Qr, OrthonormalizeFallsBackGracefully) {
  Rng rng(21);
  Matrix<double> v = random_matrix(30, 3, rng);
  for (std::size_t i = 0; i < 30; ++i) v(i, 2) = 2.0 * v(i, 0);  // exact dup
  orthonormalize(v);
  Matrix<double> g(3, 3);
  gemm_tn(1.0, v, v, 0.0, g);
  EXPECT_NEAR(g(0, 0), 1.0, 1e-8);
  EXPECT_NEAR(g(1, 1), 1.0, 1e-8);
}

// Reconstruction residual max_ij |A[:, pivots] - Q R| of a pivoted QR.
double qrcp_residual(const Matrix<double>& a, const PivotedQrResult& qr) {
  Matrix<double> rec(a.rows(), qr.r.cols());
  gemm_nn(1.0, qr.q, qr.r, 0.0, rec);
  double err = 0.0;
  for (std::size_t j = 0; j < rec.cols(); ++j)
    for (std::size_t i = 0; i < rec.rows(); ++i)
      err = std::max(err, std::abs(rec(i, j) - a(i, qr.pivots[j])));
  return err;
}

TEST(PivotedQr, RevealsLowRank) {
  Rng rng(31);
  // A = U V^T has exact rank 5; the QRCP must stop there.
  Matrix<double> u = random_matrix(40, 5, rng);
  Matrix<double> v = random_matrix(30, 5, rng);
  Matrix<double> vt = v.transposed();
  Matrix<double> a(40, 30);
  gemm_nn(1.0, u, vt, 0.0, a);

  PivotedQrResult qr = pivoted_qr(a, 0, 1e-10);
  EXPECT_EQ(qr.rank, 5u);
  for (std::size_t i = 1; i < qr.rank; ++i)
    EXPECT_LE(std::abs(qr.r(i, i)), std::abs(qr.r(i - 1, i - 1)) + 1e-14);
  EXPECT_LT(qrcp_residual(a, qr), 1e-9);
}

TEST(PivotedQr, TracksGradedSingularValues) {
  Rng rng(32);
  const std::size_t n = 24;
  // A = Q1 diag(2^-k) Q2^T: |R(k,k)| must fall with the graded spectrum.
  Matrix<double> q1 = random_matrix(n, n, rng);
  Matrix<double> q2 = random_matrix(n, n, rng);
  householder_qr(q1);
  householder_qr(q2);
  Matrix<double> q2t = q2.transposed();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) q2t(i, j) *= std::pow(2.0, -double(i));
  Matrix<double> a(n, n);
  gemm_nn(1.0, q1, q2t, 0.0, a);

  PivotedQrResult qr = pivoted_qr(a);
  ASSERT_EQ(qr.rank, n);
  for (std::size_t i = 1; i < n; ++i)
    EXPECT_LE(std::abs(qr.r(i, i)), std::abs(qr.r(i - 1, i - 1)) + 1e-14);
  // Greedy QRCP tracks a graded spectrum to within a modest factor
  // (Businger-Golub bound is exponential; in practice it is tight here).
  for (std::size_t i = 0; i < n; ++i) {
    const double sigma = std::pow(2.0, -double(i));
    EXPECT_GT(std::abs(qr.r(i, i)), 0.01 * sigma);
    EXPECT_LT(std::abs(qr.r(i, i)), 100.0 * sigma);
  }
  // A rel_tol cut selects the numerical rank at that threshold.
  PivotedQrResult cut = pivoted_qr(a, 0, std::pow(2.0, -10.5));
  EXPECT_GE(cut.rank, 8u);
  EXPECT_LE(cut.rank, 14u);
}

TEST(PivotedQr, BitwiseDeterministicAcrossThreadCounts) {
  Rng rng(33);
  Matrix<double> a = random_matrix(60, 90, rng);

  sched::set_global_threads(1);
  PivotedQrResult serial = pivoted_qr(a, 40, 1e-12);
  sched::set_global_threads(4);
  PivotedQrResult threaded = pivoted_qr(a, 40, 1e-12);
  sched::set_global_threads(0);

  ASSERT_EQ(serial.rank, threaded.rank);
  ASSERT_EQ(serial.pivots, threaded.pivots);
  for (std::size_t j = 0; j < serial.r.cols(); ++j)
    for (std::size_t i = 0; i < serial.r.rows(); ++i)
      EXPECT_EQ(serial.r(i, j), threaded.r(i, j));
  for (std::size_t j = 0; j < serial.q.cols(); ++j)
    for (std::size_t i = 0; i < serial.q.rows(); ++i)
      EXPECT_EQ(serial.q(i, j), threaded.q(i, j));
}

TEST(PivotedQr, FullRankAgreesWithUnpivotedQr) {
  Rng rng(34);
  Matrix<double> a = random_matrix(35, 12, rng);
  for (std::size_t i = 0; i < 12; ++i) a(i, i) += 2.0;  // well-conditioned

  PivotedQrResult qr = pivoted_qr(a);
  EXPECT_EQ(qr.rank, 12u);
  EXPECT_LT(qrcp_residual(a, qr), 1e-10);

  // Q^T Q = I.
  Matrix<double> g(12, 12);
  gemm_tn(1.0, qr.q, qr.q, 0.0, g);
  for (std::size_t j = 0; j < 12; ++j)
    for (std::size_t i = 0; i < 12; ++i)
      EXPECT_NEAR(g(i, j), i == j ? 1.0 : 0.0, 1e-10);

  // Same column space as the unpivoted Householder Q: the cross-Gram
  // Q_piv^T Q_house must be orthogonal (projectors coincide).
  Matrix<double> qh = a;
  householder_qr(qh);
  Matrix<double> x(12, 12), xtx(12, 12);
  gemm_tn(1.0, qr.q, qh, 0.0, x);
  gemm_tn(1.0, x, x, 0.0, xtx);
  for (std::size_t j = 0; j < 12; ++j)
    for (std::size_t i = 0; i < 12; ++i)
      EXPECT_NEAR(xtx(i, j), i == j ? 1.0 : 0.0, 1e-9);
}

TEST(NormFro, MatchesDefinition) {
  Matrix<double> a(2, 2);
  a(0, 0) = 3.0;
  a(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(norm_fro(a), 5.0);
  EXPECT_DOUBLE_EQ(norm_max(a), 4.0);
}

// ---------------------------------------------------------------------------
// Complex kernels, bitwise against naive loops that run each output
// element's floating-point sequence one element at a time. la::cmul pins
// each product's rounding, so a scalar loop and the kernels' vectorized
// loops must agree to the bit.

template <typename T>
Matrix<T> random_block(std::size_t m, std::size_t n, Rng& rng) {
  using R = typename T::value_type;
  Matrix<T> a(m, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < m; ++i)
      a(i, j) = {static_cast<R>(rng.uniform(-1, 1)),
                 static_cast<R>(rng.uniform(-1, 1))};
  return a;
}

template <typename T>
bool bitwise_equal(const Matrix<T>& x, const Matrix<T>& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0;
}

template <typename T>
void scale_by_beta(Matrix<T>& c, T beta) {
  for (std::size_t i = 0; i < c.size(); ++i)
    c.data()[i] = beta == T{0}   ? T{}
                  : beta == T{1} ? c.data()[i]
                                 : cmul(c.data()[i], beta);
}

// C = beta C + alpha A B: the beta scaling, then per element
// += a(i, p) * (alpha b(p, j)) in ascending p, skipping zero alpha b(p, j).
template <typename T>
Matrix<T> naive_gemm_nn(T alpha, const Matrix<T>& a, const Matrix<T>& b,
                        T beta, Matrix<T> c) {
  scale_by_beta(c, beta);
  for (std::size_t j = 0; j < c.cols(); ++j)
    for (std::size_t i = 0; i < c.rows(); ++i)
      for (std::size_t p = 0; p < a.cols(); ++p) {
        const T bpj = cmul(alpha, b(p, j));
        if (bpj == T{0}) continue;
        c(i, j) += cmul(a(i, p), bpj);
      }
  return c;
}

// C = beta C + alpha A^T B (or A^H B): the beta scaling pass, then per
// element one term per 256-long chunk of the shared dimension, added in
// chunk order. A chunk's dot runs eight chains (chain t takes the
// indices = t mod 8 below the last multiple of 8, chain 0 the tail) and
// reduces them as ((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7)).
template <typename T, bool kConj>
Matrix<T> naive_gemm_tn(T alpha, const Matrix<T>& a, const Matrix<T>& b,
                        T beta, Matrix<T> c) {
  constexpr std::size_t kChunk = 256;
  const std::size_t k = a.rows();
  scale_by_beta(c, beta);
  for (std::size_t j = 0; j < c.cols(); ++j)
    for (std::size_t i = 0; i < c.rows(); ++i) {
      for (std::size_t kk = 0; kk < k; kk += kChunk) {
        const std::size_t len = std::min(kChunk, k - kk);
        const std::size_t body = len - len % 8;
        T chain[8] = {};
        for (std::size_t q = 0; q < len; ++q) {
          const T x = a(kk + q, i), y = b(kk + q, j);
          chain[q < body ? q % 8 : 0] += kConj ? cmul_conj(x, y) : cmul(x, y);
        }
        const T dot = ((chain[0] + chain[1]) + (chain[2] + chain[3])) +
                      ((chain[4] + chain[5]) + (chain[6] + chain[7]));
        c(i, j) += cmul(alpha, dot);
      }
    }
  return c;
}

template <typename T>
double naive_norm_fro(const Matrix<T>& a) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += std::norm(a.data()[i]);
  return std::sqrt(sum);
}

// The block Krylov shapes: n-row blocks of s columns, s x s coefficients.
template <typename T>
void check_complex_kernels_bitwise() {
  using R = typename T::value_type;
  const T alpha{R(0.75), R(-0.3)};
  const T betas[] = {T{0}, T{1}, T{R(-0.4), R(0.9)}};
  for (std::size_t n : {343u, 1000u}) {
    for (std::size_t s : {1u, 2u, 3u, 4u, 8u, 16u}) {
      Rng rng(1000 * n + s);
      const Matrix<T> p = random_block<T>(n, s, rng);
      const Matrix<T> w = random_block<T>(n, s, rng);
      Matrix<T> coef = random_block<T>(s, s, rng);
      coef(s / 2, s - 1) = T{};  // exercises the zero-product skip
      const Matrix<T> c_nn = random_block<T>(n, s, rng);
      const Matrix<T> c_tn = random_block<T>(s, s, rng);
      for (const T beta : betas) {
        SCOPED_TRACE("n=" + std::to_string(n) + " s=" + std::to_string(s) +
                     " beta=(" + std::to_string(beta.real()) + "," +
                     std::to_string(beta.imag()) + ")");
        const Matrix<T> ref_nn = naive_gemm_nn(alpha, p, coef, beta, c_nn);
        const Matrix<T> ref_tn =
            naive_gemm_tn<T, false>(alpha, p, w, beta, c_tn);
        Matrix<T> c = c_nn;
        gemm_nn(alpha, p, coef, beta, c);
        EXPECT_TRUE(bitwise_equal(c, ref_nn));
        c = c_tn;
        gemm_tn(alpha, p, w, beta, c);
        EXPECT_TRUE(bitwise_equal(c, ref_tn));
        if constexpr (std::is_same_v<T, cplx>) {
          const Matrix<T> ref_hn =
              naive_gemm_tn<T, true>(alpha, p, w, beta, c_tn);
          c = c_tn;
          gemm_hn(alpha, p, w, beta, c);
          EXPECT_TRUE(bitwise_equal(c, ref_hn));
        }
      }
      const double nf = norm_fro(p), nf_ref = naive_norm_fro(p);
      EXPECT_EQ(std::memcmp(&nf, &nf_ref, sizeof nf), 0);
    }
  }
}

TEST(ComplexKernels, DoubleMatchNaiveLoopsBitwise) {
  check_complex_kernels_bitwise<cplx>();
}

TEST(ComplexKernels, PlainProductsKeepNonFiniteOperandsNonFinite) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto finite = [](cplx z) {
    return std::isfinite(z.real()) && std::isfinite(z.imag());
  };
  const cplx operands[] = {{0.0, 0.0}, {1.5, -2.0}, {0.0, 3.0}, {-1e300, 0.0}};
  for (const cplx bad : {cplx{nan, 0.0}, cplx{0.0, nan}, cplx{inf, 0.0},
                         cplx{-inf, 1.0}, cplx{2.0, -inf}}) {
    for (const cplx x : operands) {
      EXPECT_FALSE(finite(cmul(bad, x)));
      EXPECT_FALSE(finite(cmul(x, bad)));
      EXPECT_FALSE(finite(cmul_conj(bad, x)));
      EXPECT_FALSE(finite(cmul_conj(x, bad)));
    }
  }
  // Finite operands: the textbook product.
  const cplx x{1.5, -2.0}, y{-0.25, 4.0};
  EXPECT_EQ(cmul(x, y),
            (cplx{1.5 * -0.25 - -2.0 * 4.0, 1.5 * 4.0 + -2.0 * -0.25}));
  EXPECT_EQ(cmul_conj(x, y), std::conj(x) * y);
}

// The pre-workspace LU solve: an explicit permutation vector and a
// temporary right-hand side, the factors from a freshly constructed Lu.
template <typename T>
std::vector<T> reference_lu_solve(const Matrix<T>& a, std::vector<T> b) {
  const std::size_t n = a.rows();
  Matrix<T> lu = a;
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t piv = k;
    double best = std::abs(lu(k, k));
    for (std::size_t i = k + 1; i < n; ++i)
      if (std::abs(lu(i, k)) > best) {
        best = std::abs(lu(i, k));
        piv = i;
      }
    if (piv != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(lu(k, j), lu(piv, j));
      std::swap(perm[k], perm[piv]);
    }
    const T inv_piv = T{1} / lu(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const T lik = cmul(lu(i, k), inv_piv);
      lu(i, k) = lik;
      if (lik == T{0}) continue;
      for (std::size_t j = k + 1; j < n; ++j) lu(i, j) -= cmul(lik, lu(k, j));
    }
  }
  std::vector<T> y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = b[perm[i]];
  for (std::size_t i = 1; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) y[i] -= cmul(lu(i, j), y[j]);
  for (std::size_t ii = n; ii-- > 0;) {
    for (std::size_t j = ii + 1; j < n; ++j) y[ii] -= cmul(lu(ii, j), y[j]);
    y[ii] /= lu(ii, ii);
  }
  return y;
}

template <typename T>
void check_lu_refactor_bitwise() {
  for (std::size_t s : {1u, 2u, 3u, 8u, 16u}) {
    SCOPED_TRACE("s=" + std::to_string(s));
    Rng rng(500 + s);
    const Matrix<T> other = random_block<T>(s, s, rng);
    const Matrix<T> a = random_block<T>(s, s, rng);
    const Matrix<T> b = random_block<T>(s, s, rng);

    Lu<T> fresh(a);
    Lu<T> reused;
    reused.factor(other);  // storage already sized by another matrix
    reused.factor(a);
    EXPECT_EQ(fresh.pivot_ratio(), reused.pivot_ratio());
    EXPECT_EQ(fresh.det(), reused.det());

    Matrix<T> x_fresh = b, x_reused = b;
    fresh.solve_inplace(x_fresh);
    reused.solve_inplace(x_reused);
    EXPECT_TRUE(bitwise_equal(x_fresh, x_reused));
    for (std::size_t j = 0; j < s; ++j) {
      const std::vector<T> ref = reference_lu_solve(
          a, std::vector<T>(b.col(j).begin(), b.col(j).end()));
      EXPECT_EQ(std::memcmp(ref.data(), x_reused.col(j).data(),
                            s * sizeof(T)),
                0)
          << "column " << j;
    }
  }
}

TEST(Lu, RefactorIntoUsedStorageMatchesTheOldPathBitwise) {
  check_lu_refactor_bitwise<cplx>();
}

// Property-style sweep: LU and Cholesky solve quality across sizes.
class FactorSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FactorSweep, LuResidualSmall) {
  const std::size_t n = GetParam();
  Rng rng(100 + n);
  Matrix<double> a = random_matrix(n, n, rng);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 3.0;
  std::vector<double> x(n), b(n, 0.0);
  rng.fill_uniform(x);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) b[i] += a(i, j) * x[j];
  Lu<double> f(a);
  f.solve_inplace(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(b[i], x[i], 1e-8);
}

TEST_P(FactorSweep, EigReconstructsMatrix) {
  const std::size_t n = GetParam();
  Rng rng(200 + n);
  Matrix<double> a = random_symmetric(n, rng);
  EigResult r = sym_eig(a);
  // A = V D V^T
  Matrix<double> vd = r.vectors;
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) vd(i, j) *= r.values[j];
  Matrix<double> vt = r.vectors.transposed();
  Matrix<double> rec(n, n);
  gemm_nn(1.0, vd, vt, 0.0, rec);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(rec(i, j), a(i, j), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FactorSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 33, 64));

}  // namespace
}  // namespace rsrpa::la
