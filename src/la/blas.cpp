#include "la/blas.hpp"

#include <cmath>
#include <type_traits>

#include "la/cmul.hpp"
#include "sched/parallel_for.hpp"

// The AVX2 complex dot below fuses each product part exactly as cmul's
// FMA form does, so it is built only where cmul takes that form; any
// other build runs chunk_dot_scalar, which gives the same bits.
#if defined(__AVX2__) && defined(__FMA__) && RSRPA_CMUL_FMA
#define RSRPA_LA_AVX2 1
#include <immintrin.h>
#else
#define RSRPA_LA_AVX2 0
#endif

namespace rsrpa::la {

namespace {

// Cache-block sizes chosen so a (KB x NB) panel of B and the streamed
// columns of A fit comfortably in L2 for double and complex<double>.
constexpr std::size_t kNB = 64;
constexpr std::size_t kKB = 256;

// Minimum mul-adds worth one sched task. Below this the GEMM runs as a
// plain loop on the caller; above it, column ranges fan out on the global
// pool. Column-disjoint writes keep the result bitwise identical to the
// serial path at every thread count.
constexpr double kMinFlopsPerTask = 4.0e6;

std::size_t column_grain(std::size_t flops_per_col) {
  const double per_col = std::max<double>(static_cast<double>(flops_per_col), 1.0);
  const double cols = kMinFlopsPerTask / per_col;
  return cols <= 1.0 ? 1 : static_cast<std::size_t>(cols);
}

// C = beta C; beta == 0 overwrites (NaN in C does not survive).
template <typename T>
void scale_by_beta(Matrix<T>& c, T beta) {
  if (beta == T{1}) return;
  if (beta == T{0}) {
    c.zero();
    return;
  }
  T* p = c.data();
  for (std::size_t i = 0; i < c.size(); ++i) p[i] = cmul(p[i], beta);
}

template <typename T>
void gemm_nn_impl(T alpha, const Matrix<T>& a, const Matrix<T>& b, T beta,
                  Matrix<T>& c) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  RSRPA_REQUIRE(b.rows() == k && c.rows() == m && c.cols() == n);
  scale_by_beta(c, beta);
  // Column-major friendly ordering: for each (jj, kk) panel, stream down
  // columns of C and A. Tasks own disjoint column ranges (>= one kNB
  // panel), so each output column sees the same FP sequence as the
  // serial loop regardless of thread count.
  const std::size_t grain = std::max(kNB, column_grain(m * k));
  sched::parallel_for_range(0, n, grain, [&](std::size_t cb, std::size_t ce) {
    for (std::size_t jj = cb; jj < ce; jj += kNB) {
      const std::size_t jend = std::min(jj + kNB, ce);
      for (std::size_t kk = 0; kk < k; kk += kKB) {
        const std::size_t kend = std::min(kk + kKB, k);
        for (std::size_t j = jj; j < jend; ++j) {
          for (std::size_t p = kk; p < kend; ++p) {
            const T bpj = cmul(alpha, b(p, j));
            if (bpj == T{0}) continue;
            const T* acol = &a(0, p);
            T* ccol = &c(0, j);
            for (std::size_t i = 0; i < m; ++i) ccol[i] += cmul(acol[i], bpj);
          }
        }
      }
    }
  });
}

enum class Conj { No, Yes };

// x*y, or conj(x)*y for the Hermitian forms.
template <typename T, Conj kConj>
inline T dot_term(T x, T y) {
  if constexpr (kConj == Conj::Yes)
    return cmul_conj(x, y);
  else
    return cmul(x, y);
}

// Dot product of two contiguous runs with eight independent accumulator
// chains. A single-accumulator loop is FMA-latency bound (~1 flop per
// 4-cycle dependency step); eight chains keep the pipeline full. Chain t
// takes the indices p = t mod 8 below the last multiple of 8 and chain 0
// the tail; the reduction order is fixed in code, so the result is
// deterministic.
template <typename T, Conj kConj>
T chunk_dot_scalar(const T* x, const T* y, std::size_t len) {
  T s[8] = {};
  std::size_t p = 0;
  for (; p + 8 <= len; p += 8)
    for (std::size_t t = 0; t < 8; ++t)
      s[t] += dot_term<T, kConj>(x[p + t], y[p + t]);
  for (; p < len; ++p) s[0] += dot_term<T, kConj>(x[p], y[p]);
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

#if RSRPA_LA_AVX2
// The complex chunk_dot in AVX2. Each complex lane computes cmul /
// cmul_conj exactly as la/cmul.hpp writes it — one rounded product
// (ai*bi, ai*br), then one fused multiply-add/sub — and the eight chains
// are the complex lanes of the accumulator vectors (kL per vector), so
// the result is bitwise equal to chunk_dot_scalar. GCC does not
// vectorize chunk_dot_scalar's complex chains; this form runs a 256-long
// chunk about 2.5x faster.
struct Avx {
  using V = __m256d;
  static constexpr std::size_t kL = 2;  // complex lanes per vector
  static V load(const cplx* p) {
    return _mm256_loadu_pd(reinterpret_cast<const double*>(p));
  }
  static void store(cplx* p, V v) {
    _mm256_storeu_pd(reinterpret_cast<double*>(p), v);
  }
  static V zero() { return _mm256_setzero_pd(); }
  static V dup_re(V v) { return _mm256_movedup_pd(v); }
  static V dup_im(V v) { return _mm256_permute_pd(v, 0xF); }
  static V swap(V v) { return _mm256_permute_pd(v, 0x5); }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V add(V a, V b) { return _mm256_add_pd(a, b); }
  static V fmaddsub(V a, V b, V c) { return _mm256_fmaddsub_pd(a, b, c); }
  static V fmsubadd(V a, V b, V c) { return _mm256_fmsubadd_pd(a, b, c); }
};

template <Conj kConj>
cplx chunk_dot_avx(const cplx* x, const cplx* y, std::size_t len) {
  using A = Avx;
  constexpr std::size_t kV = 8 / A::kL;  // accumulator vectors
  A::V acc[kV];
  for (std::size_t v = 0; v < kV; ++v) acc[v] = A::zero();
  std::size_t p = 0;
  for (; p + 8 <= len; p += 8)
    for (std::size_t v = 0; v < kV; ++v) {
      const auto xv = A::load(x + p + v * A::kL);
      const auto yv = A::load(y + p + v * A::kL);
      // (xi*yi, xi*yr) per lane; then x*y = (xr*yr - ., xr*yi + .) and
      // conj(x)*y = (xr*yr + ., xr*yi - .).
      const auto t = A::mul(A::dup_im(xv), A::swap(yv));
      const auto prod = kConj == Conj::Yes ? A::fmsubadd(A::dup_re(xv), yv, t)
                                           : A::fmaddsub(A::dup_re(xv), yv, t);
      acc[v] = A::add(acc[v], prod);
    }
  cplx s[8];
  for (std::size_t v = 0; v < kV; ++v) A::store(s + v * A::kL, acc[v]);
  for (; p < len; ++p) s[0] += dot_term<cplx, kConj>(x[p], y[p]);
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}
#endif

template <typename T, Conj kConj>
T chunk_dot(const T* x, const T* y, std::size_t len) {
#if RSRPA_LA_AVX2
  if constexpr (std::is_same_v<T, cplx>)
    return chunk_dot_avx<kConj>(x, y, len);
  else
#endif
    return chunk_dot_scalar<T, kConj>(x, y, len);
}

template <typename T, Conj kConj>
void gemm_tn_impl(T alpha, const Matrix<T>& a, const Matrix<T>& b, T beta,
                  Matrix<T>& c) {
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  RSRPA_REQUIRE(b.rows() == k && c.rows() == m && c.cols() == n);
  // Each C(i, j) is a dot product of two contiguous columns. For large k
  // a naive dot sweep re-streams all of A from memory once per output
  // column, so accumulate over kKB-length chunks of the shared dimension
  // instead: an (kMB x kKB) panel of A stays in L2 and is reused across
  // the task's whole column range. Per output element the chunk partial
  // sums are added in ascending-p order — one fixed FP sequence — and
  // tasks own disjoint column ranges, so the result is bitwise identical
  // at every thread count.
  constexpr std::size_t kMB = 64;
  const std::size_t grain = column_grain(m * k);
  sched::parallel_for_range(0, n, grain, [&](std::size_t jb, std::size_t je) {
    for (std::size_t j = jb; j < je; ++j) {
      T* ccol = &c(0, j);
      if (beta == T{0})
        for (std::size_t i = 0; i < m; ++i) ccol[i] = T{};
      else if (beta != T{1})
        for (std::size_t i = 0; i < m; ++i) ccol[i] = cmul(ccol[i], beta);
    }
    for (std::size_t kk = 0; kk < k; kk += kKB) {
      const std::size_t klen = std::min(kKB, k - kk);
      for (std::size_t ii = 0; ii < m; ii += kMB) {
        const std::size_t iend = std::min(ii + kMB, m);
        for (std::size_t j = jb; j < je; ++j) {
          const T* bcol = &b(kk, j);
          T* ccol = &c(0, j);
          for (std::size_t i = ii; i < iend; ++i)
            ccol[i] += cmul(alpha, chunk_dot<T, kConj>(&a(kk, i), bcol, klen));
        }
      }
    }
  });
}

template <typename T>
double norm_fro_impl(const Matrix<T>& a) {
  double sum = 0.0;
  const T* p = a.data();
  for (std::size_t i = 0; i < a.size(); ++i) sum += std::norm(p[i]);
  return std::sqrt(sum);
}

}  // namespace

double dot(std::span<const double> x, std::span<const double> y) {
  RSRPA_REQUIRE(x.size() == y.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) sum += x[i] * y[i];
  return sum;
}

cplx dot_u(std::span<const cplx> x, std::span<const cplx> y) {
  RSRPA_REQUIRE(x.size() == y.size());
  cplx sum{};
  for (std::size_t i = 0; i < x.size(); ++i) sum += cmul(x[i], y[i]);
  return sum;
}

cplx dot_c(std::span<const cplx> x, std::span<const cplx> y) {
  RSRPA_REQUIRE(x.size() == y.size());
  cplx sum{};
  for (std::size_t i = 0; i < x.size(); ++i) sum += cmul_conj(x[i], y[i]);
  return sum;
}

double nrm2(std::span<const double> x) {
  double sum = 0.0;
  for (double v : x) sum += v * v;
  return std::sqrt(sum);
}

double nrm2(std::span<const cplx> x) {
  double sum = 0.0;
  for (const cplx& v : x) sum += std::norm(v);
  return std::sqrt(sum);
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  RSRPA_REQUIRE(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void axpy(cplx alpha, std::span<const cplx> x, std::span<cplx> y) {
  RSRPA_REQUIRE(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += cmul(alpha, x[i]);
}

void scal(double alpha, std::span<double> x) {
  for (double& v : x) v *= alpha;
}

void scal(cplx alpha, std::span<cplx> x) {
  for (cplx& v : x) v = cmul(v, alpha);
}

void gemm_nn(double alpha, const Matrix<double>& a, const Matrix<double>& b,
             double beta, Matrix<double>& c) {
  gemm_nn_impl(alpha, a, b, beta, c);
}

void gemm_nn(cplx alpha, const Matrix<cplx>& a, const Matrix<cplx>& b,
             cplx beta, Matrix<cplx>& c) {
  gemm_nn_impl(alpha, a, b, beta, c);
}

void gemm_tn(double alpha, const Matrix<double>& a, const Matrix<double>& b,
             double beta, Matrix<double>& c) {
  gemm_tn_impl<double, Conj::No>(alpha, a, b, beta, c);
}

void gemm_tn(cplx alpha, const Matrix<cplx>& a, const Matrix<cplx>& b,
             cplx beta, Matrix<cplx>& c) {
  gemm_tn_impl<cplx, Conj::No>(alpha, a, b, beta, c);
}

void gemm_hn(cplx alpha, const Matrix<cplx>& a, const Matrix<cplx>& b,
             cplx beta, Matrix<cplx>& c) {
  gemm_tn_impl<cplx, Conj::Yes>(alpha, a, b, beta, c);
}

double norm_fro(const Matrix<double>& a) { return norm_fro_impl(a); }
double norm_fro(const Matrix<cplx>& a) { return norm_fro_impl(a); }

double norm_max(const Matrix<double>& a) {
  double mx = 0.0;
  const double* p = a.data();
  for (std::size_t i = 0; i < a.size(); ++i) mx = std::max(mx, std::abs(p[i]));
  return mx;
}

}  // namespace rsrpa::la
