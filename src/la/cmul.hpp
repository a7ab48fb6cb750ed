// Plain complex products for the compute kernels.
//
// `std::complex` multiplication follows C99 Annex G: GCC emits the
// four-multiply product inline and, when both parts of the result come
// out NaN, calls libgcc's __muldc3/__mulsc3 to recover an infinity. That
// call keeps every loop it sits in scalar. The kernels on the Sternheimer
// path (GEMM, dot, axpy, LU, the block Krylov steps and the shifted
// operator's row epilogue) take their products from here instead:
//
//   cmul(a, b)      = (ar*br - ai*bi, ar*bi + ai*br)
//   cmul_conj(a, b) = conj(a) * b = (ar*br + ai*bi, ar*bi - ai*br)
//
// plain real arithmetic that the compiler vectorizes.
//
// Rounding is pinned. Where the target has a fast FMA, each part is one
// rounded product and one fused multiply-add, e.g.
// re = fma(ar, br, -(ai*bi)); without one, each part is two rounded
// products and a rounded sum. A plain expression would leave the choice
// of which product to fuse to the compiler, which makes it per call site;
// pinned, a scalar loop, its auto-vectorized form and the AVX2 complex
// dot in la/blas.cpp give the same bits for the same operands.
//
// Contract: there is no infinity recovery. A product with an infinite
// operand may come out with a NaN part where Annex G would return an
// infinity. A NaN operand still gives a NaN result, and an infinite one a
// non-finite result, so a non-finite matvec still surfaces as a
// non-finite residual.
//
// The real overloads let one kernel template serve double, cplx and
// cplxf.
#pragma once

#include <cmath>
#include <complex>

namespace rsrpa::la {

#if defined(FP_FAST_FMA) && defined(FP_FAST_FMAF)
// Vector kernels that reproduce these products (la/blas.cpp) test this.
#define RSRPA_CMUL_FMA 1
template <typename R>
inline std::complex<R> cmul(std::complex<R> a, std::complex<R> b) {
  return {std::fma(a.real(), b.real(), -(a.imag() * b.imag())),
          std::fma(a.real(), b.imag(), a.imag() * b.real())};
}

template <typename R>
inline std::complex<R> cmul_conj(std::complex<R> a, std::complex<R> b) {
  return {std::fma(a.real(), b.real(), a.imag() * b.imag()),
          std::fma(a.real(), b.imag(), -(a.imag() * b.real()))};
}
#else
#define RSRPA_CMUL_FMA 0
template <typename R>
inline std::complex<R> cmul(std::complex<R> a, std::complex<R> b) {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

template <typename R>
inline std::complex<R> cmul_conj(std::complex<R> a, std::complex<R> b) {
  return {a.real() * b.real() + a.imag() * b.imag(),
          a.real() * b.imag() - a.imag() * b.real()};
}
#endif

inline double cmul(double a, double b) { return a * b; }
inline float cmul(float a, float b) { return a * b; }
inline double cmul_conj(double a, double b) { return a * b; }
inline float cmul_conj(float a, float b) { return a * b; }

}  // namespace rsrpa::la
