// Matrix-free high-order finite difference Laplacian.
//
// The six-axis (6r+1)-point stencil of the paper, applied with periodic
// boundary conditions. Following the arithmetic-intensity analysis of
// paper SS III-C, the block interface applies the stencil to ONE input
// vector at a time (apply_block); the simultaneous multi-vector variant
// (apply_block_simultaneous) is retained solely so the A1 ablation bench
// can measure the difference the paper argues about.
//
// Two execution paths share the class:
//
//  * apply_fused — the default hot path. One memory sweep computes
//    out = alpha * Lap(in) + (beta * vdiag + shift) . in + eta * extra,
//    which is the whole shifted-Hamiltonian diagonal part (kinetic scale,
//    local potential, complex Sternheimer shift) and the Chebyshev
//    three-term update folded into the stencil pass. The traversal is
//    split into an interior region addressed by direct strided offsets
//    (no wrap tables, vectorizable) and thin periodic boundary shells
//    that keep the table lookup, with cache-blocked z/y tiling, threaded
//    over z chunks via sched::parallel_for_range. Each grid point
//    performs the exact same floating-point operations at every thread
//    count, so results are bitwise deterministic (the sched contract).
//
//  * apply_reference — the seed per-point wrap-table loop, kept as the
//    correctness oracle, the A1 ablation baseline, and the
//    set_fused_apply(false) escape hatch.
//
// Template methods cover both real grid functions (DFT, Poisson checks)
// and complex ones (Sternheimer solves): the complex-shifted Hamiltonian
// applies this operator to complex blocks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "grid/fd.hpp"
#include "grid/grid.hpp"
#include "la/cmul.hpp"
#include "la/matrix.hpp"
#include "sched/parallel_for.hpp"

namespace rsrpa::grid {

/// Default cache-block extents of the fused sweep. Every StencilLaplacian
/// starts fused, with these tiles and with the SIMD rows when compiled
/// in; concurrent jobs in one process configure their operators
/// independently via set_fused_apply / set_fused_tiles / set_simd.
inline constexpr std::size_t kDefaultFusedTileY = 32;
inline constexpr std::size_t kDefaultFusedTileZ = 16;

/// Diagonal terms fused into a single stencil sweep:
///   out = alpha * Lap(in) + (beta * vdiag + shift) . in + eta * extra.
/// vdiag and extra are optional (nullptr = absent); with the defaults the
/// sweep degenerates to the plain Laplacian and the epilogue is skipped.
/// The purely real terms stay double for both double and cplx sweeps, so
/// no per-point promotion to complex ever happens.
template <typename T>
struct FusedTerms {
  double alpha = 1.0;            ///< scale on the Laplacian sum
  const double* vdiag = nullptr; ///< real diagonal (local potential)
  double beta = 0.0;             ///< scale on vdiag
  T shift{};                     ///< constant diagonal shift (-lambda + i omega)
  const T* extra = nullptr;      ///< extra vector (Chebyshev V_{k-1})
  T eta{};                       ///< scale on extra

  [[nodiscard]] bool identity() const {
    return alpha == 1.0 && vdiag == nullptr && shift == T{} &&
           extra == nullptr;
  }
};

namespace detail {

// Interior row segment [x0, x1): every neighbor is a direct strided
// offset from the center point, so the inner loop carries no wrap-table
// indirection and vectorizes. R > 0 bakes the radius in at compile time
// (fully unrolled neighbor loop); R == 0 falls back to the runtime r.
template <typename T, int R>
inline void stencil_row_interior(const T* in, T* out, std::size_t base,
                                 std::size_t x0, std::size_t x1, long snx,
                                 long snxny, int r, const double* cx,
                                 const double* cy, const double* cz,
                                 double diag) {
  // The coefficients stay real (never static_cast to T): scaling a
  // complex sum by a real is two multiplies, while promoting the
  // coefficient to complex costs a full complex product per neighbor.
  const int rr = R > 0 ? R : r;
  for (std::size_t ix = x0; ix < x1; ++ix) {
    const T* p = in + base + ix;
    T sum = diag * p[0];
    for (int k = 1; k <= rr; ++k) {
      sum += cx[k] * (p[k] + p[-k]);
      sum += cy[k] *
             (p[static_cast<long>(k) * snx] + p[-static_cast<long>(k) * snx]);
      sum += cz[k] * (p[static_cast<long>(k) * snxny] +
                      p[-static_cast<long>(k) * snxny]);
    }
    out[base + ix] = sum;
  }
}

template <typename T>
using StencilRowFn = void (*)(const T*, T*, std::size_t, std::size_t,
                              std::size_t, long, long, int,
                              const double*, const double*, const double*,
                              double);

template <typename T>
StencilRowFn<T> pick_interior_row(int r) {
  switch (r) {
    case 1: return &stencil_row_interior<T, 1>;
    case 2: return &stencil_row_interior<T, 2>;
    case 3: return &stencil_row_interior<T, 3>;
    case 4: return &stencil_row_interior<T, 4>;
    case 5: return &stencil_row_interior<T, 5>;
    case 6: return &stencil_row_interior<T, 6>;
    default: return &stencil_row_interior<T, 0>;
  }
}

#if defined(RSRPA_SIMD_ENABLED)

// Explicit vectorization of the interior-row stencil sum via GCC/Clang
// vector extensions (portable across x86 widths without intrinsics).
// The stencil coefficients are purely real, so a complex row is just an
// even-length real row: with E = sizeof(T)/sizeof(double) real elements
// per grid point, every neighbor offset scales by E and each vector lane
// performs the exact multiply/add tree of the scalar kernel (same FMA
// contraction opportunities), which is what makes the SIMD path
// bitwise-identical to the scalar fallback. Only the raw stencil sum is
// vectorized; the fused epilogue (complex products) stays scalar.
namespace simd {

#if defined(__AVX512F__)
inline constexpr std::size_t kLanes = 8;
#elif defined(__AVX__)
inline constexpr std::size_t kLanes = 4;
#else
inline constexpr std::size_t kLanes = 2;
#endif

typedef double Vec __attribute__((vector_size(kLanes * sizeof(double))));

// Unaligned load/store; compiles to single vmovupd instructions.
inline Vec vload(const double* p) {
  Vec v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

inline void vstore(double* p, Vec v) { __builtin_memcpy(p, &v, sizeof v); }

}  // namespace simd

template <typename T, int R>
inline void stencil_row_interior_simd(const T* in, T* out, std::size_t base,
                                      std::size_t x0, std::size_t x1, long snx,
                                      long snxny, int r,
                                      const double* cx, const double* cy,
                                      const double* cz, double diag) {
  using V = simd::Vec;
  constexpr std::size_t E = sizeof(T) / sizeof(double);
  constexpr std::size_t W = simd::kLanes;
  static_assert(W % E == 0, "vector width must hold whole grid points");
  const int rr = R > 0 ? R : r;
  const long ux = static_cast<long>(E);
  const long uy = static_cast<long>(E) * snx;
  const long uz = static_cast<long>(E) * snxny;
  const double* rin = reinterpret_cast<const double*>(in);
  double* rout = reinterpret_cast<double*>(out);
  const std::size_t rbeg = (base + x0) * E;
  const std::size_t rlen = (x1 - x0) * E;
  const std::size_t rvec = rlen - rlen % W;
  for (std::size_t i = 0; i < rvec; i += W) {
    const double* q = rin + rbeg + i;
    V sum = diag * simd::vload(q);
    for (int k = 1; k <= rr; ++k) {
      sum += cx[k] *
             (simd::vload(q + k * ux) + simd::vload(q - k * ux));
      sum += cy[k] *
             (simd::vload(q + k * uy) + simd::vload(q - k * uy));
      sum += cz[k] *
             (simd::vload(q + k * uz) + simd::vload(q - k * uz));
    }
    simd::vstore(rout + rbeg + i, sum);
  }
  // Tail: whole grid points that don't fill a vector go through the
  // scalar kernel (rvec is a multiple of E because W is).
  if (rvec < rlen)
    stencil_row_interior<T, R>(in, out, base, x0 + rvec / E, x1, snx, snxny, r,
                               cx, cy, cz, diag);
}

template <typename T>
StencilRowFn<T> pick_interior_row_simd(int r) {
  switch (r) {
    case 1: return &stencil_row_interior_simd<T, 1>;
    case 2: return &stencil_row_interior_simd<T, 2>;
    case 3: return &stencil_row_interior_simd<T, 3>;
    case 4: return &stencil_row_interior_simd<T, 4>;
    case 5: return &stencil_row_interior_simd<T, 5>;
    case 6: return &stencil_row_interior_simd<T, 6>;
    default: return &stencil_row_interior_simd<T, 0>;
  }
}

#endif  // RSRPA_SIMD_ENABLED

// x-boundary segment of an interior row: only the x neighbors wrap; y/z
// stay direct strides. The segments are at most r points on each end.
template <typename T>
inline void stencil_row_xwrap(const T* in, T* out, std::size_t base,
                              std::size_t x0, std::size_t x1, long snx,
                              long snxny, int r, const std::size_t* wx,
                              const double* cx, const double* cy,
                              const double* cz, double diag) {
  for (std::size_t ix = x0; ix < x1; ++ix) {
    const T* p = in + base + ix;
    T sum = diag * p[0];
    for (int k = 1; k <= r; ++k) {
      sum += cx[k] * (in[base + wx[static_cast<long>(ix) + k]] +
                      in[base + wx[static_cast<long>(ix) - k]]);
      sum += cy[k] *
             (p[static_cast<long>(k) * snx] + p[-static_cast<long>(k) * snx]);
      sum += cz[k] * (p[static_cast<long>(k) * snxny] +
                      p[-static_cast<long>(k) * snxny]);
    }
    out[base + ix] = sum;
  }
}

// Boundary-shell row segment [x0, x1): every axis goes through its wrap
// table (handles any wrap count, including axes shorter than 2r where
// the shells overlap). Kept out-of-line with FMA contraction pinned off
// (here and in the vectorized twin below): both kernels then evaluate
// the exact source expression tree in IEEE order, which is what makes
// the scalar == SIMD bitwise contract compiler-proof for wrapped rows.
// Interior rows keep contraction — their scalar/vector kernels share one
// expression shape the compiler fuses identically (checked by tests).
template <typename T>
__attribute__((noinline, optimize("fp-contract=off"))) void
stencil_row_wrapped_seg(const T* in, T* out, std::size_t nx,
                                    std::size_t ny, std::size_t iy,
                                    std::size_t iz, std::size_t base,
                                    std::size_t x0, std::size_t x1, int r,
                                    const std::size_t* wx,
                                    const std::size_t* wy,
                                    const std::size_t* wz,
                                    const double* cx, const double* cy,
                                    const double* cz, double diag) {
  for (std::size_t ix = x0; ix < x1; ++ix) {
    T sum = diag * in[base + ix];
    for (int k = 1; k <= r; ++k) {
      sum += cx[k] * (in[base + wx[static_cast<long>(ix) + k]] +
                      in[base + wx[static_cast<long>(ix) - k]]);
      sum += cy[k] *
             (in[ix + nx * (wy[static_cast<long>(iy) + k] + ny * iz)] +
              in[ix + nx * (wy[static_cast<long>(iy) - k] + ny * iz)]);
      sum += cz[k] *
             (in[ix + nx * (iy + ny * wz[static_cast<long>(iz) + k])] +
              in[ix + nx * (iy + ny * wz[static_cast<long>(iz) - k])]);
    }
    out[base + ix] = sum;
  }
}

// Full boundary-shell row.
template <typename T>
inline void stencil_row_wrapped(const T* in, T* out, std::size_t nx,
                                std::size_t ny, std::size_t iy, std::size_t iz,
                                std::size_t base, int r, const std::size_t* wx,
                                const std::size_t* wy, const std::size_t* wz,
                                const double* cx, const double* cy,
                                const double* cz, double diag) {
  stencil_row_wrapped_seg<T>(in, out, nx, ny, iy, iz, base, 0, nx, r, wx, wy,
                             wz, cx, cy, cz, diag);
}

#if defined(RSRPA_SIMD_ENABLED)

// Vectorized boundary-shell row. The y/z wrap offsets are constant along
// an x row, so each wrapped y/z neighbor is a contiguous row that loads
// straight into vectors; only the x-interior segment [x_lo, x_hi) (where
// x neighbors are direct strides, wx[ix +- k] == ix +- k) vectorizes, and
// the x-boundary segments plus the tail go through the scalar wrap-table
// kernel. Contraction is pinned off to match stencil_row_wrapped_seg
// exactly (see its comment) — bitwise-identical to the scalar fallback.
template <typename T, int R>
__attribute__((noinline, optimize("fp-contract=off"))) void
stencil_row_wrapped_simd(const T* in, T* out, std::size_t nx,
                                     std::size_t ny, std::size_t iy,
                                     std::size_t iz, std::size_t base,
                                     std::size_t x_lo, std::size_t x_hi, int r,
                                     const std::size_t* wx,
                                     const std::size_t* wy,
                                     const std::size_t* wz,
                                     const double* cx, const double* cy,
                                     const double* cz, double diag) {
  using V = simd::Vec;
  constexpr std::size_t E = sizeof(T) / sizeof(double);
  constexpr std::size_t W = simd::kLanes;
  const int rr = R > 0 ? R : r;
  if (x_lo > 0)
    stencil_row_wrapped_seg<T>(in, out, nx, ny, iy, iz, base, 0, x_lo, r, wx,
                               wy, wz, cx, cy, cz, diag);
  // Row base pointers of the wrapped y/z neighbors, in the real view.
  const double* rin = reinterpret_cast<const double*>(in);
  double* rout = reinterpret_cast<double*>(out);
  const double* ybp[7];
  const double* ybm[7];
  const double* zbp[7];
  const double* zbm[7];
  for (int k = 1; k <= rr; ++k) {
    ybp[k] = rin + E * (nx * (wy[static_cast<long>(iy) + k] + ny * iz));
    ybm[k] = rin + E * (nx * (wy[static_cast<long>(iy) - k] + ny * iz));
    zbp[k] = rin + E * (nx * (iy + ny * wz[static_cast<long>(iz) + k]));
    zbm[k] = rin + E * (nx * (iy + ny * wz[static_cast<long>(iz) - k]));
  }
  const double* rx = rin + base * E;
  double* ro = rout + base * E;
  const std::size_t rlo = x_lo * E;
  const std::size_t rlen = (x_hi - x_lo) * E;
  const std::size_t rvec = rlen - rlen % W;
  const long ux = static_cast<long>(E);
  for (std::size_t i = rlo; i < rlo + rvec; i += W) {
    const double* q = rx + i;
    V sum = diag * simd::vload(q);
    for (int k = 1; k <= rr; ++k) {
      sum += cx[k] *
             (simd::vload(q + k * ux) + simd::vload(q - k * ux));
      sum += cy[k] *
             (simd::vload(ybp[k] + i) + simd::vload(ybm[k] + i));
      sum += cz[k] *
             (simd::vload(zbp[k] + i) + simd::vload(zbm[k] + i));
    }
    simd::vstore(ro + i, sum);
  }
  if (x_lo + rvec / E < nx)
    stencil_row_wrapped_seg<T>(in, out, nx, ny, iy, iz, base,
                               x_lo + rvec / E, nx, r, wx, wy, wz, cx, cy, cz,
                               diag);
}

template <typename T>
using WrappedRowFn = void (*)(const T*, T*, std::size_t, std::size_t,
                              std::size_t, std::size_t, std::size_t,
                              std::size_t, std::size_t, int,
                              const std::size_t*, const std::size_t*,
                              const std::size_t*, const double*, const double*,
                              const double*, double);

template <typename T>
WrappedRowFn<T> pick_wrapped_row_simd(int r) {
  switch (r) {
    case 1: return &stencil_row_wrapped_simd<T, 1>;
    case 2: return &stencil_row_wrapped_simd<T, 2>;
    case 3: return &stencil_row_wrapped_simd<T, 3>;
    case 4: return &stencil_row_wrapped_simd<T, 4>;
    case 5: return &stencil_row_wrapped_simd<T, 5>;
    case 6: return &stencil_row_wrapped_simd<T, 6>;
    // The row-base arrays are sized for r <= 6; larger radii keep the
    // scalar wrap-table kernel.
    default: return nullptr;
  }
}

#endif  // RSRPA_SIMD_ENABLED

// Row epilogue of the fused sweep: combines the raw stencil sum (already
// in out, still hot in L1) with the diagonal terms. The branches hoist
// the nullable pointers out of the inner loops. The complex products go
// through la::cmul so the loops vectorize (see la/cmul.hpp).
template <typename T>
inline void fused_row_epilogue(const T* in, T* out, const FusedTerms<T>& t,
                               std::size_t i0, std::size_t i1) {
  const double alpha = t.alpha;
  if (t.vdiag != nullptr) {
    const double* v = t.vdiag;
    if (t.extra != nullptr) {
      for (std::size_t i = i0; i < i1; ++i)
        out[i] = alpha * out[i] + la::cmul(t.beta * v[i] + t.shift, in[i]) +
                 la::cmul(t.eta, t.extra[i]);
    } else {
      for (std::size_t i = i0; i < i1; ++i)
        out[i] = alpha * out[i] + la::cmul(t.beta * v[i] + t.shift, in[i]);
    }
  } else {
    if (t.extra != nullptr) {
      for (std::size_t i = i0; i < i1; ++i)
        out[i] = alpha * out[i] + la::cmul(t.shift, in[i]) +
                 la::cmul(t.eta, t.extra[i]);
    } else {
      for (std::size_t i = i0; i < i1; ++i)
        out[i] = alpha * out[i] + la::cmul(t.shift, in[i]);
    }
  }
}

}  // namespace detail

class StencilLaplacian {
 public:
  StencilLaplacian(Grid3D g, int radius)
      : grid_(g),
        radius_(radius),
        coeffs_(fd_coefficients(radius)),
        wrap_x_(make_wrap(g.nx(), radius)),
        wrap_y_(make_wrap(g.ny(), radius)),
        wrap_z_(make_wrap(g.nz(), radius)) {
    const double ihx2 = 1.0 / (g.hx() * g.hx());
    const double ihy2 = 1.0 / (g.hy() * g.hy());
    const double ihz2 = 1.0 / (g.hz() * g.hz());
    cx_.resize(radius_ + 1);
    cy_.resize(radius_ + 1);
    cz_.resize(radius_ + 1);
    for (int k = 0; k <= radius_; ++k) {
      cx_[k] = coeffs_[k] * ihx2;
      cy_[k] = coeffs_[k] * ihy2;
      cz_[k] = coeffs_[k] * ihz2;
    }
    diag_ = cx_[0] + cy_[0] + cz_[0];
  }

  [[nodiscard]] const Grid3D& grid() const { return grid_; }
  [[nodiscard]] int radius() const { return radius_; }
  /// Diagonal entry of the discrete Laplacian (constant on a uniform grid).
  [[nodiscard]] double diagonal() const { return diag_; }
  /// Raw unit-spacing coefficients c_0..c_r.
  [[nodiscard]] const std::vector<double>& coefficients() const {
    return coeffs_;
  }

  /// Most negative eigenvalue of the periodic FD Laplacian, from the
  /// separable symbol. Used for Chebyshev bounds on H's spectrum.
  [[nodiscard]] double min_eigenvalue_bound() const;

  /// Select the fused single-sweep path (default: on).
  void set_fused_apply(bool on) { fused_ = on; }
  [[nodiscard]] bool fused_apply() const { return fused_; }

  /// Cache-block extents of the fused sweep for THIS operator (defaults:
  /// kDefaultFusedTileY / kDefaultFusedTileZ). Tiling only
  /// reorders the traversal — results are bitwise identical at any tile
  /// size — so two in-process jobs may tune them independently.
  void set_fused_tiles(std::size_t tile_y, std::size_t tile_z) {
    RSRPA_REQUIRE_MSG(tile_y >= 1 && tile_z >= 1,
                      "fused tile extents must be >= 1");
    tile_y_ = tile_y;
    tile_z_ = tile_z;
  }
  [[nodiscard]] std::size_t tile_y() const { return tile_y_; }
  [[nodiscard]] std::size_t tile_z() const { return tile_z_; }

  /// True when this build carries the explicitly vectorized interior-row
  /// kernels (-DRSRPA_SIMD=ON, the default).
  [[nodiscard]] static constexpr bool simd_compiled() {
#if defined(RSRPA_SIMD_ENABLED)
    return true;
#else
    return false;
#endif
  }

  /// Select the vectorized interior-row kernels for THIS operator
  /// (default: on when compiled in). The scalar kernels remain the
  /// mandatory runtime fallback — set_simd(false) — and are
  /// bitwise-identical to the SIMD path. A no-op when the build has no
  /// SIMD kernels.
  void set_simd(bool on) { simd_ = on && simd_compiled(); }
  [[nodiscard]] bool simd() const { return simd_; }

  /// out = Laplacian(in) for a single grid function. Dispatches to the
  /// fused interior/boundary sweep unless this instance selected the
  /// reference path (set_fused_apply(false)).
  template <typename T>
  void apply(std::span<const T> in, std::span<T> out) const {
    if (fused_) {
      apply_fused<T>(in, out, FusedTerms<T>{});
    } else {
      apply_reference<T>(in, out);
    }
  }

  /// Single-sweep fused kernel:
  ///   out = t.alpha * Lap(in) + (t.beta * t.vdiag + t.shift) . in
  ///         + t.eta * t.extra.
  /// One pass over memory: the raw stencil sum of each x row is written
  /// to out and immediately combined with the diagonal terms while the
  /// row is in cache. Interior rows use direct strided offsets; boundary
  /// shells (and axes shorter than 2r) keep the wrap tables. Threaded
  /// over z chunks with disjoint writes — bitwise deterministic at every
  /// RSRPA_THREADS setting.
  template <typename T>
  void apply_fused(std::span<const T> in, std::span<T> out,
                   const FusedTerms<T>& t) const {
    RSRPA_REQUIRE(in.size() == grid_.size() && out.size() == grid_.size());
    require_no_alias(in.data(), out.data(), in.size());
    const std::size_t nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
    const int r = radius_;
    const std::size_t rsz = static_cast<std::size_t>(r);
    const long snx = static_cast<long>(nx);
    const long snxny = static_cast<long>(nx * ny);
    const std::size_t* wx = wrap_x_.data() + r;
    const std::size_t* wy = wrap_y_.data() + r;
    const std::size_t* wz = wrap_z_.data() + r;
    const double* cx = cx_.data();
    const double* cy = cy_.data();
    const double* cz = cz_.data();
    const double diag = diag_;
    const T* pin = in.data();
    T* pout = out.data();

    // Interior extents per axis; an axis shorter than 2r is all boundary
    // (x_lo == x_hi) and the wrap tables absorb the overlapping shells.
    const std::size_t x_lo = std::min(rsz, nx);
    const std::size_t x_hi = nx >= 2 * rsz ? nx - rsz : x_lo;
    const bool y_interior = ny >= 2 * rsz;
    const bool z_interior = nz >= 2 * rsz;
    detail::StencilRowFn<T> interior_row = detail::pick_interior_row<T>(r);
#if defined(RSRPA_SIMD_ENABLED)
    detail::WrappedRowFn<T> wrapped_row_simd = nullptr;
    if (simd_) {
      interior_row = detail::pick_interior_row_simd<T>(r);
      // Boundary-shell rows vectorize their x-interior segment too (the
      // wrapped y/z neighbors are contiguous rows); needs a nonempty x
      // interior.
      if (x_hi > x_lo) wrapped_row_simd = detail::pick_wrapped_row_simd<T>(r);
    }
#endif
    const bool epilogue = !t.identity();
    const std::size_t ty = tile_y_;
    const std::size_t tz = tile_z_;

    // One task per z chunk; rows (and therefore writes) are disjoint.
    constexpr std::size_t kElemsPerTask = 1u << 16;
    const std::size_t z_grain =
        kElemsPerTask / std::max<std::size_t>(nx * ny, 1) + 1;
    sched::parallel_for_range(0, nz, z_grain, [&](std::size_t zb,
                                                  std::size_t ze) {
      for (std::size_t z0 = zb; z0 < ze; z0 += tz) {
        const std::size_t z1 = std::min(z0 + tz, ze);
        for (std::size_t y0 = 0; y0 < ny; y0 += ty) {
          const std::size_t y1 = std::min(y0 + ty, ny);
          for (std::size_t iz = z0; iz < z1; ++iz) {
            const bool z_in = z_interior && iz >= rsz && iz + rsz < nz;
            for (std::size_t iy = y0; iy < y1; ++iy) {
              const std::size_t base = nx * (iy + ny * iz);
              if (z_in && y_interior && iy >= rsz && iy + rsz < ny) {
                if (x_lo > 0)
                  detail::stencil_row_xwrap<T>(pin, pout, base, 0, x_lo, snx,
                                               snxny, r, wx, cx, cy, cz, diag);
                if (x_hi > x_lo)
                  interior_row(pin, pout, base, x_lo, x_hi, snx, snxny, r, cx,
                               cy, cz, diag);
                if (x_hi < nx)
                  detail::stencil_row_xwrap<T>(pin, pout, base, x_hi, nx, snx,
                                               snxny, r, wx, cx, cy, cz, diag);
              } else {
#if defined(RSRPA_SIMD_ENABLED)
                if (wrapped_row_simd != nullptr)
                  wrapped_row_simd(pin, pout, nx, ny, iy, iz, base, x_lo, x_hi,
                                   r, wx, wy, wz, cx, cy, cz, diag);
                else
#endif
                  detail::stencil_row_wrapped<T>(pin, pout, nx, ny, iy, iz,
                                                 base, r, wx, wy, wz, cx, cy,
                                                 cz, diag);
              }
              if (epilogue)
                detail::fused_row_epilogue<T>(pin, pout, t, base, base + nx);
            }
          }
        }
      }
    });
  }

  /// The seed wrap-table loop — correctness oracle, A1 ablation baseline,
  /// and set_fused_apply(false) path. Threaded over z chunks through the
  /// sched pool (not OpenMP) so RSRPA_THREADS governs it.
  template <typename T>
  void apply_reference(std::span<const T> in, std::span<T> out) const {
    RSRPA_REQUIRE(in.size() == grid_.size() && out.size() == grid_.size());
    require_no_alias(in.data(), out.data(), in.size());
    const std::size_t nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
    const int r = radius_;
    const std::size_t* wx = wrap_x_.data() + r;
    const std::size_t* wy = wrap_y_.data() + r;
    const std::size_t* wz = wrap_z_.data() + r;
    constexpr std::size_t kElemsPerTask = 1u << 16;
    const std::size_t z_grain =
        kElemsPerTask / std::max<std::size_t>(nx * ny, 1) + 1;
    sched::parallel_for_range(0, nz, z_grain, [&](std::size_t zb,
                                                  std::size_t ze) {
      for (std::size_t iz = zb; iz < ze; ++iz) {
        for (std::size_t iy = 0; iy < ny; ++iy) {
          const std::size_t base = nx * (iy + ny * iz);
          // z and y neighbor plane/row offsets are shared across the x row.
          for (std::size_t ix = 0; ix < nx; ++ix) {
            T sum = diag_ * in[base + ix];
            for (int k = 1; k <= r; ++k) {
              sum += cx_[k] *
                     (in[base + wx[static_cast<long>(ix) + k]] +
                      in[base + wx[static_cast<long>(ix) - k]]);
              sum += cy_[k] *
                     (in[ix + nx * (wy[static_cast<long>(iy) + k] + ny * iz)] +
                      in[ix + nx * (wy[static_cast<long>(iy) - k] + ny * iz)]);
              sum += cz_[k] *
                     (in[ix + nx * (iy + ny * wz[static_cast<long>(iz) + k])] +
                      in[ix + nx * (iy + ny * wz[static_cast<long>(iz) - k])]);
            }
            out[base + ix] = sum;
          }
        }
      }
    });
  }

  /// Column-at-a-time block apply (the paper's preferred schedule).
  template <typename T>
  void apply_block(const la::Matrix<T>& in, la::Matrix<T>& out) const {
    RSRPA_REQUIRE(in.rows() == grid_.size() && out.rows() == in.rows() &&
                  out.cols() == in.cols());
    for (std::size_t j = 0; j < in.cols(); ++j) apply<T>(in.col(j), out.col(j));
  }

  /// Simultaneous multi-vector apply: iterates grid points in the outer
  /// loops and vectors innermost. Kept for the SS III-C ablation; the
  /// working set grows by a factor s, which is exactly the effect the
  /// paper's fast-memory model predicts will hurt. Deliberately still
  /// OpenMP (the ablation measures the seed execution model, not the
  /// sched pool) — the only omp pragma left on purpose; see the CMake
  /// compute-path assertion.
  template <typename T>
  void apply_block_simultaneous(const la::Matrix<T>& in,
                                la::Matrix<T>& out) const {
    RSRPA_REQUIRE(in.rows() == grid_.size() && out.rows() == in.rows() &&
                  out.cols() == in.cols());
    const std::size_t nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
    const std::size_t s = in.cols();
    const std::size_t n = grid_.size();
    const int r = radius_;
    const std::size_t* wx = wrap_x_.data() + r;
    const std::size_t* wy = wrap_y_.data() + r;
    const std::size_t* wz = wrap_z_.data() + r;
    const T* pin = in.data();
    T* pout = out.data();
#pragma omp parallel for schedule(static)
    for (std::size_t iz = 0; iz < nz; ++iz) {
      for (std::size_t iy = 0; iy < ny; ++iy) {
        for (std::size_t ix = 0; ix < nx; ++ix) {
          const std::size_t p = ix + nx * (iy + ny * iz);
          for (std::size_t j = 0; j < s; ++j)
            pout[p + j * n] = static_cast<T>(diag_) * pin[p + j * n];
          for (int k = 1; k <= r; ++k) {
            const std::size_t xp = wx[static_cast<long>(ix) + k] + nx * (iy + ny * iz);
            const std::size_t xm = wx[static_cast<long>(ix) - k] + nx * (iy + ny * iz);
            const std::size_t yp = ix + nx * (wy[static_cast<long>(iy) + k] + ny * iz);
            const std::size_t ym = ix + nx * (wy[static_cast<long>(iy) - k] + ny * iz);
            const std::size_t zp = ix + nx * (iy + ny * wz[static_cast<long>(iz) + k]);
            const std::size_t zm = ix + nx * (iy + ny * wz[static_cast<long>(iz) - k]);
            for (std::size_t j = 0; j < s; ++j) {
              const std::size_t o = j * n;
              pout[p + o] += static_cast<T>(cx_[k]) * (pin[xp + o] + pin[xm + o]) +
                             static_cast<T>(cy_[k]) * (pin[yp + o] + pin[ym + o]) +
                             static_cast<T>(cz_[k]) * (pin[zp + o] + pin[zm + o]);
            }
          }
        }
      }
    }
  }

 private:
  template <typename T>
  static void require_no_alias(const T* a, const T* b, std::size_t n) {
    const auto lo_a = reinterpret_cast<std::uintptr_t>(a);
    const auto lo_b = reinterpret_cast<std::uintptr_t>(b);
    const std::uintptr_t bytes = n * sizeof(T);
    RSRPA_REQUIRE_MSG(lo_a + bytes <= lo_b || lo_b + bytes <= lo_a,
                      "stencil apply: in/out must not alias (the sweep reads "
                      "in after writing out)");
  }

  static std::vector<std::size_t> make_wrap(std::size_t n, int r) {
    // Table of size n + 2r mapping shifted position i-r (i in [0, n+2r))
    // to its periodic image; indexed as wrap[r + q] for q in [-r, n+r).
    std::vector<std::size_t> w(n + 2 * static_cast<std::size_t>(r));
    for (std::size_t i = 0; i < w.size(); ++i) {
      long q = static_cast<long>(i) - r;
      const long nn = static_cast<long>(n);
      q = ((q % nn) + nn) % nn;
      w[i] = static_cast<std::size_t>(q);
    }
    return w;
  }

  Grid3D grid_;
  int radius_;
  std::vector<double> coeffs_;
  std::vector<std::size_t> wrap_x_, wrap_y_, wrap_z_;
  std::vector<double> cx_, cy_, cz_;
  double diag_ = 0.0;
  // Per-instance apply tuning, set per operator so concurrent in-process
  // runs never share these knobs.
  bool fused_ = true;
  std::size_t tile_y_ = kDefaultFusedTileY;
  std::size_t tile_z_ = kDefaultFusedTileZ;
  bool simd_ = simd_compiled();
};

}  // namespace rsrpa::grid
