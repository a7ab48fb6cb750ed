// Nonlocal pseudopotential projectors: the sparse X X^H term.
//
// One normalized Gaussian s-type projector per atom, truncated to a
// compact support sphere, with strength gamma > 0 (repulsive, mimicking
// core orthogonality in a real pseudopotential). The support indices and
// values of all projectors are packed once at construction into flat
// CSR-style arrays so block applies run as a gather-GEMM: overlaps
// P^T X for all columns at once (s-way instruction-level parallelism on
// each gathered support row), scaled by gamma dv, then scattered back as
// P (Gamma P^T X). That is the higher-arithmetic-intensity matmult the
// paper exploits (SS III-C); the per-column scalar-dot path is kept as
// the reference oracle.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "grid/grid.hpp"
#include "hamiltonian/crystal.hpp"
#include "hamiltonian/potential.hpp"
#include "la/matrix.hpp"

namespace rsrpa::ham {

class NonlocalProjectors {
 public:
  NonlocalProjectors(const grid::Grid3D& g, const Crystal& crystal,
                     const ModelParams& params);

  [[nodiscard]] std::size_t n_projectors() const { return gamma_.size(); }
  /// Total support points over all projectors (the gather-GEMM row count).
  [[nodiscard]] std::size_t support_size() const { return idx_.size(); }

  /// out += scale * sum_a gamma_a p_a (p_a . in) — real orbitals make
  /// X X^H a plain transpose product, so one template covers real and
  /// complex. Per-column reference path (scalar dot + scatter).
  template <typename T>
  void apply_add(std::span<const T> in, std::span<T> out,
                 double scale = 1.0) const {
    const std::size_t np = gamma_.size();
    for (std::size_t a = 0; a < np; ++a) {
      const std::size_t kb = offsets_[a], ke = offsets_[a + 1];
      // Real scales, as in the block path below: never a complex product.
      T overlap{};
      for (std::size_t k = kb; k < ke; ++k)
        overlap += val_[k] * in[idx_[k]];
      overlap *= gamma_[a] * dv_ * scale;
      for (std::size_t k = kb; k < ke; ++k)
        out[idx_[k]] += val_[k] * overlap;
    }
  }

  /// Block path: for each projector, gather-GEMM all column overlaps in
  /// one pass over the support (ov = P^T X), scale by gamma dv, then
  /// scatter-add P (Gamma ov). Support indices ascend, so the strided
  /// column accesses reuse each gathered cache line across k. Projectors
  /// run serially (their supports may overlap), which also keeps the
  /// accumulation order identical to the per-column path within a column.
  template <typename T>
  void apply_add_block(const la::Matrix<T>& in, la::Matrix<T>& out,
                       double scale = 1.0) const {
    RSRPA_REQUIRE(in.rows() == out.rows() && in.cols() == out.cols());
    const std::size_t s = in.cols();
    if (s == 1) {
      apply_add<T>(in.col(0), out.col(0), scale);
      return;
    }
    const std::size_t n = in.rows();
    const T* pin = in.data();
    T* pout = out.data();
    const std::size_t np = gamma_.size();
    std::vector<T> ov(s);
    for (std::size_t a = 0; a < np; ++a) {
      std::fill(ov.begin(), ov.end(), T{});
      const std::size_t kb = offsets_[a], ke = offsets_[a + 1];
      // Projector values stay real (not cast to T): a real * complex
      // scale is two multiplies, a complex * complex product is four.
      for (std::size_t k = kb; k < ke; ++k) {
        const double v = val_[k];
        const T* row = pin + idx_[k];
        for (std::size_t j = 0; j < s; ++j) ov[j] += v * row[j * n];
      }
      const double g = gamma_[a] * dv_ * scale;
      for (std::size_t j = 0; j < s; ++j) ov[j] *= g;
      for (std::size_t k = kb; k < ke; ++k) {
        const double v = val_[k];
        T* row = pout + idx_[k];
        for (std::size_t j = 0; j < s; ++j) row[j * n] += v * ov[j];
      }
    }
  }

  /// Per-column reference block apply (the seed schedule) — correctness
  /// oracle for the gather-GEMM path and the A1 ablation baseline.
  template <typename T>
  void apply_add_block_reference(const la::Matrix<T>& in, la::Matrix<T>& out,
                                 double scale = 1.0) const {
    RSRPA_REQUIRE(in.rows() == out.rows() && in.cols() == out.cols());
    for (std::size_t j = 0; j < in.cols(); ++j)
      apply_add<T>(in.col(j), out.col(j), scale);
  }

  /// Exact operator norm of the nonlocal term, via the projector Gram
  /// matrix (small dense eigenproblem). Used for Hamiltonian bounds.
  [[nodiscard]] double operator_norm() const;

 private:
  // Flat CSR-style packing: projector a owns support entries
  // [offsets_[a], offsets_[a+1]) of idx_/val_, with strength gamma_[a].
  // Indices within each projector ascend (grid construction order).
  std::vector<std::size_t> offsets_{0};
  std::vector<std::size_t> idx_;
  std::vector<double> val_;
  std::vector<double> gamma_;
  double dv_ = 0.0;
};

}  // namespace rsrpa::ham
