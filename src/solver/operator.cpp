#include "solver/operator.hpp"

#include "hamiltonian/hamiltonian.hpp"

namespace rsrpa::solver {

ApplyCostModel shifted_apply_cost(const ham::Hamiltonian& h, bool fused) {
  // Sweep counting per complex column (paper SS III-C fast-memory model:
  // stencil neighbors are cache hits, every sweep reads its operands
  // once). n = grid points, nnz = total nonlocal support points.
  //
  //   fused:     one sweep — read in (16 B/pt), write out (16), read
  //              V_loc (8) — plus the nonlocal gather+scatter touching
  //              in/out on the support (2 x 32 B/pt, index/value streams
  //              amortized across the block).
  //   reference: stencil sweep (in+out, 32), scale+V_loc sweep
  //              (out read/write + in + V_loc, 56), shift sweep (out
  //              read/write + in, 48), plus the same nonlocal term.
  //
  // Flops: each stencil tap is a real x complex multiply-add (4 flops),
  // 6r+1 taps per point; the diagonal terms add ~14 flops/pt fused
  // (alpha scale, V_loc + shift multiply-add) and the same work spread
  // over the extra sweeps on the reference path; nonlocal gather+scatter
  // are real x complex multiply-adds on the support (8 flops/pt total).
  // Byte counts are in 8-byte real words: 5 words/pt fused (in 2, out 2,
  // V_loc 1) vs 17 on the reference path, plus 8 words per nonlocal
  // support point (gather+scatter of in/out, 2 x 4).
  const auto n = static_cast<double>(h.grid().size());
  const auto nnz = static_cast<double>(h.nonlocal().support_size());
  const double r = h.laplacian().radius();
  ApplyCostModel m;
  m.bytes_per_column = 8.0 * (fused ? 5.0 : 17.0) * n + 8.0 * 8.0 * nnz;
  m.flops_per_column = 4.0 * (6.0 * r + 1.0) * n + 14.0 * n + 8.0 * nnz;
  return m;
}

void ShiftedHamiltonianOp::apply(const la::Matrix<cplx>& in,
                                 la::Matrix<cplx>& out) const {
  h_->apply_shifted_block(in, out, lambda_, omega_);
}

}  // namespace rsrpa::solver
