// Generic scaled Chebyshev polynomial filter on a real block operator.
//
// Shared by the CheFSI ground-state solver (filtering H) and the RPA
// subspace iteration (filtering nu^{1/2} chi0 nu^{1/2}, Algorithm 5).
// Components of V with operator eigenvalues inside [a, b] are damped to
// |p| <= 1 while everything below a is amplified; a0 (a lower estimate of
// the spectrum) sets the stable scaling of Zhou et al. (paper ref [34]).
//
// Two bindings: chebyshev_filter_fused drives a fused three-term step
// operator (out = c1 A in + c0 in + c2 extra in ONE pass — the
// Hamiltonian folds the scalars into its single-sweep kernel), rotating
// three block buffers instead of copying V each iteration.
// chebyshev_filter_op adapts any plain BlockOpR to the fused recurrence
// (apply, then a separate elementwise combine).
#pragma once

#include <functional>

#include "la/matrix.hpp"

namespace rsrpa::solver {

/// out = A * in for a block of real vectors.
using BlockOpR =
    std::function<void(const la::Matrix<double>&, la::Matrix<double>&)>;

/// One fused three-term step: out = c1 * (A in) + c0 * in + c2 * extra
/// (extra may be null, in which case c2 is unused). Implementations fold
/// the scalars into the operator sweep where they can.
using FilterStepOpR = std::function<void(
    const la::Matrix<double>& in, la::Matrix<double>& out, double c1,
    double c0, const la::Matrix<double>* extra, double c2)>;

/// In-place V <- p_degree(A) V damping [a, b], expressed entirely in
/// fused three-term steps. No per-iteration block copies: the V_{k-1},
/// V_k, V_{k+1} buffers rotate.
void chebyshev_filter_fused(const FilterStepOpR& step, la::Matrix<double>& v,
                            int degree, double a, double b, double a0);

/// In-place V <- p_degree(A) V damping [a, b] for a plain block operator
/// (adapter over chebyshev_filter_fused).
void chebyshev_filter_op(const BlockOpR& a_op, la::Matrix<double>& v,
                         int degree, double a, double b, double a0);

}  // namespace rsrpa::solver
