#include "solver/qmr_sym.hpp"

#include <cmath>
#include <vector>

#include "la/blas.hpp"
#include "la/cmul.hpp"

namespace rsrpa::solver {

// QMR smoothing applied on top of the COCG recurrence: run the standard
// conjugate-orthogonal iteration and quasi-minimize over the last two
// iterates. This is the "QMR from coupled two-term recurrences" form
// specialized to A = A^T, where the left and right Lanczos vectors
// coincide and all inner products are the unconjugated bilinear form.
SolveReport qmr_sym(const BlockOpC& a, std::span<const cplx> b,
                    std::span<cplx> y, const SolverOptions& opts) {
  const std::size_t n = b.size();
  RSRPA_REQUIRE(y.size() == n);

  SolveReport rep;
  MatvecCostScope cost_scope(rep, opts);
  const double bnorm = la::nrm2(b);
  if (bnorm == 0.0) {
    std::fill(y.begin(), y.end(), cplx{});
    rep.converged = true;
    return rep;
  }

  la::Matrix<cplx> xcol(n, 1), ycol(n, 1);
  auto apply = [&](std::span<const cplx> in, std::span<cplx> out) {
    std::copy(in.begin(), in.end(), xcol.col(0).begin());
    a(xcol, ycol);
    std::copy(ycol.col(0).begin(), ycol.col(0).end(), out.begin());
    rep.matvec_columns += 1;
  };

  // Underlying COCG sequence (x_k, r_k) plus QMR-smoothed sequence
  // (y = s_k, rs_k): s_k = s_{k-1} + theta^2 eta (x_k - s_{k-1}) in the
  // classical residual-smoothing formulation of QMR.
  std::vector<cplx> x(y.begin(), y.end());
  std::vector<cplx> r(n), p(n), u(n), rs(n);
  apply(x, r);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
  rs = r;

  cplx rho = la::dot_u(r, r);
  double tau = la::nrm2(std::span<const cplx>(r));  // QMR quasi-residual
  rep.relative_residual = tau / bnorm;
  if (opts.record_history) rep.history.push_back(rep.relative_residual);
  if (rep.relative_residual <= opts.tol) {
    rep.converged = true;
    std::copy(x.begin(), x.end(), y.begin());
    return rep;
  }

  cplx beta{};
  bool have_p = false;

  for (int it = 0; it < opts.max_iter; ++it) {
    if (have_p) {
      for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + la::cmul(beta, p[i]);
    } else {
      p = r;
      have_p = true;
    }
    apply(p, u);
    const cplx mu = la::dot_u(u, p);
    if (std::abs(mu) == 0.0)
      throw NumericalBreakdown("QMR_SYM: conjugacy scalar vanished");
    const cplx alpha = rho / mu;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += la::cmul(alpha, p[i]);
      r[i] -= la::cmul(alpha, u[i]);
    }

    // Minimal-residual smoothing (Schoenauer/Weiss — equivalent to QMR up
    // to the quasi-norm): choose gamma minimizing ||rs + gamma (r - rs)||
    // in the TRUE Euclidean norm and update the smoothed pair (y, rs).
    //   gamma = -<d, rs> / <d, d>,  d = r - rs   (Hermitian inner product)
    cplx num{};
    double den = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const cplx d = r[i] - rs[i];
      num -= la::cmul_conj(d, rs[i]);
      den += std::norm(d);
    }
    const cplx gamma = den > 0.0 ? num / den : cplx{};
    for (std::size_t i = 0; i < n; ++i) {
      y[i] += la::cmul(gamma, x[i] - y[i]);
      rs[i] += la::cmul(gamma, r[i] - rs[i]);
    }

    tau = la::nrm2(std::span<const cplx>(rs));
    rep.iterations = it + 1;
    rep.relative_residual = tau / bnorm;
    if (opts.record_history) rep.history.push_back(rep.relative_residual);
    if (!std::isfinite(rep.relative_residual))
      throw NumericalBreakdown("QMR_SYM: non-finite residual");
    if (rep.relative_residual <= opts.tol) {
      rep.converged = true;
      return rep;
    }
    const cplx rho_new = la::dot_u(r, r);
    beta = rho_new / rho;
    rho = rho_new;
  }
  return rep;
}

}  // namespace rsrpa::solver
