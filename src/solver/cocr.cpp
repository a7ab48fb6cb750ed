#include "solver/cocr.hpp"

#include <cmath>
#include <vector>

#include "la/blas.hpp"
#include "la/cmul.hpp"

namespace rsrpa::solver {

SolveReport cocr(const BlockOpC& a, std::span<const cplx> b, std::span<cplx> y,
                 const SolverOptions& opts) {
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

  std::vector<cplx> r(n), p(n), ar(n), ap(n);
  apply(y, r);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];

  rep.relative_residual = la::nrm2(std::span<const cplx>(r)) / bnorm;
  if (opts.record_history) rep.history.push_back(rep.relative_residual);
  if (rep.relative_residual <= opts.tol) {
    rep.converged = true;
    return rep;
  }

  p = r;
  apply(r, ar);
  ap = ar;
  cplx rho = la::dot_u(r, ar);  // (r, Ar) in the bilinear form

  for (int it = 0; it < opts.max_iter; ++it) {
    const cplx sigma = la::dot_u(ap, ap);
    if (std::abs(sigma) == 0.0)
      throw NumericalBreakdown("COCR: (Ap, Ap) vanished");
    const cplx alpha = rho / sigma;
    for (std::size_t i = 0; i < n; ++i) {
      y[i] += la::cmul(alpha, p[i]);
      r[i] -= la::cmul(alpha, ap[i]);
    }
    rep.iterations = it + 1;
    rep.relative_residual = la::nrm2(std::span<const cplx>(r)) / bnorm;
    if (opts.record_history) rep.history.push_back(rep.relative_residual);
    if (!std::isfinite(rep.relative_residual))
      throw NumericalBreakdown("COCR: non-finite residual");
    if (rep.relative_residual <= opts.tol) {
      rep.converged = true;
      return rep;
    }
    apply(r, ar);
    const cplx rho_new = la::dot_u(r, ar);
    if (std::abs(rho) == 0.0)
      throw NumericalBreakdown("COCR: (r, Ar) vanished");
    const cplx beta = rho_new / rho;
    rho = rho_new;
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = r[i] + la::cmul(beta, p[i]);
      ap[i] = ar[i] + la::cmul(beta, ap[i]);
    }
  }
  return rep;
}

}  // namespace rsrpa::solver
