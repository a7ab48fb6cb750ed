#include "solver/gmres.hpp"

#include <cmath>
#include <vector>

#include "la/blas.hpp"
#include "la/cmul.hpp"

namespace rsrpa::solver {

SolveReport gmres(const BlockOpC& a, std::span<const cplx> b, std::span<cplx> y,
                  const GmresOptions& opts) {
  const std::size_t n = b.size();
  RSRPA_REQUIRE(y.size() == n && opts.restart >= 1);

  SolveReport rep;
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

  const int m = opts.restart;
  // Arnoldi basis (m+1 vectors) and Hessenberg in Givens-rotated form.
  la::Matrix<cplx> v(n, static_cast<std::size_t>(m) + 1);
  la::Matrix<cplx> h(static_cast<std::size_t>(m) + 1,
                     static_cast<std::size_t>(m));
  std::vector<cplx> cs(m), sn(m), g(static_cast<std::size_t>(m) + 1);
  std::vector<cplx> r(n), w(n);

  int total_iters = 0;
  while (total_iters < opts.max_iter) {
    // Residual of the current iterate starts each cycle.
    apply(y, r);
    for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
    double beta = la::nrm2(std::span<const cplx>(r));
    rep.relative_residual = beta / bnorm;
    if (opts.record_history) rep.history.push_back(rep.relative_residual);
    if (rep.relative_residual <= opts.tol) {
      rep.converged = true;
      return rep;
    }

    for (std::size_t i = 0; i < n; ++i) v(i, 0) = r[i] / beta;
    std::fill(g.begin(), g.end(), cplx{});
    g[0] = beta;

    int k = 0;
    for (; k < m && total_iters < opts.max_iter; ++k, ++total_iters) {
      // Arnoldi step with modified Gram-Schmidt (conjugated inner
      // products — GMRES works in the Hermitian geometry).
      apply(v.col(static_cast<std::size_t>(k)), w);
      for (int i = 0; i <= k; ++i) {
        const cplx hik =
            la::dot_c(v.col(static_cast<std::size_t>(i)), std::span<const cplx>(w));
        h(static_cast<std::size_t>(i), static_cast<std::size_t>(k)) = hik;
        la::axpy(-hik, v.col(static_cast<std::size_t>(i)), w);
      }
      const double wnorm = la::nrm2(std::span<const cplx>(w));
      h(static_cast<std::size_t>(k) + 1, static_cast<std::size_t>(k)) = wnorm;
      if (wnorm > 0.0)
        for (std::size_t i = 0; i < n; ++i)
          v(i, static_cast<std::size_t>(k) + 1) = w[i] / wnorm;

      // Apply accumulated Givens rotations to the new column.
      for (int i = 0; i < k; ++i) {
        const cplx t = h(static_cast<std::size_t>(i), static_cast<std::size_t>(k));
        const cplx t1 = h(static_cast<std::size_t>(i) + 1, static_cast<std::size_t>(k));
        h(static_cast<std::size_t>(i), static_cast<std::size_t>(k)) =
            la::cmul_conj(cs[static_cast<std::size_t>(i)], t) +
            la::cmul_conj(sn[static_cast<std::size_t>(i)], t1);
        h(static_cast<std::size_t>(i) + 1, static_cast<std::size_t>(k)) =
            la::cmul(-sn[static_cast<std::size_t>(i)], t) +
            la::cmul(cs[static_cast<std::size_t>(i)], t1);
      }
      // New rotation annihilating h(k+1, k).
      const cplx hkk = h(static_cast<std::size_t>(k), static_cast<std::size_t>(k));
      const cplx hk1k = h(static_cast<std::size_t>(k) + 1, static_cast<std::size_t>(k));
      const double denom = std::sqrt(std::norm(hkk) + std::norm(hk1k));
      if (denom == 0.0) {
        cs[static_cast<std::size_t>(k)] = 1.0;
        sn[static_cast<std::size_t>(k)] = 0.0;
      } else {
        cs[static_cast<std::size_t>(k)] = hkk / denom;  // note: complex cosine
        sn[static_cast<std::size_t>(k)] = hk1k / denom;
      }
      h(static_cast<std::size_t>(k), static_cast<std::size_t>(k)) =
          la::cmul_conj(cs[static_cast<std::size_t>(k)], hkk) +
          la::cmul_conj(sn[static_cast<std::size_t>(k)], hk1k);
      h(static_cast<std::size_t>(k) + 1, static_cast<std::size_t>(k)) = 0.0;
      const cplx gk = g[static_cast<std::size_t>(k)];
      g[static_cast<std::size_t>(k)] =
          la::cmul_conj(cs[static_cast<std::size_t>(k)], gk);
      g[static_cast<std::size_t>(k) + 1] =
          la::cmul(-sn[static_cast<std::size_t>(k)], gk);

      rep.iterations = total_iters + 1;
      rep.relative_residual = std::abs(g[static_cast<std::size_t>(k) + 1]) / bnorm;
      if (opts.record_history) rep.history.push_back(rep.relative_residual);
      if (rep.relative_residual <= opts.tol) {
        ++k;
        break;
      }
    }

    // Back-substitute the k x k triangular system and update y.
    std::vector<cplx> coeff(static_cast<std::size_t>(k));
    for (int i = k - 1; i >= 0; --i) {
      cplx sum = g[static_cast<std::size_t>(i)];
      for (int j = i + 1; j < k; ++j)
        sum -= la::cmul(
            h(static_cast<std::size_t>(i), static_cast<std::size_t>(j)),
            coeff[static_cast<std::size_t>(j)]);
      coeff[static_cast<std::size_t>(i)] =
          sum / h(static_cast<std::size_t>(i), static_cast<std::size_t>(i));
    }
    for (int j = 0; j < k; ++j)
      la::axpy(coeff[static_cast<std::size_t>(j)],
               v.col(static_cast<std::size_t>(j)), y);

    if (rep.converged) return rep;
    if (rep.relative_residual <= opts.tol) {
      rep.converged = true;
      return rep;
    }
  }
  return rep;
}

}  // namespace rsrpa::solver
