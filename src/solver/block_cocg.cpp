#include "solver/block_cocg.hpp"

#include <cmath>
#include <cstdio>
#include <functional>
#include <utility>

#include "la/blas.hpp"
#include "la/cmul.hpp"
#include "la/lu.hpp"

namespace rsrpa::solver {

namespace {

bool is_finite(double x) { return std::isfinite(x); }

// Shared stagnation probe (SolverOptions::stagnation_window). Tracks the
// best residual seen; when `window` consecutive iterations fail to improve
// on it by `factor`, the solve is declared broken down so the recovery
// ladder can take over instead of spinning to max_iter. Purely
// observational: it never alters the iteration's numerics.
class StagnationProbe {
 public:
  StagnationProbe(const SolverOptions& opts, double initial_relres)
      : window_(opts.stagnation_window),
        factor_(opts.stagnation_factor),
        best_(initial_relres) {}

  void check(double relres, const char* solver_name) {
    if (window_ <= 0) return;
    if (relres <= factor_ * best_) {
      best_ = relres;
      count_ = 0;
      return;
    }
    if (++count_ >= window_) {
      char msg[128];
      std::snprintf(msg, sizeof msg,
                    "%s: stagnation (relative residual %.3e not improving "
                    "over %d iterations)",
                    solver_name, relres, window_);
      throw NumericalBreakdown(msg);
    }
  }

 private:
  int window_;
  double factor_;
  double best_;
  int count_ = 0;
};

}  // namespace

// Every block and both s x s factorizations are allocated once when the
// solve starts, so an iteration allocates nothing: P is double-buffered,
// rho and rho_new swap, and the LU objects re-factor into their own
// storage.
SolveReport block_cocg(const BlockOpC& a, const la::Matrix<cplx>& b,
                       la::Matrix<cplx>& y, const SolverOptions& opts) {
  const std::size_t n = b.rows(), s = b.cols();
  RSRPA_REQUIRE(y.rows() == n && y.cols() == s && s >= 1);

  SolveReport rep;
  MatvecCostScope cost_scope(rep, opts);
  const double bnorm = la::norm_fro(b);
  if (bnorm == 0.0) {
    y.zero();
    rep.converged = true;
    return rep;
  }

  // W0 = B - A Y0.
  la::Matrix<cplx> w(n, s);
  a(y, w);
  rep.matvec_columns += static_cast<long>(s);
  for (std::size_t j = 0; j < s; ++j)
    for (std::size_t i = 0; i < n; ++i) w(i, j) = b(i, j) - w(i, j);

  la::Matrix<cplx> rho(s, s);
  la::gemm_tn(cplx{1}, w, w, cplx{0}, rho);  // rho_0 = W^T W

  la::Matrix<cplx> p(n, s), pnew(n, s), u(n, s), mu(s, s), alpha(s, s),
      beta(s, s), rho_new(s, s);
  la::Lu<cplx> lu_mu, lu_rho;
  bool have_p = false;  // P_{-1} = 0, beta_{-1} = 0

  rep.relative_residual = la::norm_fro(w) / bnorm;
  if (opts.record_history) rep.history.push_back(rep.relative_residual);
  if (rep.relative_residual <= opts.tol) {
    rep.converged = true;
    return rep;
  }

  // A rank-deficient INITIAL residual block (e.g. linearly dependent
  // right-hand sides) makes the block recurrence ill-posed from the
  // start; callers deflate by falling back to smaller blocks. This is the
  // deflation caveat of block methods the paper notes in SS II.
  if (s > 1) {
    lu_rho.factor(rho);
    if (lu_rho.pivot_ratio() < opts.breakdown_tol)
      throw NumericalBreakdown(
          "block COCG: initial residual block is numerically rank-deficient");
  }

  double prev_relres = rep.relative_residual;
  StagnationProbe stagnation(opts, rep.relative_residual);
  for (int it = 0; it < opts.max_iter; ++it) {
    // P_j = W_j + P_{j-1} beta_{j-1}.
    if (have_p) {
      pnew = w;
      la::gemm_nn(cplx{1}, p, beta, cplx{1}, pnew);
      std::swap(p, pnew);
    } else {
      p = w;
      have_p = true;
    }

    // U_j = A P_j.
    a(p, u);
    rep.matvec_columns += static_cast<long>(s);

    // mu_j = U_j^T P_j (complex symmetric conjugacy matrix).
    la::gemm_tn(cplx{1}, u, p, cplx{0}, mu);

    // alpha_j = mu_j^{-1} rho_j. A tiny pivot ratio in mu is AMBIGUOUS:
    // it signals either a genuine conjugacy breakdown or benign exact
    // termination (the block Krylov space has filled out). Take the step
    // either way and decide from the residual it produces.
    lu_mu.factor(mu);
    const bool mu_suspect = lu_mu.pivot_ratio() < opts.breakdown_tol;
    alpha = rho;
    lu_mu.solve_inplace(alpha);

    // Y_{j+1} = Y_j + P alpha;  W_{j+1} = W_j - U alpha.
    la::gemm_nn(cplx{1}, p, alpha, cplx{1}, y);
    la::gemm_nn(cplx{-1}, u, alpha, cplx{1}, w);

    rep.iterations = it + 1;
    rep.relative_residual = la::norm_fro(w) / bnorm;
    if (opts.record_history) rep.history.push_back(rep.relative_residual);
    if (!is_finite(rep.relative_residual))
      throw NumericalBreakdown("block COCG: non-finite residual");
    if (rep.relative_residual <= opts.tol) {
      rep.converged = true;
      return rep;
    }
    if (mu_suspect && rep.relative_residual >= prev_relres) {
      char msg[128];
      std::snprintf(msg, sizeof msg,
                    "block COCG: conjugacy breakdown (pivot ratio %.3e, "
                    "residual did not decrease at iteration %d)",
                    lu_mu.pivot_ratio(), it);
      throw NumericalBreakdown(msg);
    }
    prev_relres = rep.relative_residual;
    stagnation.check(rep.relative_residual, "block COCG");

    // rho_{j+1} = W^T W;  beta_j = rho_j^{-1} rho_{j+1}.
    la::gemm_tn(cplx{1}, w, w, cplx{0}, rho_new);
    lu_rho.factor(rho);
    beta = rho_new;
    lu_rho.solve_inplace(beta);
    std::swap(rho, rho_new);
  }
  return rep;  // not converged
}

SolveReport cocg(const BlockOpC& a, std::span<const cplx> b, std::span<cplx> y,
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

  // Wrap spans in single-column matrices for the operator interface.
  la::Matrix<cplx> xcol(n, 1), ycol(n, 1);
  auto apply = [&](std::span<const cplx> in, std::span<cplx> out) {
    std::copy(in.begin(), in.end(), xcol.col(0).begin());
    a(xcol, ycol);
    std::copy(ycol.col(0).begin(), ycol.col(0).end(), out.begin());
    rep.matvec_columns += 1;
  };

  std::vector<cplx> w(n), p(n), u(n);
  apply(y, w);
  for (std::size_t i = 0; i < n; ++i) w[i] = b[i] - w[i];
  cplx rho = la::dot_u(w, w);

  rep.relative_residual = la::nrm2(std::span<const cplx>(w)) / bnorm;
  if (opts.record_history) rep.history.push_back(rep.relative_residual);
  if (rep.relative_residual <= opts.tol) {
    rep.converged = true;
    return rep;
  }

  cplx beta{};
  bool have_p = false;
  double prev_relres = rep.relative_residual;
  StagnationProbe stagnation(opts, rep.relative_residual);
  for (int it = 0; it < opts.max_iter; ++it) {
    if (have_p) {
      for (std::size_t i = 0; i < n; ++i) p[i] = w[i] + la::cmul(beta, p[i]);
    } else {
      p.assign(w.begin(), w.end());
      have_p = true;
    }
    apply(p, u);
    const cplx mu = la::dot_u(u, p);
    // A tiny conjugacy scalar is AMBIGUOUS — genuine breakdown or benign
    // exact termination — exactly like a tiny pivot ratio in the block
    // path above. Mirror it: take the step either way and decide from the
    // residual it produces.
    const bool mu_suspect =
        std::abs(mu) < opts.breakdown_tol *
                           la::nrm2(std::span<const cplx>(u)) *
                           la::nrm2(std::span<const cplx>(p));
    const cplx alpha = rho / mu;
    for (std::size_t i = 0; i < n; ++i) {
      y[i] += la::cmul(alpha, p[i]);
      w[i] -= la::cmul(alpha, u[i]);
    }
    rep.iterations = it + 1;
    rep.relative_residual = la::nrm2(std::span<const cplx>(w)) / bnorm;
    if (opts.record_history) rep.history.push_back(rep.relative_residual);
    if (!std::isfinite(rep.relative_residual))
      throw NumericalBreakdown("COCG: non-finite residual");
    if (rep.relative_residual <= opts.tol) {
      rep.converged = true;
      return rep;
    }
    if (mu_suspect && rep.relative_residual >= prev_relres) {
      char msg[128];
      std::snprintf(msg, sizeof msg,
                    "COCG: conjugacy breakdown (|mu| = %.3e, residual did "
                    "not decrease at iteration %d)",
                    std::abs(mu), it);
      throw NumericalBreakdown(msg);
    }
    prev_relres = rep.relative_residual;
    stagnation.check(rep.relative_residual, "COCG");
    const cplx rho_new = la::dot_u(w, w);
    beta = rho_new / rho;
    rho = rho_new;
  }
  return rep;
}

}  // namespace rsrpa::solver
