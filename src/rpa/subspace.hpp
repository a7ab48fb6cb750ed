// Subspace iteration with Chebyshev polynomial filtering on the
// symmetrized operator nu^{1/2} chi0(i omega) nu^{1/2} — Algorithm 5 —
// over the column-partitioned block apply of paper SS III-D.
//
// The caller supplies V (in/out): a random block for the first quadrature
// point, the converged eigenvectors of the previous omega afterwards
// (paper SS III-F). Following Algorithm 5, a Rayleigh-Ritz + convergence
// check runs BEFORE any filtering, so an accurate warm start can converge
// with zero filter applications — the "skip polynomial filtering" effect
// visible as ncheb = 0 rows in the artifact log.
#pragma once

#include "rpa/nu_chi0.hpp"

namespace rsrpa::rpa {

/// Measured per-slice seconds of a SlicedApply — the input of the
/// modeled Fig. 5 overlay in par/parallel_rpa.hpp.
struct SliceTimes {
  /// Filter, Rayleigh-Ritz and projection applies of each slice.
  std::vector<double> apply_seconds;
  /// Eq. (7) check applies of each slice plus its share of the residual
  /// norms (each rank evaluates the norms of its own columns).
  std::vector<double> error_seconds;
  long error_checks = 0;  ///< Eq. (7) evaluations, one allreduce each
};

/// The quadrature engine's block apply: nu^{1/2} chi0(i omega) nu^{1/2}
/// on a block split into p contiguous column slices (par::ColumnPartition,
/// the rank decomposition of paper SS III-D). Each slice runs as a
/// sched::TaskGroup task with its own Sternheimer stats and event sinks,
/// merged in slice order after the join, so numbers and telemetry are
/// identical to sequential slice execution at any thread count. At p = 1
/// the whole block goes straight to NuChi0Operator::apply, no slice copy.
///
/// Every apply is timed per slice into times() and books its wall time
/// in `timers`: subspace-phase applies under kernels::kNuChi0, Eq. (7)
/// check applies under kernels::kEvalError. The sinks are optional and
/// not owned.
class SlicedApply {
 public:
  enum Phase { kSubspace, kError };

  SlicedApply(const NuChi0Operator& op, std::size_t slices,
              SternheimerStats* stats, KernelTimers* timers,
              obs::EventLog* events);

  void set_omega(double omega) { omega_ = omega; }
  [[nodiscard]] double omega() const { return omega_; }

  /// out = nu^{1/2} chi0(i omega) nu^{1/2} in at the current omega.
  void operator()(const la::Matrix<double>& in, la::Matrix<double>& out,
                  Phase phase = kSubspace);

  /// Book one Eq. (7) evaluation whose dense residual norms took
  /// `norm_seconds`: kernels::kEvalError in `timers`, an even share in
  /// every slice's error bucket, one error check.
  void charge_error_check(double norm_seconds);

  [[nodiscard]] KernelTimers* timers() const { return timers_; }
  [[nodiscard]] obs::EventLog* events() const { return events_; }
  SliceTimes& times() { return times_; }

 private:
  const NuChi0Operator& op_;
  SternheimerStats* stats_;
  KernelTimers* timers_;
  obs::EventLog* events_;
  double omega_ = 0.0;
  SliceTimes times_;
};

struct SubspaceOptions {
  double tol = 5e-4;         ///< tau_SI for this quadrature point
  int max_filter_iter = 10;  ///< MAXIT_FILTERING
  int cheb_degree = 2;       ///< CHEB_DEGREE_RPA
};

struct SubspaceResult {
  std::vector<double> eigenvalues;  ///< ascending (most negative first)
  int filter_iterations = 0;        ///< "ncheb" — filter passes used
  double error = 0.0;               ///< Eq. (7) at exit
  bool converged = false;
  int eigensolve_collapses = 0;     ///< generalized eigensolve fallbacks
};

/// Run Algorithm 5 at apply.omega(). `v` holds the initial subspace on
/// entry and the converged (orthonormal) eigenvector block on exit.
/// Eigensolve collapses — the filtered block going numerically
/// rank-deficient and forcing the orthonormalize + standard-eigensolve
/// recovery path — are recorded in apply.events().
///
/// Determinism: the Eq. (7) per-column residual norms fan out over the
/// sched pool into disjoint slots and sum serially in ascending column
/// order, so the error — and every filtering decision — is bitwise
/// identical at any thread count.
SubspaceResult subspace_iteration(SlicedApply& apply, la::Matrix<double>& v,
                                  const SubspaceOptions& opts);

/// Algorithm 5 on the whole block (one slice) at frequency `omega`.
SubspaceResult subspace_iteration(const NuChi0Operator& op, double omega,
                                  la::Matrix<double>& v,
                                  const SubspaceOptions& opts,
                                  SternheimerStats* stats = nullptr,
                                  KernelTimers* timers = nullptr,
                                  obs::EventLog* events = nullptr);

}  // namespace rsrpa::rpa
