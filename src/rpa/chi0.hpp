// Matrix-free application of the irreducible polarizability chi0(i omega).
//
// The two-step procedure of paper Eqs. (4)-(5) in block form (Eq. 6):
// for each occupied orbital j, solve the block Sternheimer system
//
//   (H - lambda_j I + i omega I) Y_j = -(V . Psi_j)     (Hadamard RHS)
//
// with block COCG under dynamic block-size selection (Algorithms 3+4) and
// the Galerkin initial guess (Eq. 13), then accumulate
//
//   chi0 V = (4 / dv) Re sum_j Psi_j . Y_j.
//
// The 1/dv converts the grid-orthonormal orbital convention into the
// continuum polarizability operator, so the spectrum of nu chi0 is the
// physical (dimensionless) one of paper Fig. 1.
#pragma once

#include <map>
#include <optional>

#include "common/timer.hpp"
#include "dft/ks_system.hpp"
#include "solver/dynamic_block.hpp"

namespace rsrpa::rpa {

struct SternheimerOptions {
  double tol = 1e-2;          ///< TOL_STERN_RES of the artifact input
  int max_iter = 1000;
  bool dynamic_block = true;  ///< Algorithm 4 on/off (ablation A3/Table IV)
  int fixed_block = 1;        ///< used when dynamic_block is false
  int max_block = 0;          ///< n_eig / p cap; 0 = unlimited
  bool galerkin_guess = true; ///< Eq. (13) on/off (ablation A3)
  /// Breakdown-recovery ladder policy for every block solve
  /// (solver/resilience.hpp): restart -> deflate -> swap -> quarantine.
  solver::ResilienceOptions resilience;
  /// Deterministic fault injection into the Sternheimer operator (tests /
  /// chaos drills). mode = kNone leaves the operator unwrapped; otherwise
  /// every chunk solve of the targeted orbitals installs its own
  /// FaultInjectingOp (DynamicBlockOptions::fault), seeded from fault.seed,
  /// the orbital index and the chunk's first column, so at_apply / period
  /// / max_faults count within one chunk solve and results are bitwise
  /// reproducible at any thread count.
  solver::FaultInjectionOptions fault;
  /// Stagnation detection handed to the solvers: breakdown when the
  /// residual fails to improve over this many iterations (0 = off).
  int stagnation_window = 0;
  double stagnation_factor = 0.99;
  /// Optional telemetry sink threaded down to the dynamic-block solver;
  /// the RPA drivers point it at their result's event log. Not owned.
  obs::EventLog* events = nullptr;
};

/// Accumulated statistics over Sternheimer solves (feeds Table IV and the
/// load-balance analysis of Figs. 4/5).
struct SternheimerStats {
  std::map<int, int> block_size_chunks;  ///< Table IV histogram
  long total_chunks = 0;
  long matvec_columns = 0;  ///< single-vector applications
  /// Estimated operator traffic/work over all solves (the per-column cost
  /// model of the bound ShiftedHamiltonianOp times matvec_columns), so
  /// run reports expose achieved arithmetic intensity per quadrature
  /// point: matvec_flops / matvec_bytes.
  double matvec_bytes = 0.0;
  double matvec_flops = 0.0;
  /// Chunk solve times summed over chunks. The chunks after Algorithm 4's
  /// probe run concurrently, so this is work, not wall time.
  double seconds = 0.0;
  bool all_converged = true;
  // Recovery-ladder totals (solver/resilience.hpp).
  long restarts = 0;
  long deflations = 0;
  long solver_swaps = 0;
  long quarantined_columns = 0;
  /// Column indices (in the frame of the block handed to the operator —
  /// i.e. positions in the driver's subspace V) that rung 4 gave up on,
  /// in quarantine order. Indices can repeat when the same column fails
  /// for several occupied orbitals or applies; consumers deduplicate.
  /// The warm-start chain uses the per-point delta of this list to
  /// re-randomize poisoned columns before the next quadrature point.
  std::vector<long> quarantined_column_indices;

  void merge(const solver::DynamicBlockReport& rep);
  /// Merge another stats object; `col0` shifts its quarantined column
  /// indices into this object's column frame (the slice offset when
  /// SlicedApply merges its column slices).
  void merge(const SternheimerStats& other, long col0 = 0);
};

class Chi0Applier {
 public:
  Chi0Applier(const dft::KsSystem& sys, SternheimerOptions opts);

  /// out = chi0(i omega) * v for a block of real vectors. `stats`
  /// (optional) accumulates solver statistics. `events` (optional)
  /// overrides the options-level event sink for this call — concurrent
  /// callers (the slice tasks of rpa::SlicedApply) pass per-task logs here
  /// because EventLog itself is single-owner.
  void apply(const la::Matrix<double>& v, la::Matrix<double>& out,
             double omega, SternheimerStats* stats = nullptr,
             obs::EventLog* events = nullptr) const;

  [[nodiscard]] const dft::KsSystem& system() const { return sys_; }
  [[nodiscard]] const SternheimerOptions& options() const { return opts_; }
  SternheimerOptions& options() { return opts_; }

 private:
  const dft::KsSystem& sys_;
  SternheimerOptions opts_;
};

}  // namespace rsrpa::rpa
