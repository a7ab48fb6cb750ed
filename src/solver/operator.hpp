// Operator and report types shared by the Krylov solvers.
//
// The solvers are matrix-free: a coefficient operator is any callable
// applying A to a block of complex vectors. The Sternheimer systems bind
// this to ShiftedHamiltonianOp (the fused single-sweep pipeline over
// Hamiltonian::apply_shifted_block); unit tests bind it to small dense
// matrices.
#pragma once

#include <functional>
#include <vector>

#include "la/matrix.hpp"

namespace rsrpa::ham {
class Hamiltonian;
}  // namespace rsrpa::ham

namespace rsrpa::solver {

using la::cplx;

/// out = A * in for a block of complex vectors (same shapes).
using BlockOpC = std::function<void(const la::Matrix<cplx>&, la::Matrix<cplx>&)>;

struct SolverOptions {
  int max_iter = 1000;
  double tol = 1e-10;             ///< relative Frobenius residual (Eq. 10)
  double breakdown_tol = 1e-14;   ///< pivot-ratio floor for s x s solves
  bool record_history = false;    ///< store per-iteration relative residuals
  /// Stagnation detection: if > 0, COCG throws NumericalBreakdown when the
  /// relative residual fails to improve by stagnation_factor over this
  /// many consecutive iterations, handing control to the recovery ladder
  /// (solver/resilience.hpp) instead of spinning to max_iter. 0 = off.
  int stagnation_window = 0;
  double stagnation_factor = 0.99;  ///< required improvement per window
  /// Per-column cost model of the coefficient operator (bytes moved /
  /// flops per single-vector application). Filled by callers that know
  /// their operator (e.g. from ShiftedHamiltonianOp) so SolveReport can
  /// expose achieved arithmetic intensity; 0 = unknown.
  double matvec_bytes_per_column = 0.0;
  double matvec_flops_per_column = 0.0;
};

struct SolveReport {
  int iterations = 0;
  double relative_residual = 0.0;
  bool converged = false;
  long matvec_columns = 0;  ///< # of single-vector operator applications
  /// Estimated operator traffic/work: the column count times the
  /// per-column cost model in SolverOptions (0 when not provided).
  double matvec_bytes = 0.0;
  double matvec_flops = 0.0;
  std::vector<double> history;  ///< per-iteration relres if recorded
};

/// Fills SolveReport::matvec_bytes/matvec_flops from matvec_columns and
/// the per-column cost model on every exit path (including throws, where
/// the ladder folds partially filled reports). One per solver function.
class MatvecCostScope {
 public:
  MatvecCostScope(SolveReport& rep, const SolverOptions& opts)
      : rep_(rep), opts_(opts) {}
  ~MatvecCostScope() {
    rep_.matvec_bytes = static_cast<double>(rep_.matvec_columns) *
                        opts_.matvec_bytes_per_column;
    rep_.matvec_flops = static_cast<double>(rep_.matvec_columns) *
                        opts_.matvec_flops_per_column;
  }
  MatvecCostScope(const MatvecCostScope&) = delete;
  MatvecCostScope& operator=(const MatvecCostScope&) = delete;

 private:
  SolveReport& rep_;
  const SolverOptions& opts_;
};

/// Totals over the operator applications of one or more solves: the
/// payload of the apply_counters event (DynamicBlockReport::apply_counters).
struct ApplyCounters {
  long applies = 0;    ///< block applications
  long columns = 0;    ///< single-vector applications
  double bytes = 0.0;  ///< estimated bytes moved (cost model x columns)
  double flops = 0.0;  ///< estimated flops (cost model x columns)
  /// Wall time inside the operator, summed over solves (work, not wall
  /// time, when the solves ran concurrently).
  double seconds = 0.0;

  void merge(const ApplyCounters& o) {
    applies += o.applies;
    columns += o.columns;
    bytes += o.bytes;
    flops += o.flops;
    seconds += o.seconds;
  }
  [[nodiscard]] double arithmetic_intensity() const {
    return bytes > 0.0 ? flops / bytes : 0.0;
  }
};

/// Estimated per-column memory traffic and flops of one application of
/// (H - lambda I + i omega I) to a complex vector, for the fused
/// single-sweep pipeline or the seed multi-sweep reference schedule.
/// The sweep counting follows the paper's SS III-C fast-memory model:
/// stencil neighbors hit in cache, so each sweep reads its operands once.
struct ApplyCostModel {
  double bytes_per_column = 0.0;
  double flops_per_column = 0.0;
};

[[nodiscard]] ApplyCostModel shifted_apply_cost(const ham::Hamiltonian& h,
                                                bool fused);

/// The Sternheimer coefficient operator A_{j,k} = H - lambda_j I
/// + i omega_k I as a first-class block operator: chi0 binds this (rather
/// than a per-column lambda) so every solve goes through the fused
/// single-sweep pipeline. Stateless apart from its binding, so concurrent
/// chunk solves share one instance; the solvers count its applications
/// (ChunkRecord::applies). Convertible to BlockOpC by reference capture.
class ShiftedHamiltonianOp {
 public:
  ShiftedHamiltonianOp(const ham::Hamiltonian& h, double lambda, double omega)
      : h_(&h), lambda_(lambda), omega_(omega) {}

  void apply(const la::Matrix<cplx>& in, la::Matrix<cplx>& out) const;
  void operator()(const la::Matrix<cplx>& in, la::Matrix<cplx>& out) const {
    apply(in, out);
  }

  [[nodiscard]] double lambda() const { return lambda_; }
  [[nodiscard]] double omega() const { return omega_; }

 private:
  const ham::Hamiltonian* h_;
  double lambda_ = 0.0;
  double omega_ = 0.0;
};

}  // namespace rsrpa::solver
