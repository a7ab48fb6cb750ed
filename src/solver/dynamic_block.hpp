// Dynamic block size selection — Algorithm 4 of the paper.
//
// Each processor solves its batch of right-hand sides for one Sternheimer
// coefficient matrix by probing block sizes in powers of two: as long as
// doubling the block size at most doubles the per-chunk time (i.e. does
// not increase the per-vector time), keep doubling; otherwise halve once
// and solve the remaining systems at that size. Larger blocks buy fewer
// iterations on hard systems at the price of O(n s^2) matmult work — this
// probe finds the break-even point online, per (j, k) pair, without any
// a-priori model (paper SS III-E).
//
// Every chunk is an independent block Sternheimer system (paper SS III-D),
// so the chunks after the probe — every chunk of a fixed-block run — are
// solved concurrently on the global pool, one task per chunk. Each chunk
// fills its own record, totals and event log, and these fold into the
// report in chunk order after the join, so the report, the quarantine
// list and the events are identical at every lane count. The probe itself
// stays serial: it times single chunks.
//
// The per-chunk records are what the Table IV bench histograms.
#pragma once

#include <map>
#include <vector>

#include "solver/operator.hpp"
#include "solver/resilience.hpp"

namespace rsrpa::obs {
class EventLog;
}  // namespace rsrpa::obs

namespace rsrpa::solver {

struct ChunkRecord {
  int block_size = 0;
  int n_rhs = 0;        ///< columns actually solved (may be < block_size at the tail)
  int iterations = 0;
  long matvec_columns = 0;  ///< single-column operator applications
  long applies = 0;  ///< block operator applications
  double apply_seconds = 0.0;  ///< wall time inside the operator
  double seconds = 0.0;
  bool converged = false;
  bool fallback = false;  ///< recovery ladder engaged below the block solve
  // Recovery-ladder accounting (solver/resilience.hpp), per chunk.
  int restarts = 0;      ///< rung-1 residual-replacement restarts
  int deflations = 0;    ///< rung-2 block halvings
  int solver_swaps = 0;  ///< rung-3 alternative-solver attempts
  int quarantined = 0;   ///< rung-4 columns given up on

  /// True when any rung of the recovery ladder fired. Recovered chunks
  /// report the wall time of the recovery work, not of a representative
  /// block solve, so Algorithm 4 excludes them from its timing probes.
  [[nodiscard]] bool recovered() const {
    return fallback || restarts > 0 || deflations > 0 || solver_swaps > 0 ||
           quarantined > 0;
  }
};

struct DynamicBlockReport {
  std::vector<ChunkRecord> chunks;
  long total_matvec_columns = 0;
  /// Estimated operator traffic/work over all chunks (matvec columns
  /// times the SolverOptions per-column cost model; 0 when no model).
  double total_matvec_bytes = 0.0;
  double total_matvec_flops = 0.0;
  long total_applies = 0;
  /// Chunk times summed over chunks: with chunks solved concurrently this
  /// is work, not wall time (likewise total_apply_seconds).
  double total_seconds = 0.0;
  double total_apply_seconds = 0.0;
  bool all_converged = true;
  // Recovery-ladder totals over all chunks.
  long total_restarts = 0;
  long total_deflations = 0;
  long total_solver_swaps = 0;
  /// Global column indices quarantined by rung 4 (empty on clean runs).
  std::vector<long> quarantined_columns;

  /// Table IV histogram: chunk count per selected block size.
  [[nodiscard]] std::map<int, int> block_size_counts() const;
  /// The operator telemetry of this solve (the apply_counters payload).
  [[nodiscard]] ApplyCounters apply_counters() const;
};

struct DynamicBlockOptions {
  SolverOptions solver;
  int max_block = 0;  ///< 0 = unlimited; paper caps at n_eig / p
  bool enabled = true;  ///< false = fixed block size fixed_block
  int fixed_block = 1;
  /// Breakdown-recovery ladder policy (restart -> deflate -> swap ->
  /// quarantine). resilience.enabled = false restores the legacy behavior
  /// where an unrecovered breakdown propagates out of the solve.
  ResilienceOptions resilience;
  /// Deterministic fault injection (tests / chaos drills). mode = kNone
  /// leaves the operator unwrapped; otherwise every chunk solve installs
  /// its own FaultInjectingOp, seeded from fault.seed and the chunk's
  /// first column, so at_apply / period / max_faults count within one
  /// chunk and fault placement never depends on the schedule.
  FaultInjectionOptions fault;
  /// Optional event sink: recovery-ladder events (breakdowns, restarts,
  /// deflations, solver swaps, quarantines) are recorded here with their
  /// chunk position and size. Not owned.
  obs::EventLog* events = nullptr;
};

/// Solve A Y = B for all columns of B, choosing block sizes per
/// Algorithm 4. `y` carries initial guesses in, solutions out. `a` is
/// called concurrently from several chunk solves, so it must be safe to
/// call from several threads at once.
DynamicBlockReport solve_dynamic_block(const BlockOpC& a,
                                       const la::Matrix<cplx>& b,
                                       la::Matrix<cplx>& y,
                                       const DynamicBlockOptions& opts);

}  // namespace rsrpa::solver
