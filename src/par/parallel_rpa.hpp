// Simulated distributed execution of the RPA driver — the entry point
// behind Figs. 4, 5 and 6.
//
// The paper's parallelization (SS III-D) assigns each of p ranks a block
// of n_eig/p eigenvector columns; the Sternheimer stage is embarrassingly
// parallel, while the projected matmults and the dense eigensolve run
// under ScaLAPACK. run_parallel_rpa is the quadrature engine of
// rpa/erpa.hpp (the same loop compute_rpa_energy runs at one slice)
// at p = n_ranks column slices, with each rank's block size capped at
// n_eig / p. The engine EXECUTES each slice as a real concurrent task on
// the sched thread pool (serial in slice order when RSRPA_THREADS=1) and
// TIMES each slice individually — capturing the real load imbalance from
// linear-system difficulty and from the s <= n_eig/p block-size cap.
// On top, this file keeps only the alpha-beta overlay that turns those
// measurements into the parallel wall time per kernel:
//
//   nu_chi0     = max over ranks of measured slice time
//   eval error  = max over ranks + modeled allreduce
//   matmult     = measured sequential time / p + modeled redistribution
//   eigensolve  = measured / min(p, saturation) + modeled latency
//
// This is the substitution documented in DESIGN.md: both efficiency-loss
// mechanisms the paper reports (imbalance, collectives) are represented,
// the first by direct measurement.
#pragma once

#include "par/collective_model.hpp"
#include "par/partition.hpp"
#include "rpa/erpa.hpp"
#include "sched/pool_stats.hpp"

namespace rsrpa::par {

struct ParallelRpaOptions {
  rpa::RpaOptions rpa;
  std::size_t n_ranks = 1;
  CollectiveModel net;
};

/// Modeled parallel wall time split by kernel (Fig. 5 rows).
struct KernelBreakdown {
  double nu_chi0 = 0.0;
  double matmult = 0.0;
  double eigensolve = 0.0;
  double eval_error = 0.0;

  [[nodiscard]] double total() const {
    return nu_chi0 + matmult + eigensolve + eval_error;
  }
};

struct ParallelRpaResult {
  rpa::RpaResult rpa;  ///< energy, per-omega records, Sternheimer stats
  std::size_t n_ranks = 1;
  /// Measured per-rank seconds spent applying the operator (filter +
  /// Rayleigh-Ritz phase vs. convergence-check phase; the latter includes
  /// the rank's share of the Eq. (7) residual norms).
  std::vector<double> rank_apply_seconds;
  std::vector<double> rank_error_seconds;
  KernelBreakdown modeled;
  double modeled_total_seconds = 0.0;
  /// Sum over ranks of all apply work — the "perfectly balanced" baseline
  /// used to quantify load imbalance.
  double apply_work_seconds = 0.0;
  /// Thread-pool activity during this run (tasks, steals, per-worker busy
  /// seconds), delta against the pool's state at run start.
  sched::PoolStats sched_stats;
};

ParallelRpaResult run_parallel_rpa(const dft::KsSystem& sys,
                                   const poisson::KroneckerLaplacian& klap,
                                   const ParallelRpaOptions& opts);

}  // namespace rsrpa::par
