#include "par/parallel_rpa.hpp"

#include <algorithm>
#include <utility>

#include "sched/sched.hpp"

namespace rsrpa::par {

ParallelRpaResult run_parallel_rpa(const dft::KsSystem& sys,
                                   const poisson::KroneckerLaplacian& klap,
                                   const ParallelRpaOptions& opts) {
  const std::size_t m = opts.rpa.n_eig;
  const std::size_t p = opts.n_ranks;
  RSRPA_REQUIRE(m >= 1 && p >= 1);
  const ColumnPartition part(m, p);
  const sched::PoolStats sched_before = sched::global_pool().stats();

  // Each rank caps its block size at n_eig / p (paper SS III-D).
  rpa::RpaOptions ropts = opts.rpa;
  if (ropts.stern.max_block == 0 ||
      static_cast<std::size_t>(ropts.stern.max_block) > part.max_block_size())
    ropts.stern.max_block = static_cast<int>(part.max_block_size());

  rpa::QuadratureRun run = rpa::run_quadrature(sys, klap, ropts, p);
  ParallelRpaResult result;
  result.rpa = std::move(run.rpa);
  result.n_ranks = p;
  result.rank_apply_seconds = std::move(run.slices.apply_seconds);
  result.rank_error_seconds = std::move(run.slices.error_seconds);

  // The alpha-beta overlay: modeled parallel wall clock per kernel from
  // the measured slice times and the engine's sequential dense timers.
  double max_apply = 0.0, max_err = 0.0;
  for (std::size_t r = 0; r < p; ++r) {
    max_apply = std::max(max_apply, result.rank_apply_seconds[r]);
    max_err = std::max(max_err, result.rank_error_seconds[r]);
    result.apply_work_seconds +=
        result.rank_apply_seconds[r] + result.rank_error_seconds[r];
  }
  KernelTimers& timers = result.rpa.timers;
  const std::size_t n = sys.n_grid();
  result.modeled.nu_chi0 = max_apply;
  result.modeled.eval_error =
      max_err + static_cast<double>(run.slices.error_checks) *
                    opts.net.allreduce(8 * (m + 1), p);
  result.modeled.matmult =
      opts.net.matmult_time(timers.get(rpa::kernels::kMatmult), n, m, p);
  result.modeled.eigensolve =
      opts.net.eigensolve_time(timers.get(rpa::kernels::kEigensolve), m, p);
  result.modeled_total_seconds = result.modeled.total();

  // The report's timers carry the modeled buckets, not the sequential
  // measurement they were derived from.
  timers.clear();
  timers.add(rpa::kernels::kNuChi0, result.modeled.nu_chi0);
  timers.add(rpa::kernels::kEvalError, result.modeled.eval_error);
  timers.add(rpa::kernels::kMatmult, result.modeled.matmult);
  timers.add(rpa::kernels::kEigensolve, result.modeled.eigensolve);
  result.sched_stats = sched::global_pool().stats().since(sched_before);
  return result;
}

}  // namespace rsrpa::par
