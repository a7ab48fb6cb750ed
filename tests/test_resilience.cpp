// Tests for the breakdown-recovery ladder (solver/resilience.hpp): the
// deterministic fault-injection harness, each rung of the ladder in
// escalation order (restart -> deflation -> solver swap -> quarantine),
// report invariants under injected faults, and the end-to-end drill that
// a fault at one quadrature point degrades — never aborts — a full RPA
// run. Labeled `resilience` in ctest so the suite can be run alone under
// -DRSRPA_SANITIZE=address / =thread builds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "la/blas.hpp"
#include "la/lu.hpp"
#include "obs/event_log.hpp"
#include "par/parallel_rpa.hpp"
#include "rpa/erpa.hpp"
#include "rpa/presets.hpp"
#include "sched/task_group.hpp"
#include "sched/thread_pool.hpp"
#include "solver/block_cocg.hpp"
#include "solver/dynamic_block.hpp"
#include "solver/resilience.hpp"

namespace rsrpa::solver {
namespace {

using la::cplx;
using la::Matrix;

Matrix<cplx> random_complex_symmetric(std::size_t n, Rng& rng,
                                      cplx diag_shift) {
  Matrix<cplx> a(n, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i <= j; ++i) {
      const cplx v{rng.uniform(-1, 1), rng.uniform(-1, 1)};
      a(i, j) = v;
      a(j, i) = v;
    }
  for (std::size_t i = 0; i < n; ++i) a(i, i) += diag_shift;
  return a;
}

BlockOpC dense_op(const Matrix<cplx>& a) {
  return [&a](const Matrix<cplx>& in, Matrix<cplx>& out) {
    la::gemm_nn(cplx{1}, a, in, cplx{0}, out);
  };
}

Matrix<cplx> random_cblock(std::size_t n, std::size_t s, Rng& rng) {
  Matrix<cplx> b(n, s);
  for (std::size_t j = 0; j < s; ++j)
    for (std::size_t i = 0; i < n; ++i)
      b(i, j) = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return b;
}

double block_error(const Matrix<cplx>& a, const Matrix<cplx>& b) {
  double e = 0.0;
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i)
      e = std::max(e, std::abs(a(i, j) - b(i, j)));
  return e;
}

bool block_finite(const Matrix<cplx>& m) {
  for (std::size_t j = 0; j < m.cols(); ++j)
    for (std::size_t i = 0; i < m.rows(); ++i)
      if (!std::isfinite(m(i, j).real()) || !std::isfinite(m(i, j).imag()))
        return false;
  return true;
}

// ---------------------------------------------------------------------------
// FaultInjectingOp: the deterministic chaos harness itself.

TEST(FaultInjection, ModeParsing) {
  EXPECT_EQ(fault_mode_from_string(""), FaultMode::kNone);
  EXPECT_EQ(fault_mode_from_string("none"), FaultMode::kNone);
  EXPECT_EQ(fault_mode_from_string("off"), FaultMode::kNone);
  EXPECT_EQ(fault_mode_from_string("nan"), FaultMode::kNanMatvec);
  EXPECT_EQ(fault_mode_from_string("perturb"), FaultMode::kPerturbMatvec);
  EXPECT_EQ(fault_mode_from_string("zero"), FaultMode::kZeroMatvec);
  EXPECT_THROW(fault_mode_from_string("bogus"), Error);
}

TEST(FaultModeScope, SelectsPerPointAndRestoresOnExit) {
  FaultMode slot = FaultMode::kNanMatvec;
  {
    FaultModeScope scope(slot);
    EXPECT_EQ(scope.requested(), FaultMode::kNanMatvec);
    scope.select_for_point(1, 0);  // fault pinned to point 0: disarmed
    EXPECT_EQ(slot, FaultMode::kNone);
    scope.select_for_point(0, 0);  // the targeted point: armed
    EXPECT_EQ(slot, FaultMode::kNanMatvec);
    scope.select_for_point(5, -1);  // -1 targets every point
    EXPECT_EQ(slot, FaultMode::kNanMatvec);
    scope.select_for_point(2, 0);
    EXPECT_EQ(slot, FaultMode::kNone);
  }
  // Regression: the drivers used to leave the live operator at whatever
  // the last point selected; the guard must restore the requested mode.
  EXPECT_EQ(slot, FaultMode::kNanMatvec);
}

TEST(FaultModeScope, RestoresOnTheExceptionPath) {
  FaultMode slot = FaultMode::kZeroMatvec;
  try {
    FaultModeScope scope(slot);
    scope.select_for_point(3, 0);
    EXPECT_EQ(slot, FaultMode::kNone);
    throw std::runtime_error("simulated crash mid-sweep");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(slot, FaultMode::kZeroMatvec);
}

TEST(FaultInjection, OneShotFaultFiresAtConfiguredApply) {
  Rng rng(11);
  Matrix<cplx> a = random_complex_symmetric(8, rng, cplx{6.0, 1.0});
  FaultInjectionOptions fopts;
  fopts.mode = FaultMode::kNanMatvec;
  fopts.at_apply = 2;
  fopts.max_faults = 1;
  FaultInjectingOp op(dense_op(a), fopts);

  Matrix<cplx> in = random_cblock(8, 1, rng), out(8, 1);
  for (long idx = 0; idx < 5; ++idx) {
    op(in, out);
    EXPECT_EQ(block_finite(out), idx != 2) << "apply " << idx;
  }
  EXPECT_EQ(op.applies(), 5);
  EXPECT_EQ(op.faults_injected(), 1);
}

TEST(FaultInjection, PeriodicFaultsRespectBudget) {
  Rng rng(12);
  Matrix<cplx> a = random_complex_symmetric(6, rng, cplx{6.0, 1.0});
  FaultInjectionOptions fopts;
  fopts.mode = FaultMode::kZeroMatvec;
  fopts.at_apply = 0;
  fopts.period = 2;
  fopts.max_faults = 3;
  FaultInjectingOp op(dense_op(a), fopts);

  Matrix<cplx> in = random_cblock(6, 1, rng), out(6, 1);
  int zeroed = 0;
  for (long idx = 0; idx < 7; ++idx) {
    op(in, out);
    const bool is_zero = la::norm_fro(out) == 0.0;
    if (is_zero) ++zeroed;
    // Fires at applies 0, 2, 4 then the budget is spent.
    EXPECT_EQ(is_zero, idx % 2 == 0 && idx <= 4) << "apply " << idx;
  }
  EXPECT_EQ(zeroed, 3);
  EXPECT_EQ(op.faults_injected(), 3);
}

TEST(FaultInjection, PerturbationIsDeterministicInSeed) {
  Rng rng(13);
  Matrix<cplx> a = random_complex_symmetric(6, rng, cplx{6.0, 1.0});
  Matrix<cplx> in = random_cblock(6, 2, rng);

  auto run = [&](std::uint64_t seed) {
    FaultInjectionOptions fopts;
    fopts.mode = FaultMode::kPerturbMatvec;
    fopts.at_apply = 0;
    fopts.max_faults = 1;
    fopts.seed = seed;
    FaultInjectingOp op(dense_op(a), fopts);
    Matrix<cplx> out(6, 2);
    op(in, out);
    return out;
  };

  Matrix<cplx> first = run(42), again = run(42), other = run(43);
  EXPECT_EQ(block_error(first, again), 0.0);  // bitwise reproducible
  EXPECT_GT(block_error(first, other), 0.0);
}

TEST(FaultInjection, CopiesShareTheApplyCounter) {
  Rng rng(14);
  Matrix<cplx> a = random_complex_symmetric(5, rng, cplx{6.0, 1.0});
  FaultInjectionOptions fopts;
  fopts.mode = FaultMode::kNanMatvec;
  fopts.at_apply = 1;
  FaultInjectingOp op(dense_op(a), fopts);
  FaultInjectingOp copy = op;  // BlockOpC copies the callable

  Matrix<cplx> in = random_cblock(5, 1, rng), out(5, 1);
  op(in, out);
  copy(in, out);  // apply index 1: the copy must see the shared counter
  EXPECT_FALSE(block_finite(out));
  EXPECT_EQ(op.applies(), 2);
  EXPECT_EQ(copy.faults_injected(), 1);
}

TEST(FaultInjection, ConcurrentCallersNeverOverdrawTheBudget) {
  Rng rng(15);
  Matrix<cplx> a = random_complex_symmetric(5, rng, cplx{6.0, 1.0});
  FaultInjectionOptions fopts;
  fopts.mode = FaultMode::kZeroMatvec;
  fopts.at_apply = 0;
  fopts.period = 1;
  fopts.max_faults = 50;
  FaultInjectingOp op(dense_op(a), fopts);
  const Matrix<cplx> in = random_cblock(5, 1, rng);

  sched::TaskGroup group;
  for (int t = 0; t < 4; ++t)
    group.run([&] {
      Matrix<cplx> out(5, 1);
      for (int k = 0; k < 100; ++k) op(in, out);
    });
  group.wait();
  EXPECT_EQ(op.applies(), 400);
  EXPECT_EQ(op.faults_injected(), 50);
}

// ---------------------------------------------------------------------------
// Non-finite contract of the plain complex products (la/cmul.hpp). They
// drop C99 Annex G's infinity recovery, so check that a NaN or an
// infinity in one operator output still makes the block-COCG residual
// non-finite, and that the ladder still recovers from it.

// The dense operator, with out(0, 0) overwritten by `bad` on block apply
// `at` (0-based, counted in `applies`).
BlockOpC poisoned_op(const Matrix<cplx>& a, cplx bad, long at,
                     std::shared_ptr<long> applies) {
  return [&a, bad, at, applies](const Matrix<cplx>& in, Matrix<cplx>& out) {
    la::gemm_nn(cplx{1}, a, in, cplx{0}, out);
    if ((*applies)++ == at) out(0, 0) = bad;
  };
}

const cplx kPoisons[] = {
    {std::numeric_limits<double>::quiet_NaN(), 0.0},
    {std::numeric_limits<double>::infinity(), 0.0},
    {-std::numeric_limits<double>::infinity(), 0.0},
    {0.0, std::numeric_limits<double>::infinity()},
};

TEST(NonFiniteContract, PoisonedMatvecMakesTheResidualNonFinite) {
  for (const std::size_t s : {std::size_t{1}, std::size_t{8}}) {
    for (const cplx bad : kPoisons) {
      SCOPED_TRACE("s=" + std::to_string(s) + " poison=(" +
                   std::to_string(bad.real()) + "," +
                   std::to_string(bad.imag()) + ")");
      Rng rng(31);
      const std::size_t n = 40;
      Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{8.0, 2.0});
      Matrix<cplx> b = random_cblock(n, s, rng);
      Matrix<cplx> y(n, s);
      SolverOptions sopts;
      sopts.tol = 1e-10;
      try {
        // Apply 1 is the first iteration's U = A P.
        block_cocg(poisoned_op(a, bad, 1, std::make_shared<long>(0)), b, y,
                   sopts);
        ADD_FAILURE() << "the solve did not break down";
      } catch (const NumericalBreakdown& e) {
        EXPECT_STREQ(e.what(), "block COCG: non-finite residual");
      }
    }
  }
}

TEST(NonFiniteContract, NonFiniteMatvecStillEngagesTheLadder) {
  for (const cplx bad : kPoisons) {
    Rng rng(32);
    const std::size_t n = 40, s = 8;
    Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{8.0, 2.0});
    Matrix<cplx> b = random_cblock(n, s, rng);
    Matrix<cplx> y(n, s);
    SolverOptions sopts;
    sopts.tol = 1e-10;
    obs::EventLog events;
    ResilientSolveResult r = resilient_block_solve(
        poisoned_op(a, bad, 1, std::make_shared<long>(0)), b, y, sopts,
        ResilienceOptions{}, 0, &events);
    EXPECT_TRUE(r.report.converged);
    EXPECT_EQ(r.restarts, 1);
    EXPECT_TRUE(r.quarantined.empty());
    EXPECT_EQ(events.count(obs::events::kSolverBreakdown), 1u);
    EXPECT_TRUE(block_finite(y));
    EXPECT_LT(block_error(y, la::lu_solve(a, b)), 1e-7);
  }
}

// ---------------------------------------------------------------------------
// The ladder, rung by rung.

TEST(ResilienceLadder, TransientNanFaultRecoversWithOneRestart) {
  Rng rng(21);
  const std::size_t n = 30, s = 4;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{8.0, 2.0});
  Matrix<cplx> b = random_cblock(n, s, rng);
  Matrix<cplx> y(n, s);

  FaultInjectionOptions fopts;
  fopts.mode = FaultMode::kNanMatvec;
  fopts.at_apply = 1;  // poison the first iteration's block matvec
  fopts.max_faults = 1;
  FaultInjectingOp op(dense_op(a), fopts);

  SolverOptions sopts;
  sopts.tol = 1e-10;
  obs::EventLog events;
  ResilientSolveResult r =
      resilient_block_solve(op, b, y, sopts, ResilienceOptions{}, 0, &events);

  EXPECT_TRUE(r.report.converged);
  EXPECT_EQ(r.restarts, 1);
  EXPECT_EQ(r.deflations, 0);
  EXPECT_EQ(r.solver_swaps, 0);
  EXPECT_TRUE(r.quarantined.empty());
  EXPECT_EQ(events.count(obs::events::kSolverBreakdown), 1u);
  EXPECT_EQ(events.count(obs::events::kSolverRestart), 1u);
  EXPECT_LT(block_error(y, la::lu_solve(a, b)), 1e-7);
}

TEST(ResilienceLadder, DependentColumnsDeflateToSingles) {
  Rng rng(22);
  const std::size_t n = 24;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{8.0, 2.0});
  Matrix<cplx> b = random_cblock(n, 2, rng);
  for (std::size_t i = 0; i < n; ++i) b(i, 1) = b(i, 0);  // rank-1 block
  Matrix<cplx> y(n, 2);

  SolverOptions sopts;
  sopts.tol = 1e-10;
  obs::EventLog events;
  ResilientSolveResult r = resilient_block_solve(
      dense_op(a), b, y, sopts, ResilienceOptions{}, 0, &events);

  EXPECT_TRUE(r.report.converged);
  // The initial rank check touches nothing, so no restart is spent on it.
  EXPECT_EQ(r.restarts, 0);
  EXPECT_EQ(r.deflations, 1);
  EXPECT_EQ(r.solver_swaps, 0);
  EXPECT_TRUE(r.quarantined.empty());
  EXPECT_EQ(events.count(obs::events::kBlockDeflation), 1u);
  EXPECT_LT(block_error(y, la::lu_solve(a, b)), 1e-7);
}

TEST(ResilienceLadder, QuasiNullColumnEscalatesToGmres) {
  // A = diag(1, 1, 2), b = (1, i, 1): after one COCG step the residual is
  // a genuine quasi-null vector (w^T w = 0, w != 0) — the bilinear-form
  // family (COCG restart, COCR, symmetric QMR) all break down and only
  // GMRES, with its Hermitian inner product, can finish the column.
  Matrix<cplx> a(3, 3);
  a(0, 0) = cplx{1.0, 0.0};
  a(1, 1) = cplx{1.0, 0.0};
  a(2, 2) = cplx{2.0, 0.0};
  Matrix<cplx> b(3, 1);
  b(0, 0) = cplx{1.0, 0.0};
  b(1, 0) = cplx{0.0, 1.0};
  b(2, 0) = cplx{1.0, 0.0};
  Matrix<cplx> y(3, 1);

  SolverOptions sopts;
  sopts.tol = 1e-10;
  obs::EventLog events;
  ResilientSolveResult r = resilient_block_solve(
      dense_op(a), b, y, sopts, ResilienceOptions{}, 0, &events);

  EXPECT_TRUE(r.report.converged);
  EXPECT_EQ(r.restarts, 1);    // the first breakdown had made progress
  EXPECT_EQ(r.deflations, 0);  // single column: nothing to halve
  EXPECT_EQ(r.solver_swaps, 3);
  EXPECT_TRUE(r.quarantined.empty());
  EXPECT_EQ(events.count(obs::events::kSolverRestart), 1u);
  EXPECT_EQ(events.count(obs::events::kSolverSwap), 3u);
  EXPECT_NEAR(std::abs(y(0, 0) - cplx{1.0, 0.0}), 0.0, 1e-8);
  EXPECT_NEAR(std::abs(y(1, 0) - cplx{0.0, 1.0}), 0.0, 1e-8);
  EXPECT_NEAR(std::abs(y(2, 0) - cplx{0.5, 0.0}), 0.0, 1e-8);
}

TEST(ResilienceLadder, PersistentZeroFaultQuarantinesAllColumns) {
  Rng rng(23);
  const std::size_t n = 16, s = 2;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{8.0, 2.0});
  Matrix<cplx> b = random_cblock(n, s, rng);
  Matrix<cplx> guess = random_cblock(n, s, rng);
  Matrix<cplx> y = guess;

  FaultInjectionOptions fopts;
  fopts.mode = FaultMode::kZeroMatvec;
  fopts.at_apply = 0;
  fopts.period = 1;  // every single apply
  fopts.max_faults = 1 << 30;
  FaultInjectingOp op(dense_op(a), fopts);

  SolverOptions sopts;
  sopts.tol = 1e-10;
  obs::EventLog events;
  ResilientSolveResult r =
      resilient_block_solve(op, b, y, sopts, ResilienceOptions{},
                            /*col0=*/3, &events);

  EXPECT_FALSE(r.report.converged);
  ASSERT_EQ(r.quarantined.size(), 2u);
  EXPECT_EQ(r.quarantined[0], 3);  // global indices, offset by col0
  EXPECT_EQ(r.quarantined[1], 4);
  EXPECT_EQ(r.deflations, 1);
  EXPECT_EQ(r.solver_swaps, 6);  // three per surviving column
  EXPECT_EQ(events.count(obs::events::kColumnQuarantine), 2u);
  // Quarantined columns come back as the entry guess, bit for bit: the
  // only iterate still trusted, and finite by construction.
  EXPECT_EQ(block_error(y, guess), 0.0);
  // Failed attempts still cost matvecs and must be accounted.
  EXPECT_GT(r.report.matvec_columns, 0);
}

TEST(ResilienceLadder, DisabledPolicyPropagatesBreakdown) {
  Rng rng(24);
  const std::size_t n = 12;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{8.0, 2.0});
  Matrix<cplx> b = random_cblock(n, 2, rng);
  for (std::size_t i = 0; i < n; ++i) b(i, 1) = b(i, 0);
  Matrix<cplx> y(n, 2);

  SolverOptions sopts;
  ResilienceOptions ropts;
  ropts.enabled = false;  // legacy behavior: breakdowns escape
  EXPECT_THROW(resilient_block_solve(dense_op(a), b, y, sopts, ropts),
               NumericalBreakdown);
}

// Every matvec perturbed by absolute noise: the residual cannot drop
// below the noise floor, so a tolerance beneath it produces a genuine
// plateau for the stagnation probe to catch.
FaultInjectingOp noisy_op(const Matrix<cplx>& a) {
  FaultInjectionOptions fopts;
  fopts.mode = FaultMode::kPerturbMatvec;
  fopts.at_apply = 0;
  fopts.period = 1;
  fopts.max_faults = 1 << 30;
  fopts.magnitude = 1e-4;
  return FaultInjectingOp(dense_op(a), fopts);
}

TEST(ResilienceLadder, StagnationThrowsFromTheBareSolver) {
  Rng rng(25);
  const std::size_t n = 12;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{8.0, 2.0});
  Matrix<cplx> b = random_cblock(n, 1, rng);
  Matrix<cplx> y(n, 1);

  SolverOptions sopts;
  sopts.tol = 1e-10;  // below the 1e-4 noise floor: unreachable
  sopts.max_iter = 200;
  sopts.stagnation_window = 10;
  EXPECT_THROW(block_cocg(noisy_op(a), b, y, sopts), NumericalBreakdown);

  // Window off: the same plateau just runs to max_iter, no breakdown.
  sopts.stagnation_window = 0;
  Matrix<cplx> y2(n, 1);
  SolveReport rep = block_cocg(noisy_op(a), b, y2, sopts);
  EXPECT_FALSE(rep.converged);
}

TEST(ResilienceLadder, StagnationRoutesIntoLadder) {
  Rng rng(25);
  const std::size_t n = 12;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{8.0, 2.0});
  Matrix<cplx> b = random_cblock(n, 1, rng);
  Matrix<cplx> y(n, 1);

  SolverOptions sopts;
  sopts.tol = 1e-10;  // below the 1e-4 noise floor: unreachable
  sopts.max_iter = 200;
  sopts.stagnation_window = 10;
  // Swap rung off so the escalation path is fully pinned: the stagnation
  // breakdown costs the restart budget, stalls again, and quarantines.
  ResilienceOptions ropts;
  ropts.solver_swap = false;
  obs::EventLog events;
  ResilientSolveResult r =
      resilient_block_solve(noisy_op(a), b, y, sopts, ropts, 0, &events);

  EXPECT_FALSE(r.report.converged);
  EXPECT_EQ(r.restarts, 1);
  EXPECT_EQ(r.solver_swaps, 0);
  ASSERT_EQ(r.quarantined.size(), 1u);
  EXPECT_EQ(r.quarantined[0], 0);
  EXPECT_GE(events.count(obs::events::kSolverBreakdown), 2u);
  EXPECT_EQ(events.count(obs::events::kSolverRestart), 1u);
  EXPECT_TRUE(block_finite(y));
}

// ---------------------------------------------------------------------------
// Algorithm 4 under faults: recovered chunks never feed the timing probe,
// and the probe retries at the same size after a poisoned chunk.

TEST(DynamicBlockResilience, PoisonedProbeChunkIsRetried) {
  Rng rng(31);
  const std::size_t n = 40, n_rhs = 12;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{8.0, 2.0});
  Matrix<cplx> b = random_cblock(n, n_rhs, rng);
  Matrix<cplx> y(n, n_rhs);

  FaultInjectionOptions fopts;
  fopts.mode = FaultMode::kNanMatvec;
  fopts.at_apply = 1;  // hits the very first s = 1 probe chunk
  fopts.max_faults = 1;
  FaultInjectingOp op(dense_op(a), fopts);

  DynamicBlockOptions opts;
  opts.solver.tol = 1e-10;
  obs::EventLog events;
  opts.events = &events;
  DynamicBlockReport rep = solve_dynamic_block(op, b, y, opts);

  EXPECT_TRUE(rep.all_converged);
  EXPECT_EQ(rep.total_restarts, 1);
  EXPECT_TRUE(rep.quarantined_columns.empty());
  ASSERT_GE(rep.chunks.size(), 2u);
  // Chunk 0 recovered via restart, so it cannot anchor the probe; chunk 1
  // re-probes at the same size s = 1.
  EXPECT_EQ(rep.chunks[0].block_size, 1);
  EXPECT_EQ(rep.chunks[0].restarts, 1);
  EXPECT_TRUE(rep.chunks[0].recovered());
  EXPECT_EQ(rep.chunks[1].block_size, 1);
  EXPECT_FALSE(rep.chunks[1].recovered());
  EXPECT_EQ(events.count(obs::events::kSolverRestart), 1u);
  EXPECT_LT(block_error(y, la::lu_solve(a, b)), 1e-7);
}

TEST(DynamicBlockResilience, AllChunksQuarantinedStillCoversEveryColumn) {
  Rng rng(32);
  const std::size_t n = 20, n_rhs = 5;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{8.0, 2.0});
  Matrix<cplx> b = random_cblock(n, n_rhs, rng);
  Matrix<cplx> y(n, n_rhs);

  FaultInjectionOptions fopts;
  fopts.mode = FaultMode::kZeroMatvec;
  fopts.at_apply = 0;
  fopts.period = 1;
  fopts.max_faults = 1 << 30;
  FaultInjectingOp op(dense_op(a), fopts);

  DynamicBlockOptions opts;
  obs::EventLog events;
  opts.events = &events;
  DynamicBlockReport rep = solve_dynamic_block(op, b, y, opts);

  EXPECT_FALSE(rep.all_converged);
  ASSERT_EQ(rep.quarantined_columns.size(), n_rhs);
  for (std::size_t j = 0; j < n_rhs; ++j)
    EXPECT_EQ(rep.quarantined_columns[j], static_cast<long>(j));
  EXPECT_EQ(events.count(obs::events::kColumnQuarantine), n_rhs);
  // Every column was attempted and recorded despite the persistent fault.
  long covered = 0;
  for (const ChunkRecord& c : rep.chunks) covered += c.n_rhs;
  EXPECT_EQ(covered, static_cast<long>(n_rhs));
  EXPECT_GT(rep.total_matvec_columns, 0);
  EXPECT_TRUE(block_finite(y));
}

// ---------------------------------------------------------------------------
// Concurrent chunk solves: chunk outcomes fold in chunk order, so a
// fixed-block run is identical at any lane count, ladder events included.

void expect_same_records(const DynamicBlockReport& x,
                         const DynamicBlockReport& y) {
  ASSERT_EQ(x.chunks.size(), y.chunks.size());
  for (std::size_t i = 0; i < x.chunks.size(); ++i) {
    SCOPED_TRACE("chunk " + std::to_string(i));
    const ChunkRecord& p = x.chunks[i];
    const ChunkRecord& q = y.chunks[i];
    EXPECT_EQ(p.block_size, q.block_size);
    EXPECT_EQ(p.n_rhs, q.n_rhs);
    EXPECT_EQ(p.iterations, q.iterations);
    EXPECT_EQ(p.matvec_columns, q.matvec_columns);
    EXPECT_EQ(p.applies, q.applies);
    EXPECT_EQ(p.converged, q.converged);
    EXPECT_EQ(p.fallback, q.fallback);
    EXPECT_EQ(p.restarts, q.restarts);
    EXPECT_EQ(p.deflations, q.deflations);
    EXPECT_EQ(p.solver_swaps, q.solver_swaps);
    EXPECT_EQ(p.quarantined, q.quarantined);
  }
  EXPECT_EQ(x.total_matvec_columns, y.total_matvec_columns);
  EXPECT_EQ(x.total_applies, y.total_applies);
  EXPECT_EQ(x.all_converged, y.all_converged);
  EXPECT_EQ(x.quarantined_columns, y.quarantined_columns);
}

void expect_same_events(const obs::EventLog& x, const obs::EventLog& y) {
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const obs::Event& p = x.events()[i];
    const obs::Event& q = y.events()[i];
    EXPECT_EQ(p.kind, q.kind) << "event " << i;
    EXPECT_EQ(p.detail, q.detail) << "event " << i;
    EXPECT_EQ(p.fields, q.fields) << "event " << i;
  }
}

struct LaneRun {
  DynamicBlockReport rep;
  Matrix<cplx> y;
  obs::EventLog events;
};

LaneRun solve_at_lanes(int lanes, const Matrix<cplx>& a,
                       const Matrix<cplx>& b, DynamicBlockOptions opts) {
  sched::set_global_threads(lanes);
  LaneRun run;
  run.y = Matrix<cplx>(b.rows(), b.cols());
  opts.events = &run.events;
  run.rep = solve_dynamic_block(dense_op(a), b, run.y, opts);
  sched::set_global_threads(0);
  return run;
}

TEST(DynamicBlockThreads, FixedBlockRunIsIdenticalAtOneAndFourLanes) {
  Rng rng(34);
  const std::size_t n = 40, n_rhs = 14;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{8.0, 2.0});
  Matrix<cplx> b = random_cblock(n, n_rhs, rng);
  // A duplicated column inside the second chunk forces the ladder's
  // deflations there.
  for (std::size_t i = 0; i < n; ++i) b(i, 7) = b(i, 6);

  DynamicBlockOptions opts;
  opts.enabled = false;
  opts.fixed_block = 4;
  opts.solver.tol = 1e-10;
  const LaneRun one = solve_at_lanes(1, a, b, opts);
  const LaneRun four = solve_at_lanes(4, a, b, opts);

  EXPECT_EQ(one.events.count(obs::events::kBlockDeflation), 2u);
  ASSERT_EQ(one.rep.chunks.size(), 4u);
  EXPECT_EQ(one.rep.chunks[1].deflations, 2);
  EXPECT_EQ(block_error(one.y, four.y), 0.0);  // bitwise
  expect_same_records(one.rep, four.rep);
  expect_same_events(one.events, four.events);
}

TEST(DynamicBlockThreads, FaultsAreScheduledPerChunk) {
  Rng rng(35);
  const std::size_t n = 30, n_rhs = 12;
  Matrix<cplx> a = random_complex_symmetric(n, rng, cplx{8.0, 2.0});
  Matrix<cplx> b = random_cblock(n, n_rhs, rng);

  // One NaN fault at each chunk's apply 1: every chunk restarts once,
  // whichever lane solves it.
  DynamicBlockOptions opts;
  opts.enabled = false;
  opts.fixed_block = 4;
  opts.solver.tol = 1e-10;
  opts.fault.mode = FaultMode::kNanMatvec;
  opts.fault.at_apply = 1;
  opts.fault.max_faults = 1;
  const LaneRun one = solve_at_lanes(1, a, b, opts);
  const LaneRun four = solve_at_lanes(4, a, b, opts);

  ASSERT_EQ(one.rep.chunks.size(), 3u);
  for (const ChunkRecord& c : one.rep.chunks) EXPECT_EQ(c.restarts, 1);
  EXPECT_TRUE(one.rep.all_converged);
  EXPECT_EQ(one.events.count(obs::events::kSolverRestart), 3u);
  EXPECT_LT(block_error(one.y, la::lu_solve(a, b)), 1e-7);
  EXPECT_EQ(block_error(one.y, four.y), 0.0);
  expect_same_records(one.rep, four.rep);
  expect_same_events(one.events, four.events);
}

}  // namespace
}  // namespace rsrpa::solver

// ---------------------------------------------------------------------------
// End-to-end drills: an injected fault at one quadrature point degrades
// the run — finite energy, flagged point — and never aborts it.

namespace rsrpa {
namespace {

class FaultDrillTest : public ::testing::Test {
 protected:
  static rpa::BuiltSystem& built() {
    static rpa::BuiltSystem b = [] {
      rpa::SystemPreset p = rpa::make_si_preset(1, false);
      p.grid_per_cell = 7;
      p.n_eig_per_atom = 2;  // n_eig = 16
      p.fd_radius = 3;
      return rpa::build_system(p);
    }();
    return b;
  }

  static rpa::RpaOptions base_options() {
    rpa::RpaOptions opts = built().default_rpa_options();
    opts.n_eig = 16;
    opts.ell = 3;
    opts.tol_eig = {4e-3, 2e-3, 2e-3};
    return opts;
  }

  // Persistent zero-matvec fault pinned to quadrature point 0, orbital 0:
  // every Sternheimer solve for that orbital at that point quarantines.
  static void add_point_fault(rpa::RpaOptions& opts) {
    opts.stern.fault.mode = solver::FaultMode::kZeroMatvec;
    opts.stern.fault.at_apply = 0;
    opts.stern.fault.period = 1;
    opts.stern.fault.max_faults = 1 << 30;
    opts.stern.fault.orbital = 0;
    opts.fault_omega = 0;
  }
};

TEST_F(FaultDrillTest, RunRpaSurvivesAFaultyQuadraturePoint) {
  auto& b = built();
  rpa::RpaOptions opts = base_options();
  add_point_fault(opts);

  rpa::RpaResult res = rpa::compute_rpa_energy(b.ks, *b.klap, opts);

  EXPECT_TRUE(std::isfinite(res.e_rpa));
  EXPECT_LT(res.e_rpa, 0.0);
  EXPECT_TRUE(res.degraded);
  EXPECT_FALSE(res.converged);
  ASSERT_EQ(res.per_omega.size(), 3u);
  EXPECT_GT(res.per_omega[0].quarantined_columns, 0);
  EXPECT_FALSE(res.per_omega[0].converged);
  // The fault is pinned to point 0: the other points stay clean.
  EXPECT_EQ(res.per_omega[1].quarantined_columns, 0);
  EXPECT_EQ(res.per_omega[2].quarantined_columns, 0);
  EXPECT_GE(res.events.count(obs::events::kQuadPointDegraded), 1u);
  EXPECT_GT(res.stern.quarantined_columns, 0);
}

TEST_F(FaultDrillTest, RunParallelRpaSurvivesAFaultyQuadraturePoint) {
  auto& b = built();
  par::ParallelRpaOptions opts;
  opts.rpa = base_options();
  opts.n_ranks = 2;
  add_point_fault(opts.rpa);

  par::ParallelRpaResult res = par::run_parallel_rpa(b.ks, *b.klap, opts);

  EXPECT_TRUE(std::isfinite(res.rpa.e_rpa));
  EXPECT_TRUE(res.rpa.degraded);
  ASSERT_EQ(res.rpa.per_omega.size(), 3u);
  EXPECT_GT(res.rpa.per_omega[0].quarantined_columns, 0);
  EXPECT_EQ(res.rpa.per_omega[1].quarantined_columns, 0);
  EXPECT_GE(res.rpa.events.count(obs::events::kQuadPointDegraded), 1u);
}

TEST_F(FaultDrillTest, QuarantinedColumnsAreReseededBeforeTheNextPoint) {
  // Warm-start decontamination: point 0's quarantined V columns hold
  // whatever the ladder froze them at; the driver must re-randomize them
  // before point 1, so the poisoned omega never contaminates downstream
  // records. Fixed blocking keeps the run deterministic.
  auto& b = built();
  rpa::RpaOptions opts = base_options();
  opts.stern.dynamic_block = false;
  opts.stern.fixed_block = 4;
  add_point_fault(opts);

  rpa::RpaResult res = rpa::compute_rpa_energy(b.ks, *b.klap, opts);

  ASSERT_EQ(res.per_omega.size(), 3u);
  const std::vector<long>& idx = res.per_omega[0].quarantined_column_indices;
  ASSERT_FALSE(idx.empty());
  EXPECT_TRUE(std::is_sorted(idx.begin(), idx.end()));
  EXPECT_TRUE(std::adjacent_find(idx.begin(), idx.end()) == idx.end());
  for (long c : idx) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, static_cast<long>(opts.n_eig));
  }
  // The raw count can exceed the distinct-column count (the same column
  // can quarantine for several occupied orbitals).
  EXPECT_GE(res.per_omega[0].quarantined_columns,
            static_cast<long>(idx.size()));
  EXPECT_GE(res.events.count(obs::events::kWarmStartReseed), 1u);
  // Downstream of the reseed the run is clean: no quarantines, converged
  // subspaces, no reseed events for the later points.
  EXPECT_EQ(res.per_omega[1].quarantined_columns, 0);
  EXPECT_EQ(res.per_omega[2].quarantined_columns, 0);
  EXPECT_TRUE(res.per_omega[1].converged);
  EXPECT_TRUE(res.per_omega[2].converged);
  EXPECT_EQ(res.events.count(obs::events::kWarmStartReseed), 1u);
}

TEST_F(FaultDrillTest, MidSweepFaultOmegaArmsExactlyOnePoint) {
  // Regression for the per-point fault toggle: arming the middle point
  // exercises disarm -> arm -> disarm across the sweep (the scope guard
  // owns the mutation now), and the reseed keeps point 2 clean.
  auto& b = built();
  rpa::RpaOptions opts = base_options();
  opts.stern.dynamic_block = false;
  opts.stern.fixed_block = 4;
  add_point_fault(opts);
  opts.fault_omega = 1;

  rpa::RpaResult res = rpa::compute_rpa_energy(b.ks, *b.klap, opts);

  ASSERT_EQ(res.per_omega.size(), 3u);
  EXPECT_EQ(res.per_omega[0].quarantined_columns, 0);
  EXPECT_GT(res.per_omega[1].quarantined_columns, 0);
  EXPECT_EQ(res.per_omega[2].quarantined_columns, 0);
  EXPECT_TRUE(res.per_omega[2].converged);
}

TEST_F(FaultDrillTest, LadderIsBitwiseInvisibleOnCleanRuns) {
  // With injection off and no breakdown, the ladder's bookkeeping wraps
  // the same arithmetic in the same order: enabling it must not move the
  // energy by even one ulp. Algorithm 4's block-size probe keys off wall
  // time, so fix the blocking to make the two runs comparable at all.
  auto& b = built();
  rpa::RpaOptions on = base_options(), off = base_options();
  on.stern.dynamic_block = false;
  off.stern.dynamic_block = false;
  on.stern.fixed_block = 4;
  off.stern.fixed_block = 4;
  on.stern.resilience.enabled = true;
  off.stern.resilience.enabled = false;

  rpa::RpaResult r_on = rpa::compute_rpa_energy(b.ks, *b.klap, on);
  rpa::RpaResult r_off = rpa::compute_rpa_energy(b.ks, *b.klap, off);

  EXPECT_TRUE(r_on.converged);
  EXPECT_FALSE(r_on.degraded);
  EXPECT_EQ(r_on.e_rpa, r_off.e_rpa);
  for (std::size_t k = 0; k < r_on.per_omega.size(); ++k)
    EXPECT_EQ(r_on.per_omega[k].e_term, r_off.per_omega[k].e_term) << k;
}

}  // namespace
}  // namespace rsrpa
