// Tests for the simulated parallel runtime: column partition, collective
// cost model, and the rank-decomposed RPA driver.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "obs/event_log.hpp"
#include "par/parallel_rpa.hpp"
#include "rpa/erpa.hpp"
#include "rpa/presets.hpp"
#include "sched/thread_pool.hpp"

namespace rsrpa::par {
namespace {

TEST(ColumnPartition, CoversAllColumnsWithoutOverlap) {
  for (std::size_t n : {7u, 16u, 96u}) {
    for (std::size_t p : {1u, 3u, 7u}) {
      if (p > n) continue;
      ColumnPartition part(n, p);
      std::size_t total = 0, expected_begin = 0;
      for (std::size_t r = 0; r < p; ++r) {
        EXPECT_EQ(part.begin(r), expected_begin);
        total += part.count(r);
        expected_begin += part.count(r);
      }
      EXPECT_EQ(total, n);
    }
  }
}

TEST(ColumnPartition, BalancedToWithinOne) {
  ColumnPartition part(17, 5);
  std::size_t mn = 17, mx = 0;
  for (std::size_t r = 0; r < 5; ++r) {
    mn = std::min(mn, part.count(r));
    mx = std::max(mx, part.count(r));
  }
  EXPECT_LE(mx - mn, 1u);
  EXPECT_EQ(part.max_block_size(), 3u);  // floor(17/5)
}

TEST(ColumnPartition, RejectsMoreRanksThanColumns) {
  EXPECT_THROW(ColumnPartition(4, 5), Error);
}

TEST(CollectiveModel, AllreduceGrowsWithPAndBytes) {
  CollectiveModel net;
  EXPECT_DOUBLE_EQ(net.allreduce(1024, 1), 0.0);
  EXPECT_LT(net.allreduce(1024, 2), net.allreduce(1024, 16));
  EXPECT_LT(net.allreduce(1024, 8), net.allreduce(1 << 20, 8));
}

TEST(CollectiveModel, MatmultTimeHasCommunicationFloor) {
  CollectiveModel net;
  const double t_seq = 1.0;
  // Perfect scaling would give t/p; the model must sit above that, gain at
  // small p, and saturate or even regress at large p (the paper's Fig. 5
  // shows exactly this for the tall-and-skinny ScaLAPACK matmult, whose
  // m x m Gram allreduce grows with log p).
  for (std::size_t p : {2u, 8u, 32u, 128u, 512u}) {
    const double t = net.matmult_time(t_seq, 20000, 4000, p);
    EXPECT_GT(t, t_seq / static_cast<double>(p));
    EXPECT_LT(t, t_seq);  // still beats one rank...
  }
  // ...but the gain from 128 to 512 ranks has evaporated.
  const double t128 = net.matmult_time(t_seq, 20000, 4000, 128);
  const double t512 = net.matmult_time(t_seq, 20000, 4000, 512);
  EXPECT_GT(t512, 0.8 * t128);
  // Far from ideal at large p.
  EXPECT_GT(t512, 4.0 * t_seq / 512);
}

TEST(CollectiveModel, EigensolveSaturates) {
  CollectiveModel net;
  const double t_seq = 2.0;
  const double at_sat = net.eigensolve_time(t_seq, 3840, net.eigensolve_saturation);
  const double beyond = net.eigensolve_time(t_seq, 3840, 8 * net.eigensolve_saturation);
  // No compute gain past saturation; only added latency.
  EXPECT_GE(beyond, at_sat);
}

class ParallelRpaTest : public ::testing::Test {
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

  static ParallelRpaOptions base_options() {
    ParallelRpaOptions opts;
    opts.rpa = built().default_rpa_options();
    opts.rpa.n_eig = 16;
    opts.rpa.ell = 3;
    opts.rpa.tol_eig = {4e-3, 2e-3, 2e-3};
    return opts;
  }
};

TEST_F(ParallelRpaTest, EnergyIndependentOfRankCount) {
  auto& b = built();
  ParallelRpaOptions o1 = base_options(), o4 = base_options();
  o1.n_ranks = 1;
  o4.n_ranks = 4;
  ParallelRpaResult r1 = run_parallel_rpa(b.ks, *b.klap, o1);
  ParallelRpaResult r4 = run_parallel_rpa(b.ks, *b.klap, o4);
  EXPECT_TRUE(r1.rpa.converged);
  EXPECT_TRUE(r4.rpa.converged);
  EXPECT_LT(r1.rpa.e_rpa, 0.0);
  // The partition changes solver blocking, not mathematics: energies agree
  // to well within the subspace tolerance.
  EXPECT_NEAR(r1.rpa.e_rpa, r4.rpa.e_rpa,
              5e-3 * std::abs(r1.rpa.e_rpa));
}

// At one rank the parallel entry point is the serial engine plus the
// modeled overlay: with fixed blocking (Algorithm 4 sizes blocks from
// measured wall time) the two runs are bitwise equal, cold start included.
TEST_F(ParallelRpaTest, MatchesSerialDriverEnergy) {
  auto& b = built();
  for (bool warm_start : {true, false}) {
    SCOPED_TRACE(warm_start ? "warm_start = true" : "warm_start = false");
    ParallelRpaOptions opts = base_options();
    opts.n_ranks = 1;
    opts.rpa.stern.dynamic_block = false;
    opts.rpa.warm_start = warm_start;
    const ParallelRpaResult par = run_parallel_rpa(b.ks, *b.klap, opts);
    const rpa::RpaResult ser = rpa::compute_rpa_energy(b.ks, *b.klap, opts.rpa);
    EXPECT_EQ(std::memcmp(&par.rpa.e_rpa, &ser.e_rpa, sizeof(double)), 0)
        << par.rpa.e_rpa << " vs " << ser.e_rpa;
    ASSERT_EQ(par.rpa.per_omega.size(), ser.per_omega.size());
    for (std::size_t k = 0; k < ser.per_omega.size(); ++k)
      EXPECT_EQ(par.rpa.per_omega[k].eigenvalues, ser.per_omega[k].eigenvalues)
          << "point " << k;
  }
}

// Per-point Sternheimer traffic is the delta of the run totals, so the
// per-point records add up to the totals in both entry points.
TEST_F(ParallelRpaTest, PerPointMatvecCountersAddUpToRunTotals) {
  auto& b = built();
  ParallelRpaOptions opts = base_options();
  opts.n_ranks = 2;
  const ParallelRpaResult par = run_parallel_rpa(b.ks, *b.klap, opts);
  const rpa::RpaResult ser = rpa::compute_rpa_energy(b.ks, *b.klap, opts.rpa);
  for (const rpa::RpaResult* r : {&par.rpa, &ser}) {
    double bytes = 0.0, flops = 0.0;
    for (const rpa::OmegaRecord& rec : r->per_omega) {
      EXPECT_GT(rec.matvec_bytes, 0.0);
      bytes += rec.matvec_bytes;
      flops += rec.matvec_flops;
    }
    EXPECT_EQ(bytes, r->stern.matvec_bytes);
    EXPECT_EQ(flops, r->stern.matvec_flops);
  }
}

TEST_F(ParallelRpaTest, RecordsPerRankTimings) {
  auto& b = built();
  ParallelRpaOptions opts = base_options();
  opts.n_ranks = 4;
  ParallelRpaResult res = run_parallel_rpa(b.ks, *b.klap, opts);
  ASSERT_EQ(res.rank_apply_seconds.size(), 4u);
  for (double t : res.rank_apply_seconds) EXPECT_GT(t, 0.0);
  // Critical path >= average (load imbalance is non-negative).
  const double avg = res.apply_work_seconds / 4.0;
  EXPECT_GE(res.modeled.nu_chi0 + res.modeled.eval_error, avg * 0.99);
  EXPECT_GT(res.modeled_total_seconds, 0.0);
}

TEST_F(ParallelRpaTest, BlockSizeCapFollowsPartition) {
  auto& b = built();
  ParallelRpaOptions opts = base_options();
  opts.n_ranks = 8;  // cap = 16 / 8 = 2
  ParallelRpaResult res = run_parallel_rpa(b.ks, *b.klap, opts);
  for (const auto& [size, count] : res.rpa.stern.block_size_chunks)
    EXPECT_LE(size, 2);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Everything a run reports that is not a timing must agree bit for bit:
// the energy, every quadrature point's trace term, Eq. (7) error and Ritz
// values, the Sternheimer work counters and quarantine list, and the
// number of chi0 applications (apply_counters events).
void expect_bitwise_same(const rpa::RpaResult& a, const rpa::RpaResult& b) {
  EXPECT_TRUE(same_bits(a.e_rpa, b.e_rpa)) << a.e_rpa << " vs " << b.e_rpa;
  ASSERT_EQ(a.per_omega.size(), b.per_omega.size());
  for (std::size_t k = 0; k < a.per_omega.size(); ++k) {
    SCOPED_TRACE("omega " + std::to_string(k));
    const rpa::OmegaRecord& p = a.per_omega[k];
    const rpa::OmegaRecord& q = b.per_omega[k];
    EXPECT_TRUE(same_bits(p.e_term, q.e_term));
    EXPECT_TRUE(same_bits(p.error, q.error));
    ASSERT_EQ(p.eigenvalues.size(), q.eigenvalues.size());
    for (std::size_t i = 0; i < p.eigenvalues.size(); ++i)
      EXPECT_TRUE(same_bits(p.eigenvalues[i], q.eigenvalues[i])) << i;
  }
  EXPECT_EQ(a.stern.matvec_columns, b.stern.matvec_columns);
  EXPECT_EQ(a.stern.total_chunks, b.stern.total_chunks);
  EXPECT_EQ(a.stern.quarantined_column_indices,
            b.stern.quarantined_column_indices);
  EXPECT_EQ(a.events.count(obs::events::kApplyCounters),
            b.events.count(obs::events::kApplyCounters));
}

rpa::BuiltSystem small_si(bool vacancy) {
  rpa::SystemPreset preset = rpa::make_si_preset(1, vacancy);
  preset.grid_per_cell = 7;
  preset.n_eig_per_atom = 2;
  preset.fd_radius = 3;
  return rpa::build_system(preset);
}

ParallelRpaOptions fixed_block_options(const rpa::BuiltSystem& b) {
  ParallelRpaOptions opts;
  opts.rpa = b.default_rpa_options();
  opts.rpa.ell = 2;
  opts.rpa.tol_eig = {4e-3, 2e-3};
  // Algorithm 4 chooses Sternheimer block sizes from MEASURED chunk wall
  // time, so its partition is schedule-dependent by construction (it was
  // never run-to-run reproducible, even serially). Pin the block size so
  // the comparison isolates the runtime's determinism.
  opts.rpa.stern.dynamic_block = false;
  opts.n_ranks = 4;
  return opts;
}

// The deterministic-execution acceptance criterion: both drivers produce
// the SAME BITS at 1 and 4 threads, on two different preset systems. The
// serial driver relies on disjoint-write parallel_for (identical FP order
// per element) and on chunk solves that fold in chunk order; the ranked
// driver additionally routes its norm reductions through the fixed-shape
// tree of parallel_reduce.
TEST(ThreadDeterminism, BitwiseIdenticalEnergiesAtAnyThreadCount) {
  for (bool vacancy : {false, true}) {
    SCOPED_TRACE(vacancy ? "Si vacancy preset" : "Si pristine preset");
    rpa::BuiltSystem b = small_si(vacancy);
    const ParallelRpaOptions opts = fixed_block_options(b);

    sched::set_global_threads(1);
    const rpa::RpaResult serial_1 =
        rpa::compute_rpa_energy(b.ks, *b.klap, opts.rpa);
    const ParallelRpaResult par_1 = run_parallel_rpa(b.ks, *b.klap, opts);

    sched::set_global_threads(4);
    const rpa::RpaResult serial_4 =
        rpa::compute_rpa_energy(b.ks, *b.klap, opts.rpa);
    const ParallelRpaResult par_4 = run_parallel_rpa(b.ks, *b.klap, opts);
    sched::set_global_threads(1);

    {
      SCOPED_TRACE("run_rpa");
      expect_bitwise_same(serial_1, serial_4);
    }
    {
      SCOPED_TRACE("run_parallel_rpa");
      expect_bitwise_same(par_1.rpa, par_4.rpa);
    }
    EXPECT_LT(serial_1.e_rpa, 0.0);
    EXPECT_GT(serial_1.events.count(obs::events::kApplyCounters), 0u);

    // The threaded run really went through the pool, and the result
    // carries its scheduler telemetry.
    EXPECT_EQ(par_4.sched_stats.threads, 4);
    EXPECT_GT(par_4.sched_stats.tasks, 0);
    EXPECT_EQ(par_1.sched_stats.threads, 1);
  }
}

// Fault drill: every Sternheimer apply is perturbed, with a perturbation
// drawn from the apply index. The fault wrapper is per chunk solve, so
// the index sequence — and the result — cannot depend on which lane runs
// which chunk; a wrapper shared by concurrent chunks would scramble it.
TEST(ThreadDeterminism, PerturbedMatvecDrillIsBitwiseAtAnyThreadCount) {
  rpa::BuiltSystem b = small_si(false);
  ParallelRpaOptions opts = fixed_block_options(b);
  opts.rpa.stern.fault.mode = solver::FaultMode::kPerturbMatvec;
  opts.rpa.stern.fault.at_apply = 0;
  opts.rpa.stern.fault.period = 1;
  opts.rpa.stern.fault.max_faults = 1 << 30;
  opts.rpa.stern.fault.magnitude = 1e-8;

  sched::set_global_threads(1);
  const rpa::RpaResult one = rpa::compute_rpa_energy(b.ks, *b.klap, opts.rpa);
  sched::set_global_threads(4);
  const rpa::RpaResult four = rpa::compute_rpa_energy(b.ks, *b.klap, opts.rpa);
  sched::set_global_threads(1);

  expect_bitwise_same(one, four);
  EXPECT_TRUE(std::isfinite(one.e_rpa));

  // The drill really perturbed the solves.
  sched::set_global_threads(4);
  const rpa::RpaResult clean =
      rpa::compute_rpa_energy(b.ks, *b.klap, fixed_block_options(b).rpa);
  sched::set_global_threads(1);
  EXPECT_FALSE(same_bits(one.e_rpa, clean.e_rpa));
}

TEST_F(ParallelRpaTest, ModeledNuChi0TimeShrinksWithRanks) {
  auto& b = built();
  ParallelRpaOptions o1 = base_options(), o4 = base_options();
  o1.n_ranks = 1;
  o4.n_ranks = 4;
  ParallelRpaResult r1 = run_parallel_rpa(b.ks, *b.klap, o1);
  ParallelRpaResult r4 = run_parallel_rpa(b.ks, *b.klap, o4);
  // The embarrassingly parallel kernel must show real speedup in the
  // modeled time (max over ranks shrinks as columns spread out).
  EXPECT_LT(r4.modeled.nu_chi0, r1.modeled.nu_chi0);
}

}  // namespace
}  // namespace rsrpa::par
