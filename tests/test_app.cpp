// rpacalc's front-end library (src/app): the .rpa -> options mapping,
// cooperative cancel with bitwise resume, and concurrent in-process runs
// sharing the global pool. Labeled `app` in ctest so it can be run alone
// under -DRSRPA_SANITIZE=address/thread builds. The suites keep their
// historical Svc* names.
//
// All bitwise configs pin DYNAMIC_BLOCK: 0 (Algorithm 4 keys off wall
// clock, which is exactly what the reproducibility contract excludes).
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <set>
#include <string>
#include <thread>

#include "app/job.hpp"
#include "obs/run_report.hpp"
#include "rpa/erpa.hpp"
#include "rpa/presets.hpp"

namespace rsrpa {
namespace {

namespace fs = std::filesystem;

// Timing and wall-clock-derived fields: legitimately different between
// two runs of one config (and across a cancel + resume), stripped before
// the JSON comparison. Everything else must match byte for byte.
bool timing_key(const std::string& k) {
  static const std::set<std::string> kStrip = {
      "seconds",        "total_seconds",
      "timers",         "arithmetic_intensity",
      "sched",          "modeled",
      "modeled_total_seconds", "apply_work_seconds",
      "rank_apply_seconds",    "rank_error_seconds",
      "rank_timers"};
  return kStrip.count(k) > 0;
}

obs::Json strip_timing(const obs::Json& j) {
  if (j.is_object()) {
    obs::Json out = obs::Json::object();
    for (const auto& [key, value] : j.as_object())
      if (!timing_key(key)) out[key] = strip_timing(value);
    return out;
  }
  if (j.is_array()) {
    obs::Json out = obs::Json::array();
    for (const obs::Json& v : j.as_array()) out.push_back(strip_timing(v));
    return out;
  }
  return j;
}

void expect_bitwise_equal(const rpa::RpaResult& a, const rpa::RpaResult& b) {
  EXPECT_EQ(a.e_rpa, b.e_rpa);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.degraded, b.degraded);
  ASSERT_EQ(a.per_omega.size(), b.per_omega.size());
  for (std::size_t k = 0; k < a.per_omega.size(); ++k) {
    EXPECT_EQ(a.per_omega[k].e_term, b.per_omega[k].e_term) << "omega " << k;
    EXPECT_EQ(a.per_omega[k].eigenvalues, b.per_omega[k].eigenvalues)
        << "omega " << k;
  }
  EXPECT_EQ(strip_timing(obs::to_json(a)).dump(),
            strip_timing(obs::to_json(b)).dump());
}

/// The deterministic tiny fixture (test_checkpoint's): Si8 on a 7^3 grid,
/// 16 eigenvalues, fixed Sternheimer blocking.
std::string tiny_rpa(std::uint64_t seed, int n_omega) {
  std::string s;
  s += "GRID_PER_CELL: 7\n";
  s += "FD_RADIUS: 3\n";
  s += "N_NUCHI_EIGS: 16\n";
  s += "N_EIG_PER_ATOM: 2\n";
  s += "N_OMEGA: " + std::to_string(n_omega) + "\n";
  s += "TOL_EIG: 4e-3 2e-3 2e-3\n";
  s += "DYNAMIC_BLOCK: 0\n";
  s += "BLOCK_SIZE: 4\n";
  s += "SEED: " + std::to_string(seed) + "\n";
  return s;
}

/// Uninterrupted oracle: same parse path, no checkpoint, no control —
/// plain compute_rpa_energy.
rpa::RpaResult run_standalone(const std::string& rpa_text) {
  const app::JobSpec spec = app::parse_job(Config::parse(rpa_text));
  rpa::BuiltSystem sys = rpa::build_system(spec.preset);
  return rpa::compute_rpa_energy(sys.ks, *sys.klap, spec.options);
}

class SvcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("rsrpa_app_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const char* name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

// ---------------------------------------------------------------------
// parse_job

TEST(SvcJob, ParseDefaultsMatchPresetRun) {
  const app::JobSpec spec = app::parse_job(Config::parse(""));
  const rpa::BuiltSystem sys = rpa::build_system(spec.preset);
  const rpa::RpaOptions ref = sys.default_rpa_options();
  EXPECT_EQ(spec.options.n_eig, ref.n_eig);
  EXPECT_EQ(spec.options.ell, ref.ell);
  EXPECT_EQ(spec.options.stern.tol, ref.stern.tol);
  EXPECT_EQ(spec.options.cheb_degree, ref.cheb_degree);
  EXPECT_EQ(spec.options.max_filter_iter, ref.max_filter_iter);
  EXPECT_EQ(spec.method, app::Method::kSternheimer);
  EXPECT_EQ(spec.preset.fused_apply, -1);
  EXPECT_TRUE(spec.checkpoint.empty());
  EXPECT_FALSE(spec.resume);
}

TEST(SvcJob, ParseServiceKeys) {
  const app::JobSpec spec = app::parse_job(Config::parse(
      "FUSED_APPLY: 0\nTILE_Y: 8\nTILE_Z: 4\n"
      "DYNAMIC_BLOCK: 0\nBLOCK_SIZE: 4\nN_OMEGA: 2\nSEED: 11\n"
      "CHECKPOINT: run.ckpt\nRESUME: 1\n"));
  EXPECT_EQ(spec.preset.fused_apply, 0);
  EXPECT_EQ(spec.preset.tile_y, 8u);
  EXPECT_EQ(spec.preset.tile_z, 4u);
  EXPECT_FALSE(spec.options.stern.dynamic_block);
  EXPECT_EQ(spec.options.stern.fixed_block, 4);
  EXPECT_EQ(spec.options.ell, 2);
  EXPECT_EQ(spec.preset.seed, 11u);
  EXPECT_EQ(spec.checkpoint, "run.ckpt");
  EXPECT_TRUE(spec.resume);
}

TEST(SvcJob, ParseRejectsBadFaultMode) {
  EXPECT_THROW(app::parse_job(Config::parse("FAULT_MODE: bogus\n")), Error);
}

// ---------------------------------------------------------------------
// Cooperative cancellation

TEST(SvcControl, CancelIsStickyUntilReset) {
  rpa::RunControl control;
  EXPECT_FALSE(control.cancelled());
  EXPECT_NO_THROW(rpa::check_run_control(&control));
  control.request_cancel();
  EXPECT_TRUE(control.cancelled());
  // Sticky: every later boundary poll still sees the cancel.
  EXPECT_THROW(rpa::check_run_control(&control), rpa::RunCancelled);
  EXPECT_THROW(rpa::check_run_control(&control), rpa::RunCancelled);
  control.request_cancel();  // idempotent
  EXPECT_TRUE(control.cancelled());
  control.reset();
  EXPECT_FALSE(control.cancelled());
  EXPECT_NO_THROW(rpa::check_run_control(&control));
  EXPECT_NO_THROW(rpa::check_run_control(nullptr));
}

TEST_F(SvcTest, PreCancelledRunStopsAtFirstBoundary) {
  const app::JobSpec spec = app::parse_job(Config::parse(tiny_rpa(7, 3)));
  rpa::BuiltSystem sys = rpa::build_system(spec.preset);
  rpa::RpaOptions opts = spec.options;
  rpa::RunControl control;
  control.request_cancel();
  opts.control = &control;
  EXPECT_THROW(rpa::compute_rpa_energy(sys.ks, *sys.klap, opts),
               rpa::RunCancelled);
}

TEST_F(SvcTest, CancelledRunResumesBitwise) {
  const std::string cfg = tiny_rpa(7, 3);
  const rpa::RpaResult expected = run_standalone(cfg);

  const app::JobSpec spec = app::parse_job(Config::parse(cfg));
  rpa::BuiltSystem sys = rpa::build_system(spec.preset);
  rpa::RpaOptions opts = spec.options;
  opts.checkpoint.path = path("cancel.ckpt");
  opts.checkpoint.resume = true;
  rpa::RunControl control;
  opts.control = &control;

  // Fire the cancel as soon as the first checkpoint lands. Depending on
  // timing the run either throws at a later boundary or completes — both
  // are legal; what matters is that a cancelled run resumes bitwise.
  std::thread canceller([&] {
    while (!fs::exists(opts.checkpoint.path))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    control.request_cancel();
  });
  bool cancelled = false;
  rpa::RpaResult res;
  try {
    res = rpa::compute_rpa_energy(sys.ks, *sys.klap, opts);
  } catch (const rpa::RunCancelled&) {
    cancelled = true;
  }
  canceller.join();
  if (cancelled) {
    control.reset();
    res = rpa::compute_rpa_energy(sys.ks, *sys.klap, opts);
  }
  expect_bitwise_equal(res, expected);
}

// ---------------------------------------------------------------------
// Concurrent in-process runs are bitwise independent

TEST_F(SvcTest, ConcurrentRunsMatchStandaloneBitwise) {
  const std::string cfg_a = tiny_rpa(7, 3);
  // A genuinely different run: different crystal seed AND the reference
  // apply path, sharing the pool with A's fused-path run.
  const std::string cfg_b = tiny_rpa(11, 3) + "FUSED_APPLY: 0\n";
  const rpa::RpaResult expected_a = run_standalone(cfg_a);
  const rpa::RpaResult expected_b = run_standalone(cfg_b);

  rpa::RpaResult got_a, got_b;
  std::exception_ptr err_a, err_b;
  std::thread ta([&] {
    try {
      const app::JobSpec spec = app::parse_job(Config::parse(cfg_a));
      rpa::BuiltSystem sys = rpa::build_system(spec.preset);
      rpa::RpaOptions opts = spec.options;
      opts.checkpoint.path = path("run_a.ckpt");  // one run checkpoints
      got_a = rpa::compute_rpa_energy(sys.ks, *sys.klap, opts);
    } catch (...) {
      err_a = std::current_exception();
    }
  });
  std::thread tb([&] {
    try {
      const app::JobSpec spec = app::parse_job(Config::parse(cfg_b));
      rpa::BuiltSystem sys = rpa::build_system(spec.preset);
      got_b = rpa::compute_rpa_energy(sys.ks, *sys.klap, spec.options);
    } catch (...) {
      err_b = std::current_exception();
    }
  });
  ta.join();
  tb.join();
  if (err_a) std::rethrow_exception(err_a);
  if (err_b) std::rethrow_exception(err_b);
  expect_bitwise_equal(got_a, expected_a);
  expect_bitwise_equal(got_b, expected_b);
}

}  // namespace
}  // namespace rsrpa
