// A1 / SS III-C ablation: stencil applied one vector at a time vs to s
// vectors simultaneously (google-benchmark microbenchmark).
//
// Expected shape (paper SS III-C): the fast-memory model says applying
// the stencil per vector sustains at least the throughput of the
// simultaneous schedule, because the simultaneous working set is s times
// larger for the same arithmetic intensity ceiling.
#include <benchmark/benchmark.h>

#include <string>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "grid/stencil.hpp"
#include "hamiltonian/hamiltonian.hpp"
#include "solver/operator.hpp"

namespace {

using rsrpa::grid::Grid3D;
using rsrpa::grid::StencilLaplacian;
using rsrpa::la::cplx;
using rsrpa::la::Matrix;

struct Fixture {
  Grid3D g = Grid3D::cubic(48, 24.0);
  StencilLaplacian lap{g, 6};
  Matrix<double> in, out;

  explicit Fixture(std::size_t s) : in(g.size(), s), out(g.size(), s) {
    rsrpa::Rng rng(1);
    for (std::size_t j = 0; j < s; ++j) rng.fill_uniform(in.col(j));
  }
};

void BM_StencilOneVectorAtATime(benchmark::State& state) {
  Fixture f(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    f.lap.apply_block(f.in, f.out);
    benchmark::DoNotOptimize(f.out.data());
  }
  const double flops_per_point = 2.0 * (6.0 * f.lap.radius() + 1.0);
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops_per_point * static_cast<double>(f.g.size()) *
          static_cast<double>(state.range(0)) *
          static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}

void BM_StencilSimultaneous(benchmark::State& state) {
  Fixture f(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    f.lap.apply_block_simultaneous(f.in, f.out);
    benchmark::DoNotOptimize(f.out.data());
  }
  const double flops_per_point = 2.0 * (6.0 * f.lap.radius() + 1.0);
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops_per_point * static_cast<double>(f.g.size()) *
          static_cast<double>(state.range(0)) *
          static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}

BENCHMARK(BM_StencilOneVectorAtATime)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(BM_StencilSimultaneous)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// Fused vs reference shifted-Hamiltonian block apply — the Sternheimer
// hot loop. The fused path is one sweep per column plus the block
// nonlocal gather-GEMM; the reference is the seed four-pass schedule.
// GB/s and AI come from the same per-column traffic model the solver
// telemetry uses (solver::shifted_apply_cost).
struct HamFixture {
  rsrpa::Rng rng{1};
  rsrpa::ham::Hamiltonian h{Grid3D::cubic(48, rsrpa::ham::kSiLatticeConstant),
                            6, rsrpa::ham::make_silicon_chain(1, 0.0, rng),
                            rsrpa::ham::ModelParams{}};
  Matrix<cplx> in, out;

  explicit HamFixture(std::size_t s)
      : in(h.grid().size(), s), out(h.grid().size(), s) {
    rsrpa::Rng fill(2);
    std::vector<double> re(h.grid().size()), im(h.grid().size());
    for (std::size_t j = 0; j < s; ++j) {
      fill.fill_uniform(re);
      fill.fill_uniform(im);
      auto col = in.col(j);
      for (std::size_t i = 0; i < col.size(); ++i) col[i] = {re[i], im[i]};
    }
  }
};

void shifted_apply_bench(benchmark::State& state, bool fused, bool simd) {
  HamFixture f(static_cast<std::size_t>(state.range(0)));
  f.h.set_fused_apply(fused);
  f.h.set_simd(simd);
  for (auto _ : state) {
    f.h.apply_shifted_block(f.in, f.out, 0.2, 1.0);
    benchmark::DoNotOptimize(f.out.data());
  }
  const rsrpa::solver::ApplyCostModel cost =
      rsrpa::solver::shifted_apply_cost(f.h, fused);
  const double cols = static_cast<double>(state.range(0)) *
                      static_cast<double>(state.iterations());
  state.counters["GFLOP/s"] = benchmark::Counter(
      cost.flops_per_column * cols * 1e-9, benchmark::Counter::kIsRate);
  state.counters["GB/s"] = benchmark::Counter(
      cost.bytes_per_column * cols * 1e-9, benchmark::Counter::kIsRate);
  state.counters["AI"] = benchmark::Counter(
      cost.flops_per_column / cost.bytes_per_column);
}

void BM_ShiftedApplyFused(benchmark::State& state) {
  shifted_apply_bench(state, true, true);
}

// Rung 1 of the speedup ladder: the fused pipeline with the scalar
// stencil rows (the mandatory runtime fallback).
void BM_ShiftedApplyFusedScalar(benchmark::State& state) {
  shifted_apply_bench(state, true, false);
}

void BM_ShiftedApplyReference(benchmark::State& state) {
  shifted_apply_bench(state, false, false);
}

BENCHMARK(BM_ShiftedApplyFusedScalar)->Arg(8);
BENCHMARK(BM_ShiftedApplyFused)->Arg(8);
BENCHMARK(BM_ShiftedApplyReference)->Arg(8);

// Console reporter that additionally captures every run (name, iteration
// count, per-iteration time, finalized counters such as GFLOP/s) into a
// Json array for the bench_out report.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(rsrpa::obs::Json* out) : out_(out) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      rsrpa::obs::Json r = rsrpa::obs::Json::object();
      r["name"] = rsrpa::obs::Json(run.benchmark_name());
      r["iterations"] = rsrpa::obs::Json(
          static_cast<long long>(run.iterations));
      r["real_time_per_iteration_s"] = rsrpa::obs::Json(
          run.iterations > 0 ? run.real_accumulated_time /
                                   static_cast<double>(run.iterations)
                             : 0.0);
      for (const auto& kv : run.counters)
        r[kv.first] = rsrpa::obs::Json(static_cast<double>(kv.second.value));
      out_->push_back(std::move(r));
    }
    ConsoleReporter::ReportRuns(reports);
  }

 private:
  rsrpa::obs::Json* out_;
};

double gflops_of(const rsrpa::obs::Json& runs, const std::string& name) {
  for (const auto& r : runs.as_array()) {
    const rsrpa::obs::Json* n = r.find("name");
    const rsrpa::obs::Json* g = r.find("GFLOP/s");
    if (n != nullptr && g != nullptr && n->as_string() == name)
      return g->as_double();
  }
  return 0.0;
}

double seconds_of(const rsrpa::obs::Json& runs, const std::string& name) {
  for (const auto& r : runs.as_array()) {
    const rsrpa::obs::Json* n = r.find("name");
    const rsrpa::obs::Json* t = r.find("real_time_per_iteration_s");
    if (n != nullptr && t != nullptr && n->as_string() == name)
      return t->as_double();
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  rsrpa::bench::JsonReport report(
      "a1_stencil_ai", "SS III-C analysis",
      "per-vector stencil application sustains at least the throughput of "
      "the simultaneous schedule (fast-memory model)");

  rsrpa::obs::Json runs = rsrpa::obs::Json::array();
  CapturingReporter reporter(&runs);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const std::size_t n_run = benchmark::RunSpecifiedBenchmarks(&reporter);

  const double one16 = gflops_of(runs, "BM_StencilOneVectorAtATime/16");
  const double sim16 = gflops_of(runs, "BM_StencilSimultaneous/16");
  const double t_scalar = seconds_of(runs, "BM_ShiftedApplyFusedScalar/8");
  const double t_fused = seconds_of(runs, "BM_ShiftedApplyFused/8");
  const double t_ref = seconds_of(runs, "BM_ShiftedApplyReference/8");
  const double speedup = t_fused > 0.0 ? t_ref / t_fused : 0.0;
  const double simd_speedup = t_fused > 0.0 ? t_scalar / t_fused : 0.0;
  const bool simd_compiled = StencilLaplacian::simd_compiled();
  report.data()["runs"] = std::move(runs);
  report.data()["gflops_one_at_a_time_s16"] = rsrpa::obs::Json(one16);
  report.data()["gflops_simultaneous_s16"] = rsrpa::obs::Json(sim16);
  report.data()["shifted_apply_fused_scalar_s"] = rsrpa::obs::Json(t_scalar);
  report.data()["shifted_apply_fused_s"] = rsrpa::obs::Json(t_fused);
  report.data()["shifted_apply_reference_s"] = rsrpa::obs::Json(t_ref);
  report.data()["fused_speedup"] = rsrpa::obs::Json(speedup);
  report.data()["simd_speedup"] = rsrpa::obs::Json(simd_speedup);
  report.data()["simd_compiled"] = rsrpa::obs::Json(simd_compiled);
  std::printf("\ns=16 throughput: one-at-a-time %.2f GFLOP/s vs simultaneous "
              "%.2f GFLOP/s\n",
              one16, sim16);
  std::printf("shifted apply s=8: fused %.4f s vs reference %.4f s "
              "(speedup %.2fx)\n",
              t_fused, t_ref, speedup);
  std::printf("speedup ladder s=8: fused %.4f s -> fused+SIMD %.4f s "
              "(%.2fx)%s\n",
              t_scalar, t_fused, simd_speedup,
              simd_compiled ? "" : "  [SIMD not compiled: ladder waived]");
  report.add_check("all benchmark runs captured with throughput counters",
                   n_run == 13 && one16 > 0.0 && sim16 > 0.0);
  // Machine-load-tolerant version of the paper claim: the per-vector
  // schedule should at least be in the same league as the simultaneous one.
  report.add_check("one-at-a-time sustains >= 0.5x simultaneous at s=16",
                   one16 >= 0.5 * sim16);
  report.add_check("fused shifted apply >= 1.5x faster than the seed path",
                   speedup >= 1.5);
  // Speedup-ladder acceptance rung. On builds without RSRPA_SIMD the
  // vectorized rung degenerates to the scalar path, so the check is
  // waived (pass) rather than reporting a spurious regression.
  report.add_check("ladder: fused+SIMD >= 1.2x over fused (one core)",
                   !simd_compiled || simd_speedup >= 1.2);
  return report.finish();
}
