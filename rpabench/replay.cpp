// Layer-replay harness of the rsrpa end-to-end benchmark.
//
// Rebuilds one workload's system from its .rpa input and times calls into
// each layer's public functions, once with a 1-lane pool (the serial
// baseline) and once with N lanes:
//
//   dft          rpa::build_system (crystal, Hamiltonian, CheFSI, Kronecker nu)
//   rpa          rpa::NuChi0Operator::apply on an n_d x n_eig block
//   solver       solver::block_cocg on one orbital's shifted system, s = 1, 8
//   hamiltonian  ham::Hamiltonian::apply_shifted_block, s = 1, 8
//   poisson      poisson::KroneckerLaplacian::apply_nu_sqrt_block
//   la           la::gemm_tn at the Rayleigh-Ritz and ISDF-assemble shapes,
//                la::sym_eig_gen at the Rayleigh-Ritz size
//   io           io::save_run_checkpoint / io::load_run_checkpoint on the
//                checkpoint a run wrote (when one is given)
//
// Only these low-level entry points are called, so the harness keeps
// working when the drivers above them are merged. Every call is a span
// (name, start, end, parent, lane) kept in memory and written out as a
// Chrome trace_event file; the metrics go to stdout as one JSON object.
//
//   rpabench_replay <workload.rpa> <lanes> <trace.json> [checkpoint]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "io/checkpoint.hpp"
#include "la/blas.hpp"
#include "la/eig.hpp"
#include "rpa/nu_chi0.hpp"
#include "rpa/presets.hpp"
#include "rpa/quadrature.hpp"
#include "sched/thread_pool.hpp"
#include "solver/block_cocg.hpp"

namespace {

using namespace rsrpa;

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    int lanes = 1;
  };

  /// RAII span: opened on construction, closed on destruction; nested
  /// scopes become children of the innermost open span.
  class Scope {
   public:
    Scope(Tracer& t, std::string name) : t_(t), id_(t.open(std::move(name))) {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_;
  };

  void set_lanes(int lanes) { lanes_ = lanes; }

  /// Run `f` in a span named `name` at least `min_reps` times and until
  /// `min_seconds` have passed (at most `max_reps`); returns the median
  /// seconds per call.
  template <class F>
  double time_median(const std::string& name, F&& f, int min_reps = 3,
                     double min_seconds = 0.2, int max_reps = 200) {
    std::vector<double> secs;
    double total = 0.0;
    while (static_cast<int>(secs.size()) < min_reps ||
           (total < min_seconds && static_cast<int>(secs.size()) < max_reps)) {
      const int id = open(name);
      f();
      close(id);
      secs.push_back((spans_[id].end_us - spans_[id].start_us) * 1e-6);
      total += secs.back();
    }
    std::sort(secs.begin(), secs.end());
    const std::size_t n = secs.size();
    return n % 2 == 1 ? secs[n / 2] : 0.5 * (secs[n / 2 - 1] + secs[n / 2]);
  }

  void write(const std::string& path) const {
    std::ofstream f(path);
    f << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string parent =
          s.parent < 0 ? "" : spans_[static_cast<std::size_t>(s.parent)].name;
      char line[512];
      std::snprintf(line, sizeof line,
                    "{\"name\": \"%s\", \"cat\": \"replay\", \"ph\": \"X\", "
                    "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 2, \"tid\": %d, "
                    "\"args\": {\"id\": %zu, \"parent_id\": %d, "
                    "\"parent\": \"%s\", \"lanes\": %d}}%s\n",
                    s.name.c_str(), s.start_us, s.end_us - s.start_us,
                    s.lanes, i, s.parent, parent.c_str(), s.lanes,
                    i + 1 < spans_.size() ? "," : "");
      f << line;
    }
    f << "], \"displayTimeUnit\": \"ms\"}\n";
  }

 private:
  int open(std::string name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), now_us(), 0.0,
                      stack_.empty() ? -1 : stack_.back(), lanes_});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    stack_.pop_back();
  }
  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int lanes_ = 1;
};

/// The subset of the .rpa keys that shapes the layers replayed here, with
/// rpacalc's defaults.
struct Workload {
  rpa::SystemPreset preset;
  std::size_t n_eig = 0;
  int ell = 8;
  rpa::SternheimerOptions stern;
};

Workload read_workload(const std::string& path) {
  const Config cfg = Config::parse_file(path);
  Workload w;
  w.preset.ncells = static_cast<std::size_t>(cfg.get_int_or("N_CELLS", 1));
  w.preset.grid_per_cell =
      static_cast<std::size_t>(cfg.get_int_or("GRID_PER_CELL", 11));
  w.preset.fd_radius = cfg.get_int_or("FD_RADIUS", 4);
  w.preset.perturbation = cfg.get_double_or("PERTURBATION", 0.01);
  w.preset.seed = static_cast<std::uint64_t>(cfg.get_int_or("SEED", 7));
  w.n_eig = static_cast<std::size_t>(
      cfg.get_int_or("N_NUCHI_EIGS", static_cast<int>(w.preset.n_eig())));
  w.ell = cfg.get_int_or("N_OMEGA", 8);
  w.stern.tol = cfg.get_double_or("TOL_STERN_RES", 1e-2);
  w.stern.galerkin_guess = cfg.get_int_or("FLAG_COCGINITIAL", 1) != 0;
  w.stern.dynamic_block = cfg.get_int_or("DYNAMIC_BLOCK", 1) != 0;
  w.stern.fixed_block = cfg.get_int_or("BLOCK_SIZE", 1);
  return w;
}

template <class T>
la::Matrix<T> random_block(std::size_t rows, std::size_t cols, Rng& rng) {
  la::Matrix<T> m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    if constexpr (std::is_same_v<T, double>)
      m.data()[i] = rng.normal();
    else
      m.data()[i] = T{rng.normal(), rng.normal()};
  }
  return m;
}

using Metrics = std::map<std::string, double>;

/// One pass over every layer with the global pool at `lanes` lanes. Keys
/// are the benchmark's metric names; the caller renames per-lane ones.
Metrics replay_pass(Tracer& tr, const Workload& w, int lanes,
                    const std::string& checkpoint) {
  sched::set_global_threads(lanes);
  tr.set_lanes(lanes);
  Tracer::Scope pass(tr, "replay_pass");
  const sched::PoolStats pool0 = sched::global_pool().stats();
  const auto wall0 = std::chrono::steady_clock::now();
  Metrics m;

  rpa::BuiltSystem sys;
  m["dft.build_system_s"] = tr.time_median(
      "dft.build_system", [&] { sys = rpa::build_system(w.preset); }, 3, 0.0);
  const dft::KsSystem& ks = sys.ks;
  const ham::Hamiltonian& h = *sys.h;
  const std::size_t n_d = ks.n_grid();
  const std::size_t n_occ = ks.n_occ();
  const std::size_t n_eig = w.n_eig;
  // One fixed interior frequency: the middle node of the workload's own
  // quadrature.
  const auto nodes = rpa::rpa_frequency_quadrature(w.ell);
  const double omega = nodes[nodes.size() / 2].omega;
  Rng rng(w.preset.seed + 17);

  {
    const rpa::NuChi0Operator op(ks, *sys.klap, w.stern);
    const la::Matrix<double> v = random_block<double>(n_d, n_eig, rng);
    la::Matrix<double> out(n_d, n_eig);
    m["rpa.chi0_apply_replay_s"] = tr.time_median(
        "rpa.NuChi0Operator::apply", [&] { op.apply(v, out, omega); }, 3, 0.0);
  }

  {
    // One orbital's Sternheimer system: the highest occupied state (the
    // smallest shift, the slowest to converge), right-hand side -(v . psi_j).
    const std::size_t j = n_occ - 1;
    const auto psi = ks.orbitals.col(j);
    const solver::ShiftedHamiltonianOp ham_op(h, ks.eigenvalues[j], omega);
    solver::SolverOptions sopts;
    sopts.tol = w.stern.tol;
    sopts.max_iter = w.stern.max_iter;
    for (const std::size_t s : {std::size_t{1}, std::size_t{8}}) {
      la::Matrix<la::cplx> b(n_d, s), y(n_d, s);
      const la::Matrix<double> v = random_block<double>(n_d, s, rng);
      for (std::size_t c = 0; c < s; ++c)
        for (std::size_t i = 0; i < n_d; ++i) b(i, c) = {-v(i, c) * psi[i], 0.0};
      solver::SolveReport rep;
      const std::string tag = "_s" + std::to_string(s);
      m["solver.cocg_replay" + tag + "_s"] =
          tr.time_median("solver::block_cocg" + tag, [&] {
            y.zero();
            rep = solver::block_cocg(std::cref(ham_op), b, y, sopts);
          });
      RSRPA_REQUIRE_MSG(rep.converged, "block_cocg replay did not converge");
      m["solver.cocg_iters" + tag] = rep.iterations;

      const la::Matrix<la::cplx> in = random_block<la::cplx>(n_d, s, rng);
      la::Matrix<la::cplx> out(n_d, s);
      const double sec = tr.time_median(
          "ham::Hamiltonian::apply_shifted_block" + tag,
          [&] { h.apply_shifted_block(in, out, ks.eigenvalues[j], omega); });
      m["hamiltonian.apply_ns_per_point" + tag] =
          sec * 1e9 / static_cast<double>(n_d * s);
    }
  }

  {
    la::Matrix<double> v = random_block<double>(n_d, n_eig, rng);
    m["poisson.nu_sqrt_block_replay_s"] =
        tr.time_median("poisson::KroneckerLaplacian::apply_nu_sqrt_block",
                       [&] { sys.klap->apply_nu_sqrt_block(v); });
  }

  {
    // Rayleigh-Ritz projection V^T (A V): n_d x n_eig operands.
    const la::Matrix<double> a = random_block<double>(n_d, n_eig, rng);
    const la::Matrix<double> b = random_block<double>(n_d, n_eig, rng);
    la::Matrix<double> c(n_eig, n_eig);
    const double rr = tr.time_median("la::gemm_tn[rayleigh_ritz]",
                                     [&] { la::gemm_tn(1.0, a, b, 0.0, c); });
    m["la.gemm_tn_rr_gflops"] =
        2.0 * static_cast<double>(n_d * n_eig * n_eig) / rr * 1e-9;

    // ISDF assemble W^T W: W is (n_occ n_vir) x nip with the backend's
    // default nip = 22 n_occ.
    const std::size_t nov = n_occ * (n_d - n_occ);
    const std::size_t nip = 22 * n_occ;
    const la::Matrix<double> wt = random_block<double>(nov, nip, rng);
    la::Matrix<double> k(nip, nip);
    const double isdf = tr.time_median(
        "la::gemm_tn[isdf_assemble]", [&] { la::gemm_tn(-1.0, wt, wt, 0.0, k); });
    m["la.gemm_isdf_gflops"] =
        2.0 * static_cast<double>(nov) * static_cast<double>(nip * nip) /
        isdf * 1e-9;

    // Generalized eigenproblem of the projected pencil (V^T A V, V^T V).
    la::Matrix<double> hs(n_eig, n_eig), ms(n_eig, n_eig);
    la::gemm_tn(1.0, a, b, 0.0, c);
    la::gemm_tn(1.0, a, a, 0.0, ms);
    for (std::size_t jj = 0; jj < n_eig; ++jj)
      for (std::size_t ii = 0; ii < n_eig; ++ii)
        hs(ii, jj) = 0.5 * (c(ii, jj) + c(jj, ii));
    m["la.sym_eig_gen_replay_s"] = tr.time_median(
        "la::sym_eig_gen", [&] { (void)la::sym_eig_gen(hs, ms); });
  }

  m["io.save_replay_s"] = 0.0;
  m["io.load_replay_s"] = 0.0;
  if (!checkpoint.empty()) {
    io::RunCheckpoint ck;
    m["io.load_replay_s"] = tr.time_median(
        "io::load_run_checkpoint",
        [&] { ck = io::load_run_checkpoint(checkpoint); });
    const std::string copy = checkpoint + ".replay";
    m["io.save_replay_s"] = tr.time_median(
        "io::save_run_checkpoint", [&] { io::save_run_checkpoint(copy, ck); });
    std::filesystem::remove(copy);
  }

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  const sched::PoolStats pool = sched::global_pool().stats().since(pool0);
  m["sched.busy_frac"] = pool.busy_seconds / (wall * pool.threads);
  m["sched.steals"] = static_cast<double>(pool.steals);
  m["sched.queue_s"] = pool.queue_seconds;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4 || argc > 5) {
    std::fprintf(stderr,
                 "usage: rpabench_replay <workload.rpa> <lanes> <trace.json> "
                 "[checkpoint]\n");
    return 2;
  }
  try {
    const Workload w = read_workload(argv[1]);
    const int lanes = std::stoi(argv[2]);
    const std::string checkpoint = argc == 5 ? argv[4] : "";
    Tracer tr;
    const Metrics serial = replay_pass(tr, w, 1, checkpoint);
    Metrics m = replay_pass(tr, w, lanes, checkpoint);
    m["rpa.chi0_apply_replay_t1_s"] = serial.at("rpa.chi0_apply_replay_s");
    m["rpa.chi0_apply_replay_tN_s"] = m.at("rpa.chi0_apply_replay_s");
    m.erase("rpa.chi0_apply_replay_s");
    tr.write(argv[3]);

    std::printf("{");
    const char* sep = "";
    for (const auto& [key, value] : m) {
      std::printf("%s\"%s\": %.9g", sep, key.c_str(), value);
      sep = ", ";
    }
    std::printf("}\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rpabench_replay: %s\n", e.what());
    return 1;
  }
  return 0;
}
