#include "io/checkpoint.hpp"

#include <cstring>
#include <fstream>
#include <sstream>

#include "io/snapshot.hpp"
#include "obs/run_report.hpp"

namespace rsrpa::io {

namespace {

constexpr char kCkptMagic[8] = {'R', 'S', 'R', 'P', 'A', 'C', '0', '1'};
constexpr char kCkptTrailer[8] = {'R', 'S', 'R', 'P', 'A', 'E', 'N', 'D'};

// FNV-1a over the byte images of the fingerprinted fields. Doubles are
// hashed bitwise: the resume contract is bitwise equivalence, so "almost
// the same tolerance" must count as a different run.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(long long v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { bytes(&v, sizeof v); }
  void f64s(const double* p, std::size_t n) { bytes(p, n * sizeof(double)); }
  void b(bool v) { u64(v ? 1u : 0u); }
  void str(const char* s) { bytes(s, std::strlen(s)); }
};

void write_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

std::uint64_t read_u64(std::istream& in, const char* what) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  RSRPA_REQUIRE_MSG(in.good(), std::string("checkpoint: truncated ") + what);
  return v;
}

obs::Json payload_json(const RunCheckpoint& ck) {
  obs::Json j = obs::Json::object();
  j["version"] = kRunCheckpointVersion;
  // As a decimal string: obs::Json integers are signed 64-bit and a
  // fingerprint's top bit is fair game.
  j["fingerprint"] = std::to_string(ck.fingerprint);
  j["completed_points"] = ck.completed_points;
  j["ell"] = ck.ell;
  j["e_rpa_partial"] = ck.e_rpa_partial;
  j["degraded"] = ck.degraded;
  j["converged"] = ck.converged;
  j["rng_state"] = ck.rng_state;
  obs::Json per_omega = obs::Json::array();
  for (const rpa::OmegaRecord& rec : ck.per_omega)
    per_omega.push_back(obs::to_json(rec));
  j["per_omega"] = std::move(per_omega);
  j["sternheimer"] = obs::to_json(ck.stern);
  j["timers"] = obs::to_json(ck.timers);
  j["events"] = obs::to_json(ck.events);
  if (ck.slq) {
    j["slq"] = true;
    obs::Json slq_per_omega = obs::Json::array();
    for (const rpa::SlqOmegaRecord& rec : ck.slq_per_omega)
      slq_per_omega.push_back(obs::to_json(rec));
    j["slq_per_omega"] = std::move(slq_per_omega);
  }
  if (ck.parallel) {
    obs::Json p = obs::Json::object();
    p["matmult_seconds"] = ck.matmult_seconds;
    p["eigensolve_seconds"] = ck.eigensolve_seconds;
    p["error_checks"] = ck.error_checks;
    obs::Json ra = obs::Json::array(), re = obs::Json::array();
    for (double s : ck.rank_apply_seconds) ra.push_back(s);
    for (double s : ck.rank_error_seconds) re.push_back(s);
    p["rank_apply_seconds"] = std::move(ra);
    p["rank_error_seconds"] = std::move(re);
    j["parallel"] = std::move(p);
  }
  return j;
}

RunCheckpoint payload_from_json(const obs::Json& j) {
  const std::int64_t version = j.at("version").as_int();
  RSRPA_REQUIRE_MSG(
      version == static_cast<std::int64_t>(kRunCheckpointVersion),
      "checkpoint: unsupported format version " + std::to_string(version));
  RunCheckpoint ck;
  ck.fingerprint = std::stoull(j.at("fingerprint").as_string());
  ck.completed_points = static_cast<int>(j.at("completed_points").as_int());
  ck.ell = static_cast<int>(j.at("ell").as_int());
  ck.e_rpa_partial = j.at("e_rpa_partial").as_double();
  ck.degraded = j.at("degraded").as_bool();
  ck.converged = j.at("converged").as_bool();
  ck.rng_state = j.at("rng_state").as_string();
  for (const obs::Json& rec : j.at("per_omega").as_array())
    ck.per_omega.push_back(obs::omega_record_from_json(rec));
  ck.stern = obs::sternheimer_stats_from_json(j.at("sternheimer"));
  ck.timers = obs::kernel_timers_from_json(j.at("timers"));
  ck.events = obs::event_log_from_json(j.at("events"));
  if (const obs::Json* p = j.find("parallel")) {
    ck.parallel = true;
    ck.matmult_seconds = p->at("matmult_seconds").as_double();
    ck.eigensolve_seconds = p->at("eigensolve_seconds").as_double();
    ck.error_checks = p->at("error_checks").as_int();
    for (const obs::Json& s : p->at("rank_apply_seconds").as_array())
      ck.rank_apply_seconds.push_back(s.as_double());
    for (const obs::Json& s : p->at("rank_error_seconds").as_array())
      ck.rank_error_seconds.push_back(s.as_double());
  }
  if (const obs::Json* s = j.find("slq")) {
    ck.slq = s->as_bool();
    for (const obs::Json& rec : j.at("slq_per_omega").as_array())
      ck.slq_per_omega.push_back(obs::slq_omega_record_from_json(rec));
  }
  // The record stream the driver resumes from must match the completed
  // count: slq_per_omega for the stochastic driver, per_omega otherwise.
  const std::size_t records =
      ck.slq ? ck.slq_per_omega.size() : ck.per_omega.size();
  RSRPA_REQUIRE_MSG(
      ck.completed_points >= 1 && ck.completed_points <= ck.ell &&
          records == static_cast<std::size_t>(ck.completed_points),
      "checkpoint: inconsistent completed-point count");
  return ck;
}

// The system: grid geometry and the exact Kohn-Sham state. Orbitals are
// hashed bitwise — the warm-start chain is only resumable against the
// very snapshot it was computed from.
void hash_system(Fnv1a& f, const dft::KsSystem& sys) {
  const grid::Grid3D& g = sys.h->grid();
  f.u64(g.nx());
  f.u64(g.ny());
  f.u64(g.nz());
  f.f64(g.lx());
  f.f64(g.ly());
  f.f64(g.lz());
  f.f64(sys.homo);
  f.f64(sys.lumo);
  f.u64(sys.eigenvalues.size());
  f.f64s(sys.eigenvalues.data(), sys.eigenvalues.size());
  f.u64(sys.orbitals.rows());
  f.u64(sys.orbitals.cols());
  f.f64s(sys.orbitals.data(), sys.orbitals.size());
}

void hash_sternheimer_options(Fnv1a& f, const rpa::SternheimerOptions& st) {
  f.f64(st.tol);
  f.i64(st.max_iter);
  f.b(st.dynamic_block);
  f.i64(st.fixed_block);
  f.i64(st.max_block);
  f.b(st.galerkin_guess);
  f.i64(st.stagnation_window);
  f.f64(st.stagnation_factor);
  f.b(st.resilience.enabled);
  f.i64(st.resilience.max_restarts);
  f.b(st.resilience.deflate);
  f.b(st.resilience.solver_swap);
  f.b(st.resilience.quarantine);
  f.i64(static_cast<long long>(st.fault.mode));
  f.i64(st.fault.at_apply);
  f.i64(st.fault.period);
  f.i64(st.fault.max_faults);
  f.f64(st.fault.magnitude);
  f.i64(st.fault.orbital);
  f.u64(st.fault.seed);
}

}  // namespace

std::uint64_t run_fingerprint(const dft::KsSystem& sys,
                              const rpa::RpaOptions& opts,
                              std::size_t n_ranks) {
  Fnv1a f;
  f.str("rsrpa.run_checkpoint/1");
  hash_system(f, sys);
  // RpaOptions, minus the checkpoint policy and event-sink pointers.
  f.u64(opts.n_eig);
  f.i64(opts.ell);
  f.u64(opts.tol_eig.size());
  f.f64s(opts.tol_eig.data(), opts.tol_eig.size());
  f.i64(opts.max_filter_iter);
  f.i64(opts.cheb_degree);
  f.b(opts.warm_start);
  f.u64(opts.seed);
  f.i64(opts.fault_omega);
  // SSA knobs change which points are elided and hence V's evolution, so
  // a checkpoint is only resumable under the same elision policy.
  f.i64(opts.ssa.freeze_after);
  f.f64(opts.ssa.residual_tol);
  f.b(opts.ssa.refresh);
  hash_sternheimer_options(f, opts.stern);
  f.u64(n_ranks);
  return f.h;
}

std::uint64_t slq_run_fingerprint(const dft::KsSystem& sys,
                                  const rpa::SlqRpaOptions& opts) {
  Fnv1a f;
  // A distinct domain tag: an SLQ checkpoint must never be accepted by a
  // Sternheimer resume for the same system, or vice versa.
  f.str("rsrpa.slq_checkpoint/1");
  hash_system(f, sys);
  // SlqRpaOptions, minus the checkpoint policy and control pointer.
  f.i64(opts.ell);
  f.i64(opts.n_probes);
  f.i64(opts.lanczos_steps);
  f.f64(opts.target_rel_ci);
  f.i64(opts.max_probes);
  f.u64(opts.seed);
  hash_sternheimer_options(f, opts.stern);
  return f.h;
}

void save_run_checkpoint(const std::string& path, const RunCheckpoint& ck) {
  const std::string payload = payload_json(ck).dump();
  atomic_write(path, [&](std::ostream& out) {
    out.write(kCkptMagic, 8);
    write_u64(out, payload.size());
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    save_matrix_stream(out, ck.v);
    out.write(kCkptTrailer, 8);
  });
}

RunCheckpoint load_run_checkpoint(const std::string& path,
                                  std::uint64_t expected_fingerprint) {
  std::ifstream in(path, std::ios::binary);
  RSRPA_REQUIRE_MSG(in.good(), "cannot open " + path);
  char magic[8] = {};
  in.read(magic, 8);
  RSRPA_REQUIRE_MSG(in.good() && std::memcmp(magic, kCkptMagic, 8) == 0,
                    "checkpoint: bad magic in " + path);
  const std::uint64_t len = read_u64(in, "payload length");
  RSRPA_REQUIRE_MSG(len > 0 && len < (1ull << 32),
                    "checkpoint: implausible payload length");
  std::string payload(static_cast<std::size_t>(len), '\0');
  in.read(payload.data(), static_cast<std::streamsize>(len));
  RSRPA_REQUIRE_MSG(in.good(), "checkpoint: truncated payload in " + path);

  RunCheckpoint ck = payload_from_json(obs::Json::parse(payload));
  ck.v = load_matrix_stream(in);
  char trailer[8] = {};
  in.read(trailer, 8);
  RSRPA_REQUIRE_MSG(in.good() && std::memcmp(trailer, kCkptTrailer, 8) == 0,
                    "checkpoint: missing trailer (torn write?) in " + path);
  RSRPA_REQUIRE_MSG(
      expected_fingerprint == 0 || ck.fingerprint == expected_fingerprint,
      "checkpoint: fingerprint mismatch — " + path +
          " was written for a different system or RpaOptions; refusing "
          "to resume");
  return ck;
}

}  // namespace rsrpa::io
