#include "rpa/erpa.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <set>
#include <string>
#include <utility>

#include "io/checkpoint.hpp"
#include "rpa/checkpoint_driver.hpp"
#include "rpa/ssa.hpp"
#include "solver/resilience.hpp"

namespace rsrpa::rpa {

double rpa_trace_term(double mu) {
  // ln(1 - mu) is undefined for mu >= 1. The physical spectrum of
  // nu chi0(i omega) is non-positive, so a mu there signals a broken
  // subspace (e.g. a wildly inexact Sternheimer solve) — recoverable by
  // the driver, not worth aborting the whole quadrature over.
  if (mu >= 1.0) return std::numeric_limits<double>::quiet_NaN();
  return std::log1p(-mu) + mu;
}

double accumulate_trace_terms(const std::vector<double>& eigenvalues,
                              int omega_index, OmegaRecord& rec,
                              obs::EventLog* events) {
  double sum = 0.0;
  for (double mu : eigenvalues) {
    if (mu >= 1.0) {
      ++rec.invalid_terms;
      rec.worst_mu = std::max(rec.worst_mu, mu);
      rec.converged = false;
      if (events != nullptr)
        events->emit(obs::events::kTraceTermDomain,
                     "ln(1 - mu) undefined: skipping eigenvalue",
                     {{"omega_index", static_cast<double>(omega_index)},
                      {"mu", mu}});
      continue;
    }
    sum += rpa_trace_term(mu);
  }
  rec.e_term = sum;
  return sum;
}

double tol_for_point(const RpaOptions& opts, int k, obs::EventLog* events,
                     bool* warned) {
  RSRPA_REQUIRE(k >= 0 && k < opts.ell);
  if (opts.tol_eig.empty()) return 5e-4;
  if (opts.tol_eig.size() > static_cast<std::size_t>(opts.ell) &&
      events != nullptr && (warned == nullptr || !*warned)) {
    events->emit(obs::events::kTolEigTruncated,
                 "TOL_EIG has more entries than N_OMEGA; the excess is "
                 "ignored",
                 {{"tol_eig_entries", static_cast<double>(opts.tol_eig.size())},
                  {"ell", static_cast<double>(opts.ell)}});
    if (warned != nullptr) *warned = true;
  }
  return opts.tol_eig[std::min(static_cast<std::size_t>(k),
                               opts.tol_eig.size() - 1)];
}

namespace {

// Sorted, deduplicated V-column indices quarantined since `idx_before`
// (a cursor into SternheimerStats::quarantined_column_indices taken at
// the start of the quadrature point).
std::vector<long> quarantined_columns_since(const SternheimerStats& stern,
                                            std::size_t idx_before) {
  const std::vector<long>& all = stern.quarantined_column_indices;
  if (idx_before >= all.size()) return {};
  const std::set<long> uniq(
      all.begin() + static_cast<std::ptrdiff_t>(idx_before), all.end());
  return {uniq.begin(), uniq.end()};
}

// Warm-start hygiene: refill the quarantined columns of `v` from
// decorrelated Rng::derive streams keyed on (quadrature point, column) —
// never on the engine position, slice or thread identity — and emit a
// warm_start_reseed event. Without this the chain of paper SS III-F
// carries initial-guess garbage from a degraded point into every omega
// downstream of it.
void reseed_quarantined_columns(la::Matrix<double>& v,
                                const std::vector<long>& cols,
                                const Rng& rng, int omega_index,
                                obs::EventLog& events) {
  for (long c : cols) {
    if (c < 0 || static_cast<std::size_t>(c) >= v.cols()) continue;
    // omega_index + 1 keeps point 0 distinct from the plain column
    // streams used elsewhere.
    const std::uint64_t stream =
        (static_cast<std::uint64_t>(omega_index) + 1) << 32 |
        static_cast<std::uint64_t>(c);
    rng.derive(stream).fill_uniform(v.col(static_cast<std::size_t>(c)));
  }
  events.emit(obs::events::kWarmStartReseed,
              "re-randomized quarantined warm-start columns before the "
              "next quadrature point",
              {{"omega_index", static_cast<double>(omega_index)},
               {"columns", static_cast<double>(cols.size())}});
}

// Snapshot the engine state after `completed_points` quadrature points.
// Slice times travel only in run_parallel_rpa checkpoints (n_ranks > 0);
// matmult/eigensolve_seconds repeat the timers for the version-1 layout.
io::RunCheckpoint make_checkpoint(std::uint64_t fingerprint,
                                  int completed_points, const RpaOptions& opts,
                                  std::size_t n_ranks, const RpaResult& result,
                                  const SliceTimes& slices,
                                  const la::Matrix<double>& v,
                                  const Rng& rng) {
  io::RunCheckpoint ck;
  ck.fingerprint = fingerprint;
  ck.completed_points = completed_points;
  ck.ell = opts.ell;
  ck.e_rpa_partial = result.e_rpa;
  ck.degraded = result.degraded;
  ck.converged = result.converged;
  ck.rng_state = rng.save_state();
  ck.per_omega = result.per_omega;
  ck.stern = result.stern;
  ck.timers = result.timers;
  ck.events = result.events;
  ck.v = v;
  if (n_ranks > 0) {
    ck.parallel = true;
    ck.matmult_seconds = result.timers.get(kernels::kMatmult);
    ck.eigensolve_seconds = result.timers.get(kernels::kEigensolve);
    ck.error_checks = slices.error_checks;
    ck.rank_apply_seconds = slices.apply_seconds;
    ck.rank_error_seconds = slices.error_seconds;
  }
  return ck;
}

// Restore a loaded checkpoint into the engine state; validates that it
// came from the same entry point and sweep shape, emits run_resumed into
// the lifecycle sink, and returns the first quadrature point still to run.
int restore_checkpoint(io::RunCheckpoint&& ck, const RpaOptions& opts,
                       std::size_t n_ranks, RpaResult& result,
                       SliceTimes& slices, la::Matrix<double>& v, Rng& rng) {
  RSRPA_REQUIRE_MSG(ck.parallel == (n_ranks > 0),
                    std::string("checkpoint was written by the ") +
                        (ck.parallel ? "parallel" : "serial") +
                        " driver; refusing to resume in the other one");
  // Belt and braces: the fingerprint already covers these, but a stale
  // file loaded with expected_fingerprint == 0 must still fail loudly.
  RSRPA_REQUIRE_MSG(ck.ell == opts.ell, "checkpoint ell mismatch");
  RSRPA_REQUIRE_MSG(ck.v.rows() == v.rows() && ck.v.cols() == v.cols(),
                    "checkpoint subspace shape mismatch");
  if (ck.parallel) {
    RSRPA_REQUIRE_MSG(ck.rank_apply_seconds.size() == n_ranks &&
                          ck.rank_error_seconds.size() == n_ranks,
                      "checkpoint rank count mismatch");
    slices.apply_seconds = std::move(ck.rank_apply_seconds);
    slices.error_seconds = std::move(ck.rank_error_seconds);
    slices.error_checks = ck.error_checks;
  }
  const int completed = ck.completed_points;
  // Assign into the existing objects: the engine has already handed out
  // pointers to result.stern/timers/events (the SlicedApply sinks), so
  // they must keep their addresses.
  result.e_rpa = ck.e_rpa_partial;
  result.converged = ck.converged;
  result.degraded = ck.degraded;
  result.per_omega = std::move(ck.per_omega);
  result.stern = std::move(ck.stern);
  result.timers = std::move(ck.timers);
  result.events = std::move(ck.events);
  v = std::move(ck.v);
  rng = Rng::load_state(ck.rng_state);
  if (opts.checkpoint.events != nullptr)
    opts.checkpoint.events->emit(
        obs::events::kRunResumed, "resumed from " + opts.checkpoint.path,
        {{"completed_points", static_cast<double>(completed)},
         {"ell", static_cast<double>(ck.ell)}});
  return completed;
}

}  // namespace

QuadratureRun run_quadrature(const dft::KsSystem& sys,
                             const poisson::KroneckerLaplacian& klap,
                             const RpaOptions& opts, std::size_t n_ranks) {
  RSRPA_REQUIRE_MSG(opts.n_eig >= 1 && opts.n_eig <= sys.n_grid(),
                    "n_eig must be in [1, n_d]");
  RSRPA_REQUIRE(opts.ell >= 1);

  WallTimer total;
  QuadratureRun run;
  RpaResult& result = run.rpa;
  NuChi0Operator op(sys, klap, opts.stern);
  // Solver telemetry (single-column fallbacks, apply counters) lands in
  // the result's event log, slice logs merged in slice order.
  SlicedApply apply(op, std::max<std::size_t>(n_ranks, 1), &result.stern,
                    &result.timers, &result.events);
  const std::vector<QuadPoint> quad = rpa_frequency_quadrature(opts.ell);

  // V carries the subspace across quadrature points (warm start).
  Rng rng(opts.seed);
  la::Matrix<double> v(sys.n_grid(), opts.n_eig);
  for (std::size_t j = 0; j < opts.n_eig; ++j) rng.fill_uniform(v.col(j));

  // The fingerprint covers the options as given — for run_parallel_rpa
  // after its max_block cap, the configuration actually computed with —
  // and n_ranks, so neither entry point resumes the other's file.
  const CheckpointOptions& copts = opts.checkpoint;
  const bool checkpointing = !copts.path.empty();
  const std::uint64_t fingerprint =
      checkpointing ? io::run_fingerprint(sys, opts, n_ranks) : 0;

  int k0 = 0;
  bool tol_warned = false;
  if (checkpointing && copts.resume && std::filesystem::exists(copts.path)) {
    k0 = restore_checkpoint(io::load_run_checkpoint(copts.path, fingerprint),
                            opts, n_ranks, result, apply.times(), v, rng);
    // The restored event log already carries point 0's one-time TOL_EIG
    // warning (if any); don't emit it twice.
    tol_warned = true;
  }

  // Fault injection can be restricted to one quadrature point; the scope
  // guard owns the per-point toggling of the live operator's fault mode
  // and restores the requested mode on every exit path.
  solver::FaultModeScope fault_scope(op.chi0().options().fault.mode);

  for (int k = k0; k < opts.ell; ++k) {
    check_run_control(opts.control);
    const QuadPoint& q = quad[static_cast<std::size_t>(k)];
    WallTimer omega_timer;
    apply.set_omega(q.omega);

    if (fault_scope.requested() != solver::FaultMode::kNone)
      fault_scope.select_for_point(k, opts.fault_omega);

    const bool frozen = ssa_frozen(opts.ssa, k);
    if (frozen && k == opts.ssa.freeze_after)
      // First frozen point of a straight run; on a resume past this index
      // the restored event log already carries the event.
      result.events.emit(
          obs::events::kSsaBasisFrozen,
          "static subspace frozen; remaining points evaluated by projection",
          {{"omega_index", static_cast<double>(k)},
           {"basis_columns", static_cast<double>(v.cols())}});

    // Without warm start each point restarts from a fresh random block —
    // except in the frozen phase, where the elision basis must survive.
    if (!opts.warm_start && k > 0 && !frozen)
      for (std::size_t j = 0; j < opts.n_eig; ++j) rng.fill_uniform(v.col(j));

    SubspaceOptions sopts;
    sopts.tol = tol_for_point(opts, k, &result.events, &tol_warned);
    sopts.max_filter_iter = opts.max_filter_iter;
    sopts.cheb_degree = opts.cheb_degree;

    const long quarantined_before = result.stern.quarantined_columns;
    const std::size_t quarantine_idx_before =
        result.stern.quarantined_column_indices.size();
    const double bytes_before = result.stern.matvec_bytes;
    const double flops_before = result.stern.matvec_flops;

    OmegaRecord rec;
    rec.omega = q.omega;
    rec.weight = q.weight;

    bool solve_in_full = !frozen;
    if (frozen) {
      // Projection-only candidate: a handful of fused applies against the
      // frozen basis, small dense eigensolves, a-posteriori residual. The
      // augmentation target sits a factor under the guard so accepted
      // elisions clear it with margin.
      const SsaProjection proj = ssa_project(
          [&apply](const la::Matrix<double>& in, la::Matrix<double>& out) {
            apply(in, out);
          },
          v, q.omega, &result.events, 0.25 * opts.ssa.residual_tol);
      result.timers.add(kernels::kMatmult, proj.matmult_seconds);
      result.timers.add(kernels::kEigensolve, proj.eigensolve_seconds);
      apply.charge_error_check(proj.residual_seconds);
      rec.projection_residual = proj.residual;
      if (!proj.collapsed && proj.residual <= opts.ssa.residual_tol) {
        rec.elided = true;
        rec.filter_iterations = 0;
        rec.error = proj.residual;
        rec.converged = true;
        rec.eigenvalues = proj.eigenvalues;
        result.events.emit(
            obs::events::kSsaPointElided,
            "quadrature point evaluated by static-subspace projection",
            {{"omega_index", static_cast<double>(k)},
             {"projection_residual", proj.residual}});
      } else {
        // Accuracy guard: the frozen basis no longer represents this
        // omega well enough — fall back to a full solve.
        rec.fallback = true;
        solve_in_full = true;
        result.events.emit(
            obs::events::kSsaFallback,
            "projection residual above SSA_RESIDUAL_TOL; falling back to "
            "a full solve",
            {{"omega_index", static_cast<double>(k)},
             {"projection_residual", proj.residual},
             {"collapsed", proj.collapsed ? 1.0 : 0.0},
             {"refresh", opts.ssa.refresh ? 1.0 : 0.0}});
      }
    }

    if (solve_in_full) {
      // With SSA_REFRESH a fallback's converged eigenvectors become the
      // new frozen basis; off, the solve runs on a scratch copy and the
      // original basis stays frozen. Either way the fallback warm-starts
      // from the frozen basis — the best guess available.
      la::Matrix<double> scratch;
      const bool keep_basis = rec.fallback && !opts.ssa.refresh;
      if (keep_basis) scratch = v;
      la::Matrix<double>& target = keep_basis ? scratch : v;
      const SubspaceResult sub = subspace_iteration(apply, target, sopts);
      rec.filter_iterations = sub.filter_iterations;
      rec.error = sub.error;
      rec.converged = sub.converged;
      rec.eigenvalues = sub.eigenvalues;
    }
    accumulate_trace_terms(rec.eigenvalues, k, rec, &result.events);
    rec.quarantined_columns =
        result.stern.quarantined_columns - quarantined_before;
    rec.quarantined_column_indices =
        quarantined_columns_since(result.stern, quarantine_idx_before);
    rec.matvec_bytes = result.stern.matvec_bytes - bytes_before;
    rec.matvec_flops = result.stern.matvec_flops - flops_before;
    if (rec.quarantined_columns > 0) {
      // The point's trace terms were computed from solves where the
      // quarantined columns still hold their initial guesses: finite, but
      // degraded. Flag it and keep going — one bad point must not kill
      // the quadrature.
      rec.converged = false;
      result.degraded = true;
      result.events.emit(
          obs::events::kQuadPointDegraded,
          "quadrature point computed with quarantined Sternheimer columns",
          {{"omega_index", static_cast<double>(k)},
           {"quarantined_columns",
            static_cast<double>(rec.quarantined_columns)}});
    }
    rec.seconds = omega_timer.seconds();
    result.e_rpa += q.weight * rec.e_term / (2.0 * M_PI);
    result.converged = result.converged && rec.converged;

    // Warm-start hygiene: a quarantined column's content is whatever the
    // recovery ladder froze it at — re-randomize before it seeds the next
    // point. Done before the checkpoint write so the persisted V already
    // includes the refill (resume needs no replay).
    if (opts.warm_start && k + 1 < opts.ell &&
        !rec.quarantined_column_indices.empty())
      reseed_quarantined_columns(v, rec.quarantined_column_indices, rng, k,
                                 result.events);
    result.per_omega.push_back(std::move(rec));

    if (checkpointing) {
      // Every slice sink has merged into `result` at this point, so the
      // snapshot is a consistent cut.
      io::save_run_checkpoint(
          copts.path, make_checkpoint(fingerprint, k + 1, opts, n_ranks,
                                      result, apply.times(), v, rng));
      detail::after_checkpoint_write(copts, k);
    }
  }

  const std::size_t n_atoms = sys.h->crystal().n_atoms();
  result.e_rpa_per_atom = result.e_rpa / static_cast<double>(n_atoms);
  result.total_seconds = total.seconds();
  run.slices = apply.times();
  return run;
}

RpaResult compute_rpa_energy(const dft::KsSystem& sys,
                             const poisson::KroneckerLaplacian& klap,
                             const RpaOptions& opts) {
  return run_quadrature(sys, klap, opts, 0).rpa;
}

}  // namespace rsrpa::rpa
