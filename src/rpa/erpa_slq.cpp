#include "rpa/erpa_slq.hpp"

#include <cmath>
#include <filesystem>

#include "io/checkpoint.hpp"
#include "rpa/checkpoint_driver.hpp"
#include "rpa/erpa.hpp"
#include "rpa/quadrature.hpp"
#include "rpa/trace_est.hpp"

namespace rsrpa::rpa {

SlqRpaResult compute_rpa_energy_slq(const dft::KsSystem& sys,
                                    const poisson::KroneckerLaplacian& klap,
                                    const SlqRpaOptions& opts) {
  RSRPA_REQUIRE(opts.ell >= 1 && opts.n_probes >= 1 && opts.lanczos_steps >= 1);
  RSRPA_REQUIRE(opts.target_rel_ci >= 0.0 && opts.max_probes >= 0);

  WallTimer total;
  SlqRpaResult out;
  NuChi0Operator op(sys, klap, opts.stern);
  const auto quad = rpa_frequency_quadrature(opts.ell);
  Rng rng(opts.seed);

  // Probe budget per point: fixed n_probes, or — with the adaptive CI
  // stop rule armed — batches of n_probes up to the cap.
  const bool adaptive = opts.target_rel_ci > 0.0;
  const int probe_cap =
      adaptive ? (opts.max_probes > 0 ? opts.max_probes : 8 * opts.n_probes)
               : opts.n_probes;

  const CheckpointOptions& copts = opts.checkpoint;
  const bool checkpointing = !copts.path.empty();
  const std::uint64_t fingerprint =
      checkpointing ? io::slq_run_fingerprint(sys, opts) : 0;

  long applies = 0;
  int k0 = 0;
  if (checkpointing && copts.resume && std::filesystem::exists(copts.path)) {
    io::RunCheckpoint ck = io::load_run_checkpoint(copts.path, fingerprint);
    k0 = detail::restore_slq_checkpoint(std::move(ck), opts, out, applies,
                                        rng);
  }

  for (int k = k0; k < opts.ell; ++k) {
    check_run_control(opts.control);
    const QuadPoint& q = quad[static_cast<std::size_t>(k)];
    WallTimer omega_timer;
    const long applies_before = applies;
    solver::BlockOpR mop = [&op, &q, &applies](const la::Matrix<double>& in,
                                               la::Matrix<double>& o) {
      op.apply(in, o, q.omega, nullptr, nullptr);
      applies += static_cast<long>(in.cols());
    };

    // Probes arrive in batches; the driver RNG advances sequentially
    // through them, so the sample stream — and everything downstream of
    // it — is identical whether a point used one batch or five, resumed
    // or ran straight through.
    std::vector<double> samples;
    double e_term = 0.0, stddev = 0.0, ci_halfwidth = 0.0;
    while (true) {
      const int batch = std::min(
          opts.n_probes, probe_cap - static_cast<int>(samples.size()));
      // The spectrum of M is non-positive; Ritz values may poke slightly
      // above zero from Lanczos rounding and loose Sternheimer solves, so
      // clamp before ln(1 - x).
      const std::vector<double> more = slq_trace_samples(
          mop, sys.n_grid(),
          [](double x) { return rpa_trace_term(std::min(x, 0.0)); }, batch,
          opts.lanczos_steps, rng);
      samples.insert(samples.end(), more.begin(), more.end());

      const double n = static_cast<double>(samples.size());
      e_term = 0.0;
      for (double s : samples) e_term += s;
      e_term /= n;
      stddev = 0.0;
      if (samples.size() > 1) {
        double ss = 0.0;
        for (double s : samples) ss += (s - e_term) * (s - e_term);
        stddev = std::sqrt(ss / (n - 1.0));
      }
      ci_halfwidth = samples.size() > 1 ? 1.96 * stddev / std::sqrt(n) : 0.0;

      if (static_cast<int>(samples.size()) >= probe_cap) break;
      // Stop once the 95% half-width is within target_rel_ci of the
      // estimate. Compared multiplicatively so an exactly-zero estimate
      // keeps sampling to the cap instead of dividing by it.
      if (adaptive && samples.size() > 1 &&
          ci_halfwidth <= opts.target_rel_ci * std::abs(e_term))
        break;
    }

    SlqOmegaRecord rec;
    rec.omega = q.omega;
    rec.weight = q.weight;
    rec.e_term = e_term;
    rec.n_probes = static_cast<int>(samples.size());
    rec.lanczos_steps = opts.lanczos_steps;
    rec.probe_stddev = stddev;
    rec.ci_halfwidth = ci_halfwidth;
    rec.rel_ci = e_term != 0.0 ? ci_halfwidth / std::abs(e_term) : 0.0;
    rec.matvec_columns = applies - applies_before;
    rec.seconds = omega_timer.seconds();
    out.events.emit(obs::events::kSlqOmegaEstimate,
                    "stochastic trace estimate",
                    {{"omega_index", static_cast<double>(k)},
                     {"omega", q.omega},
                     {"e_term", e_term},
                     {"probe_stddev", rec.probe_stddev},
                     {"n_probes", static_cast<double>(rec.n_probes)},
                     {"ci_halfwidth", rec.ci_halfwidth},
                     {"rel_ci", rec.rel_ci},
                     {"matvec_columns", static_cast<double>(rec.matvec_columns)}});
    out.e_terms.push_back(e_term);
    out.e_rpa += q.weight * e_term / (2.0 * M_PI);
    out.per_omega.push_back(rec);
    out.matvec_columns = applies;

    if (checkpointing) {
      io::save_run_checkpoint(
          copts.path,
          detail::make_slq_checkpoint(fingerprint, k + 1, opts, out, rng));
      detail::after_checkpoint_write(copts, k);
    }
  }

  out.matvec_columns = applies;
  out.e_rpa_per_atom = out.e_rpa / static_cast<double>(sys.h->crystal().n_atoms());
  out.total_seconds = total.seconds();
  return out;
}

}  // namespace rsrpa::rpa
