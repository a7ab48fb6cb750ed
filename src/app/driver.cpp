#include "app/driver.hpp"

#include "direct/direct_rpa.hpp"
#include "isdf/erpa_isdf.hpp"
#include "rpa/erpa.hpp"
#include "rpa/erpa_slq.hpp"
#include "rpa/quadrature.hpp"

namespace rsrpa::app {

DriverRun run_driver(const JobSpec& spec, const rpa::BuiltSystem& sys,
                     const rpa::RpaOptions& stern_opts) {
  DriverRun out;
  out.method = spec.method;

  switch (spec.method) {
    case Method::kSternheimer: {
      out.rpa = rpa::compute_rpa_energy(sys.ks, *sys.klap, stern_opts);
      out.has_rpa = true;
      out.e_rpa = out.rpa.e_rpa;
      out.e_rpa_per_atom = out.rpa.e_rpa_per_atom;
      out.converged = out.rpa.converged;
      out.degraded = out.rpa.degraded;
      out.total_seconds = out.rpa.total_seconds;
      for (const rpa::OmegaRecord& rec : out.rpa.per_omega)
        out.per_omega.push_back(
            {rec.omega, rec.weight, rec.e_term, rec.converged, rec.seconds});
      out.report = obs::to_json(out.rpa);
      break;
    }
    case Method::kDirect: {
      direct::DirectRpaResult res = direct::compute_direct_rpa(
          *sys.ks.h, sys.ks.n_occ(), *sys.klap, stern_opts.ell,
          /*keep_spectra=*/false, spec.direct_n_keep, stern_opts.control);
      out.e_rpa = res.e_rpa;
      out.e_rpa_per_atom = res.e_rpa_per_atom;
      out.total_seconds = res.total_seconds;
      const auto quad = rpa::rpa_frequency_quadrature(stern_opts.ell);
      for (std::size_t k = 0; k < res.e_terms.size(); ++k)
        out.per_omega.push_back(
            {quad[k].omega, quad[k].weight, res.e_terms[k], true, 0.0});
      out.report = obs::to_json(res);
      break;
    }
    case Method::kIsdf: {
      isdf::IsdfRpaOptions opts = spec.isdf;
      opts.control = stern_opts.control;
      isdf::IsdfRpaResult res =
          isdf::compute_rpa_energy_isdf(sys.ks, *sys.klap, opts);
      out.e_rpa = res.e_rpa;
      out.e_rpa_per_atom = res.e_rpa_per_atom;
      out.converged = res.converged;
      out.total_seconds = res.total_seconds;
      for (const rpa::OmegaRecord& rec : res.per_omega)
        out.per_omega.push_back(
            {rec.omega, rec.weight, rec.e_term, rec.converged, rec.seconds});
      out.report = obs::to_json(res);
      break;
    }
    case Method::kSlq: {
      rpa::SlqRpaOptions opts = spec.slq;
      opts.control = stern_opts.control;
      // The caller resolves the checkpoint policy onto stern_opts for
      // every method; the SLQ driver checkpoints too, so forward it.
      opts.checkpoint = stern_opts.checkpoint;
      rpa::SlqRpaResult res =
          rpa::compute_rpa_energy_slq(sys.ks, *sys.klap, opts);
      out.e_rpa = res.e_rpa;
      out.e_rpa_per_atom = res.e_rpa_per_atom;
      out.total_seconds = res.total_seconds;
      for (const rpa::SlqOmegaRecord& rec : res.per_omega)
        out.per_omega.push_back(
            {rec.omega, rec.weight, rec.e_term, true, rec.seconds});
      out.report = obs::to_json(res);
      break;
    }
  }
  return out;
}

}  // namespace rsrpa::app
