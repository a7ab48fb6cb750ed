// One entry point, four backends.
//
// run_driver maps a JobSpec's METHOD onto the matching E_RPA driver and
// normalizes the four result shapes into a DriverRun: the shared scalars
// every caller needs (energy, convergence, timing), uniform per-omega
// rows for printing, and the backend's full structured run-report payload
// (obs::to_json of the native result).
//
// Checkpoint/resume is a Sternheimer + SLQ capability (stern_opts's
// checkpoint policy is forwarded into the SLQ options here): direct and
// isdf recompute from scratch, so a cancelled run of those methods
// restarts at zero saved work (DESIGN.md "Cancellation boundaries"). All
// four backends poll stern_opts.control at quadrature-point boundaries,
// so cancel latency is one point for every method.
#pragma once

#include "app/job.hpp"
#include "obs/run_report.hpp"
#include "rpa/presets.hpp"

namespace rsrpa::app {

/// One quadrature point, backend-agnostic.
struct DriverOmegaRow {
  double omega = 0.0;
  double weight = 0.0;
  double e_term = 0.0;
  bool converged = true;
  double seconds = 0.0;
};

struct DriverRun {
  Method method = Method::kSternheimer;
  double e_rpa = 0.0;
  double e_rpa_per_atom = 0.0;
  bool converged = true;
  bool degraded = false;  ///< Sternheimer quarantine; false elsewhere
  double total_seconds = 0.0;
  std::vector<DriverOmegaRow> per_omega;
  /// The backend's native run-report payload (obs::to_json of its result
  /// struct). Written under the method-name key of the report file.
  obs::Json report;
  /// The full Sternheimer result (method == kSternheimer only; the other
  /// backends' extras live in `report`).
  rpa::RpaResult rpa;
  bool has_rpa = false;
};

/// Run spec.method on the built system. `stern_opts` is the fully
/// resolved Sternheimer option set (checkpoint/control wired by the
/// caller); the non-Sternheimer backends take their options from `spec`
/// with stern_opts.control injected. Propagates RunCancelled.
DriverRun run_driver(const JobSpec& spec, const rpa::BuiltSystem& sys,
                     const rpa::RpaOptions& stern_opts);

}  // namespace rsrpa::app
