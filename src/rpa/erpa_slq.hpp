// E_RPA via stochastic Lanczos quadrature — the paper's SS V future-work
// replacement for the dense generalized eigensolve.
//
// At each quadrature point the functional trace Tr[ln(1 - M) + M] with
// M = nu^{1/2} chi0(i omega) nu^{1/2} is estimated directly by SLQ: each
// Rademacher probe runs a short Lanczos recurrence in M (every step one
// Sternheimer pass over a single vector), and probes are INDEPENDENT — the
// embarrassing parallelism the paper wants at large processor counts,
// with no subspace, no Gram matrices, and no eigensolve.
//
// Trade-off: stochastic error ~1/sqrt(n_probes) instead of a subspace
// truncation error, and no warm start to exploit. The a6 bench compares
// both drivers head to head.
#pragma once

#include "obs/event_log.hpp"
#include "rpa/erpa.hpp"
#include "rpa/nu_chi0.hpp"

namespace rsrpa::rpa {

struct SlqRpaOptions {
  int ell = 8;             ///< quadrature points (Table II scheme)
  int n_probes = 16;       ///< Rademacher probes per batch (see target_rel_ci)
  int lanczos_steps = 16;  ///< Lanczos iterations per probe
  /// Variance-adaptive stop rule (SLQ_TARGET_REL_CI). When > 0, each
  /// point keeps adding batches of n_probes until the relative 95%
  /// confidence half-width of the trace estimate — 1.96 * stddev /
  /// (sqrt(n) * |e_term|) — drops to this target or max_probes is hit.
  /// 0 (default) keeps the fixed n_probes behavior.
  double target_rel_ci = 0.0;
  /// Probe budget cap for the adaptive rule; 0 means 8 * n_probes.
  int max_probes = 0;
  SternheimerOptions stern;
  std::uint64_t seed = 0x51ab5eedULL;
  /// Per-quadrature-point crash-safe checkpointing, same container and
  /// lifecycle as the Sternheimer drivers (io/checkpoint.hpp).
  CheckpointOptions checkpoint;
  /// Cooperative cancel, polled at quadrature-point boundaries
  /// like the other drivers. Not owned.
  RunControl* control = nullptr;
};

/// Per-quadrature-point SLQ telemetry — the stochastic driver's analogue
/// of rpa::OmegaRecord (no subspace, so no filter/eigenvalue fields; the
/// error bar is the probe-sample spread instead).
struct SlqOmegaRecord {
  double omega = 0.0;
  double weight = 0.0;
  double e_term = 0.0;        ///< probe-mean trace estimate
  int n_probes = 0;
  int lanczos_steps = 0;
  /// Unbiased standard deviation of the per-probe estimates; the standard
  /// error of e_term is probe_stddev / sqrt(n_probes). 0 when n_probes=1.
  double probe_stddev = 0.0;
  /// 95% confidence half-width of e_term: 1.96 * probe_stddev /
  /// sqrt(n_probes). 0 when n_probes=1.
  double ci_halfwidth = 0.0;
  /// ci_halfwidth / |e_term| — what target_rel_ci is compared against.
  /// 0 when e_term is exactly zero.
  double rel_ci = 0.0;
  long matvec_columns = 0;    ///< operator applies spent on this point
  double seconds = 0.0;
};

struct SlqRpaResult {
  double e_rpa = 0.0;
  double e_rpa_per_atom = 0.0;
  std::vector<double> e_terms;  ///< per-omega trace estimates (kept: a6 API)
  std::vector<SlqOmegaRecord> per_omega;
  obs::EventLog events;         ///< one slq_omega_estimate per point
  double total_seconds = 0.0;
  long matvec_columns = 0;      ///< total single-vector operator applies
};

SlqRpaResult compute_rpa_energy_slq(const dft::KsSystem& sys,
                                    const poisson::KroneckerLaplacian& klap,
                                    const SlqRpaOptions& opts);

}  // namespace rsrpa::rpa
