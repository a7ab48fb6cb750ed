#include "app/job.hpp"

namespace rsrpa::app {

Method method_from_string(const std::string& s) {
  if (s == "sternheimer") return Method::kSternheimer;
  if (s == "direct") return Method::kDirect;
  if (s == "isdf") return Method::kIsdf;
  if (s == "slq") return Method::kSlq;
  throw Error("unknown METHOD '" + s +
              "' (expected sternheimer|direct|isdf|slq)");
}

const char* method_name(Method m) {
  switch (m) {
    case Method::kSternheimer: return "sternheimer";
    case Method::kDirect: return "direct";
    case Method::kIsdf: return "isdf";
    case Method::kSlq: return "slq";
  }
  return "sternheimer";
}

JobSpec parse_job(const Config& cfg) {
  JobSpec spec;

  // Validate method and fault mode before anything else: a typo in the
  // config should fail in milliseconds, not after a system build.
  spec.method = method_from_string(
      cfg.has("METHOD") ? cfg.get_string("METHOD") : "sternheimer");
  const solver::FaultMode fault_mode = solver::fault_mode_from_string(
      cfg.has("FAULT_MODE") ? cfg.get_string("FAULT_MODE") : "none");
  // Every solve runs in FP64. Config ignores keys it does not read, so an
  // old `PRECISION: mixed` input is refused here rather than quietly run
  // at fp64.
  if (cfg.has("PRECISION") && cfg.get_string("PRECISION") != "fp64")
    throw Error("PRECISION '" + cfg.get_string("PRECISION") +
                "' is not supported: mixed precision was removed and every "
                "solve runs in fp64 (DESIGN.md \"Precision model\")");

  rpa::SystemPreset& preset = spec.preset;
  preset.ncells = static_cast<std::size_t>(cfg.get_int_or("N_CELLS", 1));
  preset.name = "Si" + std::to_string(8 * preset.ncells);
  preset.grid_per_cell =
      static_cast<std::size_t>(cfg.get_int_or("GRID_PER_CELL", 11));
  if (cfg.has("N_EIG_PER_ATOM"))
    preset.n_eig_per_atom =
        static_cast<std::size_t>(cfg.get_int("N_EIG_PER_ATOM"));
  preset.fd_radius = cfg.get_int_or("FD_RADIUS", 4);
  preset.perturbation = cfg.get_double_or("PERTURBATION", 0.01);
  preset.seed = static_cast<std::uint64_t>(cfg.get_int_or("SEED", 7));
  // SIMD stencil rows, resolved per Hamiltonian instance in build_system
  // (see grid/stencil.hpp), never latched process-wide.
  preset.simd = cfg.get_int_or("SIMD", -1);

  rpa::RpaOptions& opts = spec.options;
  // Keep in lockstep with BuiltSystem::default_rpa_options: same defaults,
  // but resolvable from the preset alone (no system build needed to know
  // what a job will do).
  opts.n_eig = preset.n_eig();
  opts.ell = 8;
  opts.stern.tol = 1e-2;
  opts.cheb_degree = 2;
  opts.max_filter_iter = 10;

  if (cfg.has("N_NUCHI_EIGS"))
    opts.n_eig = static_cast<std::size_t>(cfg.get_int("N_NUCHI_EIGS"));
  opts.ell = cfg.get_int_or("N_OMEGA", opts.ell);
  if (cfg.has("TOL_EIG")) opts.tol_eig = cfg.get_doubles("TOL_EIG");
  opts.stern.tol = cfg.get_double_or("TOL_STERN_RES", opts.stern.tol);
  opts.max_filter_iter =
      cfg.get_int_or("MAXIT_FILTERING", opts.max_filter_iter);
  opts.cheb_degree = cfg.get_int_or("CHEB_DEGREE_RPA", opts.cheb_degree);
  opts.stern.galerkin_guess = cfg.get_int_or("FLAG_COCGINITIAL", 1) != 0;
  // Algorithm 4 block sizing is wall-clock-driven; runs that must be
  // bitwise reproducible pin DYNAMIC_BLOCK: 0 with a fixed BLOCK_SIZE.
  opts.stern.dynamic_block = cfg.get_int_or("DYNAMIC_BLOCK", 1) != 0;
  opts.stern.fixed_block =
      cfg.get_int_or("BLOCK_SIZE", opts.stern.fixed_block);

  // Failure semantics: recovery ladder, stagnation detection, and the
  // deterministic fault-injection harness (chaos drills).
  opts.stern.resilience.enabled = cfg.get_int_or("RESILIENCE", 1) != 0;
  opts.stern.resilience.max_restarts = cfg.get_int_or("MAX_RESTARTS", 1);
  opts.stern.stagnation_window = cfg.get_int_or("STAGNATION_WINDOW", 0);
  opts.stern.stagnation_factor = cfg.get_double_or("STAGNATION_FACTOR", 0.99);
  opts.stern.fault.mode = fault_mode;
  opts.stern.fault.at_apply = cfg.get_int_or("FAULT_AT_APPLY", 1);
  opts.stern.fault.period = cfg.get_int_or("FAULT_PERIOD", 0);
  opts.stern.fault.max_faults = cfg.get_int_or("FAULT_MAX", 1);
  opts.stern.fault.magnitude = cfg.get_double_or("FAULT_MAGNITUDE", 1e-2);
  opts.stern.fault.orbital = cfg.get_int_or("FAULT_ORBITAL", -1);
  opts.fault_omega = cfg.get_int_or("FAULT_OMEGA", -1);
  if (cfg.has("FAULT_SEED"))
    opts.stern.fault.seed =
        static_cast<std::uint64_t>(cfg.get_int("FAULT_SEED"));

  // Static subspace approximation (quadrature-point elision); 0 keeps
  // every point a full solve. See docs/REPRODUCING.md, "Knobs that
  // matter".
  opts.ssa.freeze_after = cfg.get_int_or("SSA_FREEZE_AFTER", 0);
  opts.ssa.residual_tol =
      cfg.get_double_or("SSA_RESIDUAL_TOL", opts.ssa.residual_tol);
  opts.ssa.refresh = cfg.get_int_or("SSA_REFRESH", 1) != 0;
  RSRPA_REQUIRE_MSG(opts.ssa.freeze_after >= 0,
                    "SSA_FREEZE_AFTER must be >= 0");
  RSRPA_REQUIRE_MSG(opts.ssa.residual_tol > 0.0,
                    "SSA_RESIDUAL_TOL must be > 0");

  // Backend-specific options, kept in lockstep with the resolved shared
  // knobs (ell, n_eig, Sternheimer sub-options) so METHOD only changes
  // the route to the trace, not the question being asked.
  spec.slq.ell = opts.ell;
  spec.slq.stern = opts.stern;
  spec.slq.n_probes = cfg.get_int_or("SLQ_PROBES", spec.slq.n_probes);
  spec.slq.lanczos_steps =
      cfg.get_int_or("SLQ_LANCZOS_STEPS", spec.slq.lanczos_steps);
  if (cfg.has("SLQ_SEED"))
    spec.slq.seed = static_cast<std::uint64_t>(cfg.get_int("SLQ_SEED"));
  // Variance-adaptive probe stop rule: 0 (default) keeps the fixed
  // SLQ_PROBES behavior; > 0 adds probe batches until the relative 95%
  // CI half-width of each point's trace estimate reaches the target.
  spec.slq.target_rel_ci = cfg.get_double_or("SLQ_TARGET_REL_CI", 0.0);
  spec.slq.max_probes = cfg.get_int_or("SLQ_MAX_PROBES", 0);
  RSRPA_REQUIRE_MSG(spec.slq.n_probes >= 1 && spec.slq.lanczos_steps >= 1,
                    "SLQ_PROBES and SLQ_LANCZOS_STEPS must be >= 1");
  RSRPA_REQUIRE_MSG(spec.slq.target_rel_ci >= 0.0,
                    "SLQ_TARGET_REL_CI must be >= 0");
  RSRPA_REQUIRE_MSG(spec.slq.max_probes == 0 ||
                        spec.slq.max_probes >= spec.slq.n_probes,
                    "SLQ_MAX_PROBES must be 0 or >= SLQ_PROBES");

  spec.isdf.ell = opts.ell;
  spec.isdf.n_eig =
      cfg.get_int_or("ISDF_FULL_TRACE", 0) != 0 ? 0 : opts.n_eig;
  spec.isdf.nip = static_cast<std::size_t>(cfg.get_int_or("ISDF_NIP", 0));
  spec.isdf.c_nip = cfg.get_double_or("ISDF_C", spec.isdf.c_nip);
  spec.isdf.oversample = static_cast<std::size_t>(
      cfg.get_int_or("ISDF_OVERSAMPLE", static_cast<int>(spec.isdf.oversample)));
  spec.isdf.ridge = cfg.get_double_or("ISDF_RIDGE", spec.isdf.ridge);
  if (cfg.has("ISDF_SEED"))
    spec.isdf.seed = static_cast<std::uint64_t>(cfg.get_int("ISDF_SEED"));
  RSRPA_REQUIRE_MSG(spec.isdf.c_nip > 0.0, "ISDF_C must be > 0");
  RSRPA_REQUIRE_MSG(spec.isdf.ridge >= 0.0, "ISDF_RIDGE must be >= 0");

  spec.direct_n_keep =
      cfg.get_int_or("DIRECT_FULL_TRACE", 1) != 0 ? 0 : opts.n_eig;

  // rpacalc's --checkpoint/--resume flags override this pair.
  if (cfg.has("CHECKPOINT")) spec.checkpoint = cfg.get_string("CHECKPOINT");
  spec.resume = cfg.get_int_or("RESUME", 0) != 0;

  return spec;
}

}  // namespace rsrpa::app
