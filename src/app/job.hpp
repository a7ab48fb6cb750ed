// Run descriptions for rpacalc.
//
// A job is one `.rpa` config (common/config.hpp — the artifact key-value
// format) mapped onto a SystemPreset + RpaOptions pair plus the backend
// selector. Besides the artifact, SIMD and failure-semantics keys listed
// in examples/rpacalc.cpp, it reads:
//
//   METHOD       sternheimer | direct | isdf | slq        (default sternheimer)
//                which of the four E_RPA drivers runs; see
//                DESIGN.md "Choosing a backend"
//   DIRECT_FULL_TRACE  1 = direct sums the full spectrum (default, the
//                backend's historical meaning); 0 truncates to N_NUCHI_EIGS
//                for apples-to-apples comparisons
//   ISDF_NIP     explicit interpolation-point count (0 = from ISDF_C)
//   ISDF_C       nip = round(ISDF_C * n_occ) when ISDF_NIP is 0
//   ISDF_OVERSAMPLE  extra Gaussian sketch columns per side
//   ISDF_RIDGE   relative fit ridge (0 = only on Cholesky breakdown)
//   ISDF_SEED    point-selection RNG seed
//   ISDF_FULL_TRACE  1 = full compressed trace; 0 (default) truncates to
//                N_NUCHI_EIGS like the Sternheimer driver
//   SLQ_PROBES   Rademacher probes per frequency (per batch when the
//                adaptive stop rule is armed)
//   SLQ_LANCZOS_STEPS  Lanczos iterations per probe
//   SLQ_SEED     probe RNG seed
//   SLQ_TARGET_REL_CI  > 0 arms the variance-adaptive stop rule: each
//                point adds SLQ_PROBES-sized batches until the relative
//                95% CI half-width of its trace estimate reaches the
//                target; 0 (default) keeps the fixed SLQ_PROBES count
//   SLQ_MAX_PROBES  probe budget cap for the adaptive rule; 0 = 8x
//                SLQ_PROBES
//   SSA_FREEZE_AFTER  > 0 freezes the Sternheimer warm-start subspace
//                after that many fully solved quadrature points and
//                evaluates the rest by Rayleigh-Ritz projection
//                (quadrature-point elision); 0 (default) disables
//   SSA_RESIDUAL_TOL  a-posteriori projection-residual bound (TOL_EIG
//                scale); above it the point falls back to a full solve
//   SSA_REFRESH  1 (default) = a fallback's converged eigenvectors
//                replace the frozen basis; 0 = the basis stays frozen
//   PRECISION    fp64 only; any other value (e.g. the removed `mixed`)
//                is rejected
//   DYNAMIC_BLOCK  1 = Algorithm 4 timing-driven block sizing (default);
//                  0 = fixed BLOCK_SIZE — required for bitwise-reproducible
//                  runs (the dynamic path keys off wall clock)
//   BLOCK_SIZE   Sternheimer block size when DYNAMIC_BLOCK is 0
//   CHECKPOINT   per-point checkpoint path (rpacalc's --checkpoint wins)
//   RESUME       1 = resume from CHECKPOINT when it exists
//
// Keys parse_job does not read are ignored. It is the single .rpa ->
// options mapping in the tree.
#pragma once

#include <string>

#include "common/config.hpp"
#include "isdf/erpa_isdf.hpp"
#include "rpa/erpa_slq.hpp"
#include "rpa/presets.hpp"

namespace rsrpa::app {

/// The four E_RPA backends selectable by the METHOD key.
enum class Method { kSternheimer, kDirect, kIsdf, kSlq };

/// Parse "sternheimer" | "direct" | "isdf" | "slq" (case-sensitive).
/// Throws Error on anything else.
Method method_from_string(const std::string& s);
/// The inverse: the canonical lowercase name.
const char* method_name(Method m);

struct JobSpec {
  rpa::SystemPreset preset;
  rpa::RpaOptions options;     ///< fully resolved (n_eig filled from preset)
  Method method = Method::kSternheimer;
  /// Resolved backend options for the non-Sternheimer methods. ell /
  /// n_eig / Sternheimer sub-options are kept in lockstep with `options`
  /// by parse_job so every backend answers the same physical question.
  rpa::SlqRpaOptions slq;
  isdf::IsdfRpaOptions isdf;
  std::size_t direct_n_keep = 0;  ///< 0 = full trace (DIRECT_FULL_TRACE 1)
  std::string checkpoint;      ///< CHECKPOINT key
  bool resume = false;         ///< RESUME key
};

/// Map a parsed .rpa config onto a JobSpec. Defaults mirror
/// BuiltSystem::default_rpa_options so an empty config reproduces the
/// preset run exactly. Throws Error on malformed values (e.g. an unknown
/// FAULT_MODE or a PRECISION other than fp64) — validation happens here,
/// before any system is built.
JobSpec parse_job(const Config& cfg);

}  // namespace rsrpa::app
