#include "rpa/checkpoint_driver.hpp"

#include <string>
#include <utility>

namespace rsrpa::rpa::detail {

io::RunCheckpoint make_slq_checkpoint(std::uint64_t fingerprint,
                                      int completed_points,
                                      const SlqRpaOptions& opts,
                                      const SlqRpaResult& result,
                                      const Rng& rng) {
  io::RunCheckpoint ck;
  ck.slq = true;
  ck.fingerprint = fingerprint;
  ck.completed_points = completed_points;
  ck.ell = opts.ell;
  ck.e_rpa_partial = result.e_rpa;
  ck.rng_state = rng.save_state();
  ck.slq_per_omega = result.per_omega;
  ck.events = result.events;
  // The matrix stream rejects empty shapes; the SLQ driver has no
  // subspace to persist, so park a 1x1 zero in the V slot.
  ck.v = la::Matrix<double>(1, 1);
  return ck;
}

int restore_slq_checkpoint(io::RunCheckpoint&& ck, const SlqRpaOptions& opts,
                           SlqRpaResult& result, long& applies, Rng& rng) {
  RSRPA_REQUIRE_MSG(ck.slq,
                    "checkpoint was written by a Sternheimer driver; "
                    "refusing to resume the SLQ driver from it");
  // Belt and braces: the fingerprint already covers this, but a stale
  // file loaded with expected_fingerprint == 0 must still fail loudly.
  RSRPA_REQUIRE_MSG(ck.ell == opts.ell, "checkpoint ell mismatch");
  const int completed = ck.completed_points;
  result.e_rpa = ck.e_rpa_partial;
  result.per_omega = std::move(ck.slq_per_omega);
  result.events = std::move(ck.events);
  // e_terms and the matvec counter are derived views of the records;
  // rebuild them rather than persisting them twice.
  result.e_terms.clear();
  applies = 0;
  for (const SlqOmegaRecord& rec : result.per_omega) {
    result.e_terms.push_back(rec.e_term);
    applies += rec.matvec_columns;
  }
  result.matvec_columns = applies;
  rng = Rng::load_state(ck.rng_state);
  if (opts.checkpoint.events != nullptr)
    opts.checkpoint.events->emit(
        obs::events::kRunResumed, "resumed from " + opts.checkpoint.path,
        {{"completed_points", static_cast<double>(completed)},
         {"ell", static_cast<double>(ck.ell)}});
  return completed;
}

void after_checkpoint_write(const CheckpointOptions& copts, int k) {
  if (copts.events != nullptr)
    copts.events->emit(obs::events::kCheckpointWritten,
                       "run checkpoint persisted to " + copts.path,
                       {{"omega_index", static_cast<double>(k)},
                        {"completed_points", static_cast<double>(k + 1)}});
  if (copts.halt_after_point == k)
    throw RunHalted("halt_after_point: simulated crash after checkpointing "
                    "quadrature point " +
                    std::to_string(k));
}

}  // namespace rsrpa::rpa::detail
