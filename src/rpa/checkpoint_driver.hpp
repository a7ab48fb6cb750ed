// Checkpoint glue shared by the two quadrature loops: the Sternheimer
// engine (rpa/erpa.cpp, behind both compute_rpa_energy and
// run_parallel_rpa) and the SLQ driver. Both run the same post-write
// lifecycle (checkpoint_written event, simulated-crash hook); the SLQ
// driver's capture/restore of its RunCheckpoint state lives here too.
// The engine's own snapshot and restore sit inside the engine, which
// serves both Sternheimer entry points from one copy.
#pragma once

#include <cstdint>

#include "io/checkpoint.hpp"
#include "rpa/erpa.hpp"
#include "rpa/erpa_slq.hpp"

namespace rsrpa::rpa::detail {

/// Post-write lifecycle: emit checkpoint_written into the sink and fire
/// the simulated-crash test hook (throws RunHalted) when armed for `k`.
void after_checkpoint_write(const CheckpointOptions& copts, int k);

/// Snapshot compute_rpa_energy_slq's state
/// after `completed_points` quadrature points. The stochastic driver has
/// no subspace, so the container's V slot gets a 1x1 zero placeholder.
io::RunCheckpoint make_slq_checkpoint(std::uint64_t fingerprint,
                                      int completed_points,
                                      const SlqRpaOptions& opts,
                                      const SlqRpaResult& result,
                                      const Rng& rng);

/// Restore an SLQ checkpoint: rebuilds the partial sums, per-point
/// records, matvec counter, and driver RNG; emits run_resumed into the
/// lifecycle sink; returns the index of the first point still to run.
int restore_slq_checkpoint(io::RunCheckpoint&& ck, const SlqRpaOptions& opts,
                           SlqRpaResult& result, long& applies, Rng& rng);

}  // namespace rsrpa::rpa::detail
