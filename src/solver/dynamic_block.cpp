#include "solver/dynamic_block.hpp"

#include <algorithm>
#include <exception>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "obs/event_log.hpp"
#include "sched/task_group.hpp"
#include "solver/block_cocg.hpp"
#include "solver/resilience.hpp"

namespace rsrpa::solver {

std::map<int, int> DynamicBlockReport::block_size_counts() const {
  std::map<int, int> counts;
  for (const ChunkRecord& c : chunks) ++counts[c.block_size];
  return counts;
}

ApplyCounters DynamicBlockReport::apply_counters() const {
  ApplyCounters c;
  c.applies = total_applies;
  c.columns = total_matvec_columns;
  c.bytes = total_matvec_bytes;
  c.flops = total_matvec_flops;
  c.seconds = total_apply_seconds;
  return c;
}

namespace {

// Everything one chunk solve contributes: its record, quarantined
// columns, events and solved columns, plus the breakdown it raised when
// the ladder was disabled or exhausted with quarantine off. Chunk solves
// touch nothing shared, so they can run concurrently; fold() applies
// their outcomes in chunk order.
struct ChunkOutcome {
  ChunkRecord rec;
  std::vector<long> quarantined;
  obs::EventLog events;
  la::Matrix<cplx> y;
  std::exception_ptr breakdown;
};

// Solve chunk [pos, pos + count) through the breakdown recovery ladder
// (solver/resilience.hpp). Reads b and y, writes only the outcome.
ChunkOutcome solve_chunk(const BlockOpC& a, const la::Matrix<cplx>& b,
                         const la::Matrix<cplx>& y, std::size_t pos,
                         std::size_t count, const DynamicBlockOptions& opts) {
  ChunkOutcome out;
  ChunkRecord& rec = out.rec;
  rec.block_size = static_cast<int>(count);
  rec.n_rhs = static_cast<int>(count);

  WallTimer timer;
  la::Matrix<cplx> bchunk = b.slice_cols(pos, count);
  out.y = y.slice_cols(pos, count);

  // Count this chunk's operator applications and the time inside them.
  BlockOpC op = [&rec, &a](const la::Matrix<cplx>& in, la::Matrix<cplx>& o) {
    WallTimer t;
    a(in, o);
    ++rec.applies;
    rec.apply_seconds += t.seconds();
  };
  if (opts.fault.mode != FaultMode::kNone) {
    FaultInjectionOptions fopts = opts.fault;
    fopts.seed = Rng(opts.fault.seed).derive(pos).seed();
    op = FaultInjectingOp(std::move(op), fopts);
  }

  try {
    ResilientSolveResult r = resilient_block_solve(
        op, bchunk, out.y, opts.solver, opts.resilience, pos,
        opts.events != nullptr ? &out.events : nullptr);
    rec.iterations = r.report.iterations;
    rec.converged = r.report.converged;
    rec.matvec_columns = r.report.matvec_columns;
    rec.restarts = r.restarts;
    rec.deflations = r.deflations;
    rec.solver_swaps = r.solver_swaps;
    rec.quarantined = static_cast<int>(r.quarantined.size());
    rec.fallback = rec.deflations > 0 || rec.solver_swaps > 0;
    out.quarantined = std::move(r.quarantined);
  } catch (const NumericalBreakdown&) {
    // Only reachable with resilience disabled (or quarantine switched
    // off). The chunk is recorded as failed by fold() before the
    // breakdown propagates, so its timing and position survive.
    rec.converged = false;
    rec.fallback = true;
    out.breakdown = std::current_exception();
  }
  rec.seconds = timer.seconds();
  return out;
}

// Fold one chunk outcome into the report, its columns into y and its
// events into the caller's sink, then rethrow its breakdown, if any.
void fold(ChunkOutcome& c, std::size_t pos, la::Matrix<cplx>& y,
          const DynamicBlockOptions& opts, DynamicBlockReport& rep) {
  const ChunkRecord& rec = c.rec;
  y.set_cols(pos, c.y);
  rep.total_matvec_columns += rec.matvec_columns;
  rep.total_matvec_bytes += static_cast<double>(rec.matvec_columns) *
                            opts.solver.matvec_bytes_per_column;
  rep.total_matvec_flops += static_cast<double>(rec.matvec_columns) *
                            opts.solver.matvec_flops_per_column;
  rep.total_applies += rec.applies;
  rep.total_seconds += rec.seconds;
  rep.total_apply_seconds += rec.apply_seconds;
  rep.total_restarts += rec.restarts;
  rep.total_deflations += rec.deflations;
  rep.total_solver_swaps += rec.solver_swaps;
  rep.all_converged = rep.all_converged && rec.converged && !c.breakdown;
  rep.quarantined_columns.insert(rep.quarantined_columns.end(),
                                 c.quarantined.begin(), c.quarantined.end());
  rep.chunks.push_back(rec);
  if (opts.events != nullptr) opts.events->merge(c.events);
  if (c.breakdown) std::rethrow_exception(c.breakdown);
}

// One chunk, solved on the calling thread (the Algorithm 4 probe).
ChunkRecord solve_one(const BlockOpC& a, const la::Matrix<cplx>& b,
                      la::Matrix<cplx>& y, std::size_t pos, std::size_t count,
                      const DynamicBlockOptions& opts,
                      DynamicBlockReport& rep) {
  ChunkOutcome c = solve_chunk(a, b, y, pos, count, opts);
  fold(c, pos, y, opts, rep);
  return c.rec;
}

// Columns [pos, n_rhs) in chunks of s: independent systems, one pool task
// each, folded in chunk order after the join. On a 1-lane pool the tasks
// run inline in chunk order.
void solve_rest(const BlockOpC& a, const la::Matrix<cplx>& b,
                la::Matrix<cplx>& y, std::size_t pos, std::size_t s,
                const DynamicBlockOptions& opts, DynamicBlockReport& rep) {
  const std::size_t n_rhs = b.cols();
  std::vector<std::size_t> starts;
  for (std::size_t p = pos; p < n_rhs; p += s) starts.push_back(p);
  std::vector<ChunkOutcome> outcomes(starts.size());
  sched::TaskGroup group;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    group.run([&, i] {
      outcomes[i] = solve_chunk(a, b, y, starts[i],
                                std::min(s, n_rhs - starts[i]), opts);
    });
  }
  group.wait();
  for (std::size_t i = 0; i < starts.size(); ++i)
    fold(outcomes[i], starts[i], y, opts, rep);
}

}  // namespace

DynamicBlockReport solve_dynamic_block(const BlockOpC& a,
                                       const la::Matrix<cplx>& b,
                                       la::Matrix<cplx>& y,
                                       const DynamicBlockOptions& opts) {
  const std::size_t n_rhs = b.cols();
  RSRPA_REQUIRE(y.cols() == n_rhs && y.rows() == b.rows());
  DynamicBlockReport rep;
  if (n_rhs == 0) return rep;

  const std::size_t cap = opts.max_block > 0
                              ? std::min<std::size_t>(opts.max_block, n_rhs)
                              : n_rhs;
  std::size_t pos = 0;

  if (!opts.enabled) {
    solve_rest(a, b, y, 0,
               std::min<std::size_t>(std::max(opts.fixed_block, 1), cap),
               opts, rep);
    return rep;
  }

  // Algorithm 4. Probe s = 1, then s = 2, doubling while the chunk time
  // at most doubles (per-vector time non-increasing). A chunk that needed
  // recovery (restart, deflation, solver swap, quarantine) reports the
  // wall time of the recovery work, not of a representative block solve,
  // so it never feeds the timing probe — a poisoned probe would skew the
  // doubling decision for the rest of the batch. On a clean run the chunk
  // sequence below is identical to the pre-ladder code path.
  std::size_t s = 1;
  double t_old = -1.0;
  while (pos < n_rhs) {
    ChunkRecord first = solve_one(a, b, y, pos, 1, opts, rep);
    pos += static_cast<std::size_t>(first.n_rhs);
    if (!first.recovered()) {
      t_old = first.seconds;
      break;
    }
  }

  if (t_old >= 0.0 && pos < n_rhs && cap >= 2) {
    s = 2;
    double t_new = -1.0;
    while (pos < n_rhs) {
      const std::size_t count = std::min<std::size_t>(2, n_rhs - pos);
      ChunkRecord second = solve_one(a, b, y, pos, count, opts, rep);
      pos += static_cast<std::size_t>(second.n_rhs);
      if (second.recovered()) continue;  // poisoned probe: try again
      if (second.n_rhs < 2) break;       // short tail is not a fair probe
      t_new = second.seconds;
      break;
    }

    if (t_new >= 0.0) {
      while (pos < n_rhs) {
        if (t_new <= 2.0 * t_old && 2 * s <= cap) {
          s *= 2;
          t_old = t_new;
          const std::size_t count = std::min(s, n_rhs - pos);
          ChunkRecord rec = solve_one(a, b, y, pos, count, opts, rep);
          pos += count;
          if (rec.recovered()) {
            // Unusable timing: revert to the last proven size and stop
            // growing rather than double on recovery wall time.
            s /= 2;
            break;
          }
          t_new = rec.seconds;
          // A short tail chunk is not a fair probe; stop growing after it.
          if (count < s) break;
        } else {
          if (t_new > 2.0 * t_old) s = std::max<std::size_t>(1, s / 2);
          break;
        }
      }
    }
  }

  // Solve everything remaining at the selected size.
  solve_rest(a, b, y, pos, s, opts, rep);
  return rep;
}

}  // namespace rsrpa::solver
