#include "solver/resilience.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "common/rng.hpp"
#include "la/blas.hpp"
#include "obs/event_log.hpp"
#include "solver/block_cocg.hpp"
#include "solver/block_cocr.hpp"
#include "solver/gmres.hpp"
#include "solver/qmr_sym.hpp"

namespace rsrpa::solver {

FaultMode fault_mode_from_string(const std::string& s) {
  if (s.empty() || s == "none" || s == "off") return FaultMode::kNone;
  if (s == "nan") return FaultMode::kNanMatvec;
  if (s == "perturb") return FaultMode::kPerturbMatvec;
  if (s == "zero") return FaultMode::kZeroMatvec;
  throw Error("unknown fault mode '" + s + "' (none|nan|perturb|zero)");
}

struct FaultInjectingOp::State {
  BlockOpC inner;
  FaultInjectionOptions opts;
  std::atomic<long> applies{0};
  std::atomic<long> faults{0};
};

FaultInjectingOp::FaultInjectingOp(BlockOpC inner,
                                   const FaultInjectionOptions& opts)
    : state_(std::make_shared<State>()) {
  state_->inner = std::move(inner);
  state_->opts = opts;
}

long FaultInjectingOp::applies() const { return state_->applies; }
long FaultInjectingOp::faults_injected() const { return state_->faults; }

void FaultInjectingOp::operator()(const la::Matrix<cplx>& in,
                                  la::Matrix<cplx>& out) const {
  State& st = *state_;
  st.inner(in, out);
  const long idx = st.applies.fetch_add(1);

  const FaultInjectionOptions& f = st.opts;
  if (f.mode == FaultMode::kNone || idx < f.at_apply) return;
  const bool due = f.period <= 0 ? idx == f.at_apply
                                 : (idx - f.at_apply) % f.period == 0;
  if (!due) return;
  // Claim one unit of the fault budget; concurrent callers never overdraw.
  long used = st.faults.load();
  do {
    if (used >= f.max_faults) return;
  } while (!st.faults.compare_exchange_weak(used, used + 1));

  switch (f.mode) {
    case FaultMode::kNanMatvec:
      out(0, 0) = cplx{std::numeric_limits<double>::quiet_NaN(), 0.0};
      break;
    case FaultMode::kZeroMatvec:
      out.zero();
      break;
    case FaultMode::kPerturbMatvec: {
      // One decorrelated stream per apply index: the perturbation depends
      // only on (seed, idx), never on thread identity or timing.
      Rng rng = Rng(f.seed).derive(static_cast<std::uint64_t>(idx));
      for (std::size_t j = 0; j < out.cols(); ++j)
        for (std::size_t i = 0; i < out.rows(); ++i)
          out(i, j) += cplx{f.magnitude * rng.uniform(-1.0, 1.0),
                            f.magnitude * rng.uniform(-1.0, 1.0)};
      break;
    }
    case FaultMode::kNone:
      break;
  }
}

namespace {

bool matrix_finite(const la::Matrix<cplx>& m) {
  for (std::size_t j = 0; j < m.cols(); ++j)
    for (std::size_t i = 0; i < m.rows(); ++i)
      if (!std::isfinite(m(i, j).real()) || !std::isfinite(m(i, j).imag()))
        return false;
  return true;
}

bool matrix_equal(const la::Matrix<cplx>& a, const la::Matrix<cplx>& b) {
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i)
      if (a(i, j) != b(i, j)) return false;
  return true;
}

// Aggregate a sub-solve into the ladder-wide report. matvec_columns is
// deliberately NOT folded here — the counting wrapper below owns it, so
// failed attempts count too.
void fold(SolveReport& agg, const SolveReport& r) {
  agg.iterations = std::max(agg.iterations, r.iterations);
  agg.relative_residual = std::max(agg.relative_residual, r.relative_residual);
  agg.converged = agg.converged && r.converged;
}

struct LadderCtx {
  const BlockOpC* op = nullptr;  // counting wrapper around the caller's op
  const SolverOptions* sopts = nullptr;
  const ResilienceOptions* ropts = nullptr;
  obs::EventLog* events = nullptr;
  ResilientSolveResult* out = nullptr;
};

void emit(LadderCtx& ctx, const char* kind, const char* detail,
          std::vector<std::pair<std::string, double>> fields) {
  if (ctx.events != nullptr)
    ctx.events->emit(kind, detail, std::move(fields));
}

// Alternative single-column solvers for rung 3, in escalation order.
// COCR stays in the bilinear complex-symmetric family (smoother residual
// histories); QMR adds quasi-minimal smoothing; GMRES abandons the
// bilinear form entirely and survives quasi-null residuals.
enum class SwapSolver { kBlockCocr = 0, kQmrSym = 1, kGmres = 2 };

SolveReport run_swap(LadderCtx& ctx, SwapSolver which,
                     const la::Matrix<cplx>& b, la::Matrix<cplx>& y) {
  switch (which) {
    case SwapSolver::kBlockCocr:
      return block_cocr(*ctx.op, b, y, *ctx.sopts);
    case SwapSolver::kQmrSym:
      return qmr_sym(*ctx.op, b.col(0), y.col(0), *ctx.sopts);
    case SwapSolver::kGmres: {
      GmresOptions gopts;
      gopts.max_iter = ctx.sopts->max_iter;
      gopts.tol = ctx.sopts->tol;
      return gmres(*ctx.op, b.col(0), y.col(0), gopts);
    }
  }
  throw Error("unreachable swap solver");
}

// Solve columns [col0, col0 + b.cols()) of the caller's system through the
// ladder. b and y are working copies of the sub-block; y carries the
// entry guess in and the solution (or, for quarantined columns, the entry
// guess back) out.
void ladder_solve(LadderCtx& ctx, const la::Matrix<cplx>& b,
                  la::Matrix<cplx>& y, std::size_t col0) {
  const std::size_t s = b.cols();
  const la::Matrix<cplx> y0 = y;

  // Rungs 0/1: block COCG, then residual-replacement restarts. A restart
  // re-enters the solver from the current iterate (fresh residual, fresh
  // conjugacy state). If the breakdown left non-finite values in y, the
  // iterate is poisoned and we restart from the entry guess instead —
  // which still recovers transient faults, whose budget is now spent.
  // A breakdown that touched nothing (e.g. the initial rank-deficiency
  // check) would replay identically, so it escalates straight away.
  for (int attempt = 0;; ++attempt) {
    try {
      SolveReport r = block_cocg(*ctx.op, b, y, *ctx.sopts);
      fold(ctx.out->report, r);
      return;
    } catch (const NumericalBreakdown& breakdown) {
      emit(ctx, obs::events::kSolverBreakdown, breakdown.what(),
           {{"position", static_cast<double>(col0)},
            {"block_size", static_cast<double>(s)},
            {"attempt", static_cast<double>(attempt)}});
      const bool poisoned = !matrix_finite(y);
      const bool touched = poisoned || !matrix_equal(y, y0);
      if (poisoned) y = y0;
      if (!touched || attempt >= ctx.ropts->max_restarts) break;
      ++ctx.out->restarts;
      emit(ctx, obs::events::kSolverRestart,
           "residual-replacement restart after breakdown",
           {{"position", static_cast<double>(col0)},
            {"block_size", static_cast<double>(s)}});
    }
  }

  // Rung 2: halve the block and recurse. Handles the linearly-dependent
  // right-hand-side breakdown the paper's deflation caveat describes.
  if (s > 1 && ctx.ropts->deflate) {
    ++ctx.out->deflations;
    emit(ctx, obs::events::kBlockDeflation,
         "halving block after unrecovered breakdown",
         {{"position", static_cast<double>(col0)},
          {"block_size", static_cast<double>(s)}});
    const std::size_t h = s / 2;
    la::Matrix<cplx> bl = b.slice_cols(0, h);
    la::Matrix<cplx> yl = y.slice_cols(0, h);
    ladder_solve(ctx, bl, yl, col0);
    y.set_cols(0, yl);
    la::Matrix<cplx> br = b.slice_cols(h, s - h);
    la::Matrix<cplx> yr = y.slice_cols(h, s - h);
    ladder_solve(ctx, br, yr, col0 + h);
    y.set_cols(h, yr);
    return;
  }

  // Rung 3: single surviving column — swap solvers.
  if (s == 1 && ctx.ropts->solver_swap) {
    for (SwapSolver which :
         {SwapSolver::kBlockCocr, SwapSolver::kQmrSym, SwapSolver::kGmres}) {
      if (!matrix_finite(y)) y = y0;
      ++ctx.out->solver_swaps;
      emit(ctx, obs::events::kSolverSwap, "trying alternative solver",
           {{"position", static_cast<double>(col0)},
            {"solver", static_cast<double>(static_cast<int>(which))}});
      try {
        SolveReport r = run_swap(ctx, which, b, y);
        // Accept only a converged, finite result: we are deep in recovery,
        // so a swap that merely ran out of iterations is an escalation,
        // and GMRES can claim convergence with a non-finite iterate when a
        // degenerate (e.g. zeroed) operator collapses its Hessenberg.
        if (r.converged && matrix_finite(y)) {
          fold(ctx.out->report, r);
          return;
        }
        emit(ctx, obs::events::kSolverBreakdown,
             "swap solver returned without a usable solution",
             {{"position", static_cast<double>(col0)},
              {"block_size", 1.0},
              {"solver", static_cast<double>(static_cast<int>(which))}});
      } catch (const NumericalBreakdown& breakdown) {
        emit(ctx, obs::events::kSolverBreakdown, breakdown.what(),
             {{"position", static_cast<double>(col0)},
              {"block_size", 1.0},
              {"solver", static_cast<double>(static_cast<int>(which))}});
      }
    }
  }

  // Rung 4: quarantine. The entry guess is the only iterate we still
  // trust (a post-breakdown partial iterate can be arbitrarily far off),
  // so the columns come back unchanged and flagged non-converged.
  if (!ctx.ropts->quarantine) {
    char msg[96];
    std::snprintf(msg, sizeof msg,
                  "recovery ladder exhausted for columns [%zu, %zu)", col0,
                  col0 + s);
    throw NumericalBreakdown(msg);
  }
  y = y0;
  for (std::size_t j = 0; j < s; ++j) {
    ctx.out->quarantined.push_back(static_cast<long>(col0 + j));
    emit(ctx, obs::events::kColumnQuarantine,
         "column given up on after ladder exhaustion",
         {{"column", static_cast<double>(col0 + j)}});
  }
  ctx.out->report.converged = false;
}

}  // namespace

ResilientSolveResult resilient_block_solve(const BlockOpC& a,
                                           const la::Matrix<cplx>& b,
                                           la::Matrix<cplx>& y,
                                           const SolverOptions& sopts,
                                           const ResilienceOptions& opts,
                                           std::size_t col0,
                                           obs::EventLog* events) {
  ResilientSolveResult out;
  out.report.converged = true;

  // Authoritative matvec accounting: the sub-solvers' own counters are
  // lost when they throw, so count columns at the operator boundary —
  // failed attempts cost real work and must show up in the report.
  long matvecs = 0;
  BlockOpC counting = [&a, &matvecs](const la::Matrix<cplx>& in,
                                     la::Matrix<cplx>& o) {
    a(in, o);
    matvecs += static_cast<long>(in.cols());
  };

  if (!opts.enabled) {
    SolveReport r = block_cocg(a, b, y, sopts);
    out.report = r;
    return out;
  }

  LadderCtx ctx;
  ctx.op = &counting;
  ctx.sopts = &sopts;
  ctx.ropts = &opts;
  ctx.events = events;
  ctx.out = &out;
  ladder_solve(ctx, b, y, col0);
  out.report.matvec_columns = matvecs;
  out.report.matvec_bytes =
      static_cast<double>(matvecs) * sopts.matvec_bytes_per_column;
  out.report.matvec_flops =
      static_cast<double>(matvecs) * sopts.matvec_flops_per_column;
  return out;
}

}  // namespace rsrpa::solver
