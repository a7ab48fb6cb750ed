#include "rpa/chi0.hpp"

#include <functional>

#include "common/rng.hpp"
#include "obs/event_log.hpp"
#include "sched/parallel_for.hpp"
#include "solver/galerkin_guess.hpp"
#include "solver/resilience.hpp"

namespace rsrpa::rpa {

namespace {

// Column grain for the Hadamard-product loops (RHS build, complex
// promotion, accumulation): writes are disjoint per column, so the
// fan-out is bitwise identical to the serial loops at any thread count.
std::size_t column_grain(std::size_t rows) {
  constexpr std::size_t kElemsPerTask = 1u << 17;
  return kElemsPerTask / std::max<std::size_t>(rows, 1) + 1;
}

}  // namespace

void SternheimerStats::merge(const solver::DynamicBlockReport& rep) {
  for (const auto& [size, count] : rep.block_size_counts())
    block_size_chunks[size] += count;
  total_chunks += static_cast<long>(rep.chunks.size());
  matvec_columns += rep.total_matvec_columns;
  matvec_bytes += rep.total_matvec_bytes;
  matvec_flops += rep.total_matvec_flops;
  seconds += rep.total_seconds;
  all_converged = all_converged && rep.all_converged;
  restarts += rep.total_restarts;
  deflations += rep.total_deflations;
  solver_swaps += rep.total_solver_swaps;
  quarantined_columns += static_cast<long>(rep.quarantined_columns.size());
  quarantined_column_indices.insert(quarantined_column_indices.end(),
                                    rep.quarantined_columns.begin(),
                                    rep.quarantined_columns.end());
}

void SternheimerStats::merge(const SternheimerStats& other, long col0) {
  for (const auto& [size, count] : other.block_size_chunks)
    block_size_chunks[size] += count;
  total_chunks += other.total_chunks;
  matvec_columns += other.matvec_columns;
  matvec_bytes += other.matvec_bytes;
  matvec_flops += other.matvec_flops;
  seconds += other.seconds;
  all_converged = all_converged && other.all_converged;
  restarts += other.restarts;
  deflations += other.deflations;
  solver_swaps += other.solver_swaps;
  quarantined_columns += other.quarantined_columns;
  for (long c : other.quarantined_column_indices)
    quarantined_column_indices.push_back(c + col0);
}

Chi0Applier::Chi0Applier(const dft::KsSystem& sys, SternheimerOptions opts)
    : sys_(sys), opts_(opts) {
  RSRPA_REQUIRE(sys_.n_occ() >= 1);
}

void Chi0Applier::apply(const la::Matrix<double>& v, la::Matrix<double>& out,
                        double omega, SternheimerStats* stats,
                        obs::EventLog* events) const {
  const std::size_t n = sys_.n_grid();
  const std::size_t s = v.cols();
  RSRPA_REQUIRE(v.rows() == n && out.rows() == n && out.cols() == s);
  RSRPA_REQUIRE_MSG(omega > 0.0,
                    "chi0(i omega): omega must be positive (the omega = 0 "
                    "coefficient matrix is singular)");

  solver::DynamicBlockOptions dopts;
  dopts.solver.tol = opts_.tol;
  dopts.solver.max_iter = opts_.max_iter;
  dopts.solver.stagnation_window = opts_.stagnation_window;
  dopts.solver.stagnation_factor = opts_.stagnation_factor;
  dopts.enabled = opts_.dynamic_block;
  dopts.fixed_block = opts_.fixed_block;
  dopts.max_block = opts_.max_block;
  dopts.resilience = opts_.resilience;
  dopts.events = events != nullptr ? events : opts_.events;

  out.zero();
  la::Matrix<la::cplx> b(n, s), y(n, s);
  la::Matrix<double> b_real(n, s);
  const std::size_t grain = column_grain(n);

  const ham::Hamiltonian& h = *sys_.h;
  // Hand the operator's per-column cost model to the solvers so their
  // reports (and through them SternheimerStats) carry bytes/flops.
  {
    const solver::ApplyCostModel cost =
        solver::shifted_apply_cost(h, h.fused_apply());
    dopts.solver.matvec_bytes_per_column = cost.bytes_per_column;
    dopts.solver.matvec_flops_per_column = cost.flops_per_column;
  }
  solver::ApplyCounters call_counters;
  for (std::size_t j = 0; j < sys_.n_occ(); ++j) {
    const double lambda = sys_.eigenvalues[j];
    auto psi = sys_.orbitals.col(j);

    // Right-hand side B_j = -(V . Psi_j), one task per column chunk.
    sched::parallel_for(
        0, s, grain,
        [&](std::size_t c) {
          auto vcol = v.col(c);
          auto bcol = b_real.col(c);
          for (std::size_t i = 0; i < n; ++i) bcol[i] = -vcol[i] * psi[i];
        });

    // Initial guess: Galerkin projection onto the occupied manifold
    // (Eq. 13) or zero.
    if (opts_.galerkin_guess) {
      y = solver::galerkin_initial_guess(sys_.orbitals, sys_.eigenvalues,
                                         lambda, omega, b_real);
    } else {
      y.zero();
    }
    sched::parallel_for(
        0, s, grain,
        [&](std::size_t c) {
          for (std::size_t i = 0; i < n; ++i) b(i, c) = {b_real(i, c), 0.0};
        });

    // Bind the Sternheimer coefficient operator as a first-class object:
    // every solve runs the fused single-sweep pipeline. The op is
    // stateless, so the concurrent chunk solves share it.
    const solver::ShiftedHamiltonianOp ham_op(h, lambda, omega);
    // Faults target this orbital's solve or none. The stream is derived
    // from the orbital index, and each chunk derives its own from it, so
    // fault placement is independent of the thread schedule and of other
    // orbitals' iteration counts.
    dopts.fault = opts_.fault;
    if (opts_.fault.orbital >= 0 &&
        static_cast<std::size_t>(opts_.fault.orbital) != j)
      dopts.fault.mode = solver::FaultMode::kNone;
    dopts.fault.seed = Rng(opts_.fault.seed).derive(j).seed();
    solver::DynamicBlockReport rep =
        solver::solve_dynamic_block(std::cref(ham_op), b, y, dopts);
    if (stats != nullptr) stats->merge(rep);
    call_counters.merge(rep.apply_counters());

    // Accumulate (4 / dv) Re(Psi_j . Y_j). Columns are disjoint; the
    // j-accumulation order within each column matches the serial loop.
    const double scale = 4.0 / h.grid().dv();
    sched::parallel_for(
        0, s, grain,
        [&](std::size_t c) {
          auto ocol = out.col(c);
          for (std::size_t i = 0; i < n; ++i)
            ocol[i] += scale * psi[i] * y(i, c).real();
        });
  }

  // One measured-intensity event per chi0 application: modeled traffic
  // and work plus time spent inside the operator (summed over the
  // concurrent chunk solves), so the bench reports (Fig. 5 / A1) can quote
  // achieved arithmetic intensity.
  if (obs::EventLog* sink = events != nullptr ? events : opts_.events;
      sink != nullptr && call_counters.applies > 0) {
    sink->emit(obs::events::kApplyCounters,
               "shifted-Hamiltonian apply totals for one chi0 application",
               {{"omega", omega},
                {"applies", static_cast<double>(call_counters.applies)},
                {"columns", static_cast<double>(call_counters.columns)},
                {"bytes", call_counters.bytes},
                {"flops", call_counters.flops},
                {"seconds", call_counters.seconds},
                {"arithmetic_intensity",
                 call_counters.arithmetic_intensity()}});
  }
}

}  // namespace rsrpa::rpa
