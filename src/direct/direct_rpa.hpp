// Direct evaluation of the RPA correlation energy — the quartic-scaling
// baseline (explicit chi0 + dense trace) used for experiment E8 and as
// the high-accuracy oracle for the iterative formulation.
#pragma once

#include "direct/dense.hpp"
#include "rpa/erpa.hpp"
#include "rpa/quadrature.hpp"

namespace rsrpa::direct {

struct DirectRpaResult {
  double e_rpa = 0.0;
  double e_rpa_per_atom = 0.0;
  double total_seconds = 0.0;
  double diagonalization_seconds = 0.0;
  /// Per quadrature point: the exact trace contribution (full spectrum,
  /// or the n_keep most negative eigenvalues when truncated), and the
  /// full spectrum itself (ascending) for Fig. 1.
  std::vector<double> e_terms;
  std::vector<std::vector<double>> spectra;
};

/// Compute E_RPA by full diagonalization + explicit Adler-Wiser chi0 at
/// each of `ell` quadrature points. `keep_spectra` stores the full
/// nu chi0 spectrum per omega (Fig. 1 data). `n_keep` truncates the trace
/// to the n_keep most negative eigenvalues per point (0 = full trace) —
/// the apples-to-apples comparison against the subspace drivers at the
/// same N_NUCHI_EIGS. `control` is the standard cooperative cancel
/// hook, polled at quadrature-point boundaries.
DirectRpaResult compute_direct_rpa(const ham::Hamiltonian& h,
                                   std::size_t n_occ,
                                   const poisson::KroneckerLaplacian& klap,
                                   int ell, bool keep_spectra = false,
                                   std::size_t n_keep = 0,
                                   const rpa::RunControl* control = nullptr);

}  // namespace rsrpa::direct
