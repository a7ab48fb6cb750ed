// Experimental system presets — Tables I and III of the paper.
//
// Each preset is an 8*ncells-atom silicon chain (one diamond cell
// replicated along z) on a uniform grid. Paper scale uses the published
// parameters (15 grid points per cell edge = 0.684 Bohr mesh, 96
// eigenvalues per atom, stencil radius 6); bench scale shrinks the mesh
// and eigencount so every experiment runs in seconds on one core while
// preserving the shape of the results (see DESIGN.md).
#pragma once

#include <memory>
#include <string>

#include "dft/ks_system.hpp"
#include "poisson/kronecker.hpp"
#include "rpa/erpa.hpp"

namespace rsrpa::rpa {

struct SystemPreset {
  std::string name = "Si8";
  std::size_t ncells = 1;
  std::size_t grid_per_cell = 11;   ///< 15 at paper scale (Table I mesh)
  std::size_t n_eig_per_atom = 12;  ///< 96 at paper scale (Table I)
  int fd_radius = 4;                ///< 6 at paper scale
  double perturbation = 0.01;       ///< fraction of lattice constant
  bool vacancy = false;             ///< remove one atom (SS IV-A energy diff)
  std::uint64_t seed = 7;
  /// Vectorized stencil rows, applied to the built Hamiltonian before
  /// any orbital is computed (so the whole job, ground state included,
  /// runs one schedule): -1 keeps the compiled default (on when compiled
  /// in), 0 forces the scalar rows, 1 requests the SIMD rows (no-op in
  /// scalar-only builds).
  int simd = -1;

  [[nodiscard]] std::size_t n_atoms() const {
    return 8 * ncells - (vacancy ? 1 : 0);
  }
  [[nodiscard]] std::size_t n_occ() const { return 2 * n_atoms(); }
  [[nodiscard]] std::size_t n_grid() const {
    return grid_per_cell * grid_per_cell * grid_per_cell * ncells;
  }
  [[nodiscard]] std::size_t n_eig() const {
    return n_eig_per_atom * n_atoms();
  }
};

/// Table III system: Si_{8 n} at bench or paper scale.
SystemPreset make_si_preset(std::size_t ncells, bool paper_scale = false);

/// A preset plus everything built from it, ready for RPA.
struct BuiltSystem {
  SystemPreset preset;
  std::shared_ptr<ham::Hamiltonian> h;
  std::shared_ptr<poisson::KroneckerLaplacian> klap;
  dft::KsSystem ks;

  /// RpaOptions prefilled with the preset's Table I analogues.
  [[nodiscard]] RpaOptions default_rpa_options() const;
};

/// Build the crystal, Hamiltonian, Poisson operator and occupied orbitals
/// for a preset. `run_scf` adds the self-consistent loop (slower; the
/// solver-focused experiments use the fixed model potential).
BuiltSystem build_system(const SystemPreset& preset, bool run_scf = false);

}  // namespace rsrpa::rpa
