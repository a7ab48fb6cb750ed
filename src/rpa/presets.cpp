#include "rpa/presets.hpp"

#include "dft/scf.hpp"

namespace rsrpa::rpa {

SystemPreset make_si_preset(std::size_t ncells, bool paper_scale) {
  SystemPreset p;
  p.name = "Si" + std::to_string(8 * ncells);
  p.ncells = ncells;
  if (paper_scale) {
    p.grid_per_cell = 15;
    p.n_eig_per_atom = 96;
    p.fd_radius = 6;
  }
  return p;
}

BuiltSystem build_system(const SystemPreset& preset, bool run_scf) {
  BuiltSystem out;
  out.preset = preset;

  Rng rng(preset.seed);
  ham::Crystal crystal =
      ham::make_silicon_chain(preset.ncells, preset.perturbation, rng);
  if (preset.vacancy) {
    crystal.remove_atom(4);  // a tetrahedral-site atom
    crystal.rebuild_bonds(ham::diamond_nn_distance(ham::kSiLatticeConstant));
  }

  const grid::Grid3D g(preset.grid_per_cell, preset.grid_per_cell,
                       preset.grid_per_cell * preset.ncells,
                       ham::kSiLatticeConstant, ham::kSiLatticeConstant,
                       ham::kSiLatticeConstant *
                           static_cast<double>(preset.ncells));
  out.h = std::make_shared<ham::Hamiltonian>(g, preset.fd_radius,
                                             std::move(crystal),
                                             ham::ModelParams{});
  // The SIMD choice lands before any orbital is computed: the ground
  // state and every downstream solve use one consistent schedule.
  if (preset.simd >= 0) out.h->set_simd(preset.simd != 0);
  out.klap = std::make_shared<poisson::KroneckerLaplacian>(g, preset.fd_radius);

  Rng eig_rng(preset.seed + 1);
  if (run_scf) {
    dft::ScfOptions sopts;
    dft::ScfResult scf =
        dft::run_scf(*out.h, *out.klap, preset.n_occ(), sopts, eig_rng);
    // Repackage with one extra state for the gap.
    out.ks = dft::make_ks_system(out.h, preset.n_occ(), sopts.eig, eig_rng);
  } else {
    out.ks = dft::make_ks_system(out.h, preset.n_occ(), dft::ChefsiOptions{},
                                 eig_rng);
  }
  return out;
}

RpaOptions BuiltSystem::default_rpa_options() const {
  RpaOptions opts;
  opts.n_eig = preset.n_eig();
  opts.ell = 8;
  opts.stern.tol = 1e-2;
  opts.cheb_degree = 2;
  opts.max_filter_iter = 10;
  return opts;
}

}  // namespace rsrpa::rpa
