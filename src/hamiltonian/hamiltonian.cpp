#include "hamiltonian/hamiltonian.hpp"

#include <algorithm>

namespace rsrpa::ham {

Hamiltonian::Hamiltonian(const grid::Grid3D& g, int fd_radius, Crystal crystal,
                         ModelParams params)
    : lap_(g, fd_radius),
      crystal_(std::move(crystal)),
      params_(params),
      v_loc_(build_local_potential(g, crystal_, params_)),
      nonlocal_(g, crystal_, params_) {
  refresh_bounds();
}

void Hamiltonian::set_local_potential(std::vector<double> v) {
  RSRPA_REQUIRE(v.size() == grid().size());
  v_loc_ = std::move(v);
  refresh_bounds();
}

void Hamiltonian::refresh_bounds() {
  const auto [vmin_it, vmax_it] =
      std::minmax_element(v_loc_.begin(), v_loc_.end());
  const double kinetic_max = -0.5 * lap_.min_eigenvalue_bound();
  const double nl_norm = nonlocal_.operator_norm();
  upper_bound_ = kinetic_max + *vmax_it + nl_norm;
  lower_bound_ = *vmin_it;  // kinetic and nonlocal terms are PSD
}

}  // namespace rsrpa::ham
