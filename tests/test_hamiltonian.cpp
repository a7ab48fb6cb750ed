// Tests for the crystal builder, model potential, nonlocal projectors and
// Hamiltonian applies.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "common/rng.hpp"
#include "hamiltonian/hamiltonian.hpp"
#include "la/blas.hpp"
#include "solver/dynamic_block.hpp"
#include "solver/operator.hpp"

namespace rsrpa::ham {
namespace {

using grid::Grid3D;

Crystal unperturbed_si8() {
  Rng rng(0);
  return make_silicon_chain(1, 0.0, rng);
}

TEST(Crystal, Si8HasEightAtomsSixteenBonds) {
  Crystal c = unperturbed_si8();
  EXPECT_EQ(c.n_atoms(), 8u);
  // Diamond: 4 bonds per atom, each shared by two atoms.
  EXPECT_EQ(c.bonds().size(), 16u);
  EXPECT_EQ(c.n_occupied(), 16u);
}

TEST(Crystal, ChainReplicatesAlongZ) {
  Rng rng(1);
  Crystal c = make_silicon_chain(3, 0.0, rng);
  EXPECT_EQ(c.n_atoms(), 24u);
  EXPECT_EQ(c.bonds().size(), 48u);
  EXPECT_DOUBLE_EQ(c.lz(), 3.0 * kSiLatticeConstant);
  EXPECT_DOUBLE_EQ(c.lx(), kSiLatticeConstant);
}

TEST(Crystal, BondLengthsAreNearIdeal) {
  Crystal c = unperturbed_si8();
  const double ideal = diamond_nn_distance(kSiLatticeConstant);
  for (const Bond& b : c.bonds()) {
    const double dx =
        Grid3D::min_image(c.atoms()[b.a].pos[0] - c.atoms()[b.b].pos[0], c.lx());
    const double dy =
        Grid3D::min_image(c.atoms()[b.a].pos[1] - c.atoms()[b.b].pos[1], c.ly());
    const double dz =
        Grid3D::min_image(c.atoms()[b.a].pos[2] - c.atoms()[b.b].pos[2], c.lz());
    EXPECT_NEAR(std::sqrt(dx * dx + dy * dy + dz * dz), ideal, 1e-9);
  }
}

TEST(Crystal, PerturbationMovesAtomsButKeepsTopology) {
  Rng rng(2);
  Crystal c = make_silicon_chain(1, 0.02, rng);
  EXPECT_EQ(c.n_atoms(), 8u);
  EXPECT_EQ(c.bonds().size(), 16u);  // 2% of a is far below bond tolerance
  Rng rng2(2);
  Crystal ref = make_silicon_chain(1, 0.0, rng2);
  double total_shift = 0.0;
  for (std::size_t i = 0; i < 8; ++i)
    for (int d = 0; d < 3; ++d)
      total_shift += std::abs(c.atoms()[i].pos[d] - ref.atoms()[i].pos[d]);
  EXPECT_GT(total_shift, 0.0);
}

TEST(Crystal, RemoveAtomCreatesVacancy) {
  Crystal c = unperturbed_si8();
  c.remove_atom(4);
  c.rebuild_bonds(diamond_nn_distance(kSiLatticeConstant));
  EXPECT_EQ(c.n_atoms(), 7u);
  EXPECT_EQ(c.n_occupied(), 14u);
  EXPECT_EQ(c.bonds().size(), 12u);  // the removed atom had 4 bonds
}

TEST(Potential, IsNegativeAndDeepestNearBonds) {
  Grid3D g = Grid3D::cubic(15, kSiLatticeConstant);
  Crystal c = unperturbed_si8();
  ModelParams p;
  const std::vector<double> v = build_local_potential(g, c, p);
  double vmin = 0.0;
  for (double x : v) {
    EXPECT_LE(x, 1e-12);
    vmin = std::min(vmin, x);
  }
  EXPECT_LT(vmin, -p.v_bond * 0.5);
}

TEST(Nonlocal, ProjectorTermIsSymmetricPsd) {
  Grid3D g = Grid3D::cubic(12, kSiLatticeConstant);
  Crystal c = unperturbed_si8();
  ModelParams p;
  NonlocalProjectors nl(g, c, p);
  EXPECT_EQ(nl.n_projectors(), 8u);
  Rng rng(21);
  std::vector<double> u(g.size()), v(g.size());
  rng.fill_uniform(u);
  rng.fill_uniform(v);
  std::vector<double> nu(g.size(), 0.0), nv(g.size(), 0.0);
  nl.apply_add<double>(u, nu);
  nl.apply_add<double>(v, nv);
  // Symmetry: <u, N v> = <v, N u>; positivity: <u, N u> >= 0.
  EXPECT_NEAR(la::dot(u, nv), la::dot(v, nu), 1e-10 * std::abs(la::dot(u, nv)) + 1e-12);
  EXPECT_GE(la::dot(u, nu), 0.0);
}

TEST(Nonlocal, OperatorNormBoundsRayleighQuotients) {
  Grid3D g = Grid3D::cubic(12, kSiLatticeConstant);
  Crystal c = unperturbed_si8();
  ModelParams p;
  NonlocalProjectors nl(g, c, p);
  const double norm = nl.operator_norm();
  EXPECT_GT(norm, 0.0);
  EXPECT_LE(norm, p.proj_gamma * 8.0 + 1e-9);
  Rng rng(22);
  for (int t = 0; t < 5; ++t) {
    std::vector<double> u(g.size()), nu(g.size(), 0.0);
    rng.fill_uniform(u);
    nl.apply_add<double>(u, nu);
    EXPECT_LE(la::dot(u, nu) / la::dot(u, u), norm + 1e-9);
  }
}

TEST(Nonlocal, ZeroGammaIsNoOp) {
  Grid3D g = Grid3D::cubic(10, kSiLatticeConstant);
  Crystal c = unperturbed_si8();
  ModelParams p;
  p.proj_gamma = 0.0;
  NonlocalProjectors nl(g, c, p);
  EXPECT_EQ(nl.n_projectors(), 0u);
  EXPECT_DOUBLE_EQ(nl.operator_norm(), 0.0);
}

TEST(Hamiltonian, IsSymmetric) {
  Grid3D g = Grid3D::cubic(11, kSiLatticeConstant);
  Hamiltonian h(g, 4, unperturbed_si8(), ModelParams{});
  Rng rng(23);
  std::vector<double> u(g.size()), v(g.size()), hu(g.size()), hv(g.size());
  rng.fill_uniform(u);
  rng.fill_uniform(v);
  h.apply<double>(u, hu);
  h.apply<double>(v, hv);
  EXPECT_NEAR(la::dot(u, hv), la::dot(v, hu),
              1e-10 * std::abs(la::dot(u, hv)));
}

TEST(Hamiltonian, BoundsContainRayleighQuotients) {
  Grid3D g = Grid3D::cubic(11, kSiLatticeConstant);
  Hamiltonian h(g, 4, unperturbed_si8(), ModelParams{});
  Rng rng(24);
  for (int t = 0; t < 8; ++t) {
    std::vector<double> u(g.size()), hu(g.size());
    rng.fill_uniform(u);
    h.apply<double>(u, hu);
    const double rq = la::dot(u, hu) / la::dot(u, u);
    EXPECT_GE(rq, h.lower_bound() - 1e-9);
    EXPECT_LE(rq, h.upper_bound() + 1e-9);
  }
}

TEST(Hamiltonian, ShiftedApplyMatchesDefinition) {
  Grid3D g = Grid3D::cubic(9, kSiLatticeConstant);
  Hamiltonian h(g, 3, unperturbed_si8(), ModelParams{});
  Rng rng(25);
  la::Matrix<la::cplx> in(g.size(), 2), out(g.size(), 2), href(g.size(), 2);
  for (std::size_t j = 0; j < 2; ++j)
    for (std::size_t i = 0; i < g.size(); ++i)
      in(i, j) = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const double lambda = -0.3, omega = 0.7;
  h.apply_shifted_block(in, out, lambda, omega);
  h.apply_block<la::cplx>(in, href);
  for (std::size_t j = 0; j < 2; ++j)
    for (std::size_t i = 0; i < g.size(); ++i) {
      const la::cplx expect =
          href(i, j) + la::cplx{-lambda, omega} * in(i, j);
      EXPECT_NEAR(std::abs(out(i, j) - expect), 0.0, 1e-12);
    }
}

TEST(Hamiltonian, ShiftedOperatorIsComplexSymmetric) {
  // <u, A v> = <v, A u> with the UNCONJUGATED bilinear form — the property
  // COCG is built on.
  Grid3D g = Grid3D::cubic(9, kSiLatticeConstant);
  Hamiltonian h(g, 3, unperturbed_si8(), ModelParams{});
  Rng rng(26);
  std::vector<la::cplx> u(g.size()), v(g.size()), au(g.size()), av(g.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    u[i] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    v[i] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  h.apply_shifted(u, au, -0.2, 0.31);
  h.apply_shifted(v, av, -0.2, 0.31);
  const la::cplx uav = la::dot_u(u, av);
  const la::cplx vau = la::dot_u(v, au);
  EXPECT_NEAR(std::abs(uav - vau), 0.0, 1e-9 * std::abs(uav));
}

TEST(Hamiltonian, SetLocalPotentialRefreshesBounds) {
  Grid3D g = Grid3D::cubic(9, kSiLatticeConstant);
  Hamiltonian h(g, 3, unperturbed_si8(), ModelParams{});
  std::vector<double> v(g.size(), 5.0);
  h.set_local_potential(v);
  // With a constant potential the local contribution to both bounds is 5.
  EXPECT_DOUBLE_EQ(h.lower_bound(), 5.0);
  EXPECT_GT(h.upper_bound(), 5.0);
}

// The shifted-apply cost model in 8-byte words, and an operator-counted
// solve: the report counts every block application and bills each column
// at the model's bytes and flops.
TEST(ApplyCostModel, PinsFp64ByteCountsAndCountsApplies) {
  Rng crystal_rng(0);
  const Hamiltonian h(Grid3D::cubic(12, kSiLatticeConstant), 4,
                      make_silicon_chain(1, 0.0, crystal_rng), ModelParams{});
  const double n = static_cast<double>(h.grid().size());
  const double nnz = static_cast<double>(h.nonlocal().support_size());

  const solver::ApplyCostModel fused = solver::shifted_apply_cost(h, true);
  const solver::ApplyCostModel ref = solver::shifted_apply_cost(h, false);
  EXPECT_DOUBLE_EQ(fused.bytes_per_column, 40.0 * n + 64.0 * nnz);
  EXPECT_DOUBLE_EQ(ref.bytes_per_column, 136.0 * n + 64.0 * nnz);
  EXPECT_DOUBLE_EQ(fused.flops_per_column, ref.flops_per_column);

  const solver::ShiftedHamiltonianOp op(h, 0.1, 0.8);
  const std::size_t ng = h.grid().size();
  Rng rng(3);
  la::Matrix<cplx> b(ng, 2), y(ng, 2);
  for (std::size_t j = 0; j < 2; ++j)
    for (std::size_t i = 0; i < ng; ++i)
      b(i, j) = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  long applies = 0, columns = 0;  // one chunk: never counted concurrently
  solver::DynamicBlockOptions dopts;
  dopts.enabled = false;
  dopts.fixed_block = 2;
  dopts.solver.tol = 1e-6;
  dopts.solver.matvec_bytes_per_column = fused.bytes_per_column;
  dopts.solver.matvec_flops_per_column = fused.flops_per_column;
  const solver::DynamicBlockReport rep = solver::solve_dynamic_block(
      [&](const la::Matrix<cplx>& in, la::Matrix<cplx>& o) {
        ++applies;
        columns += static_cast<long>(in.cols());
        op.apply(in, o);
      },
      b, y, dopts);
  EXPECT_TRUE(rep.all_converged);
  const solver::ApplyCounters c = rep.apply_counters();
  EXPECT_GT(applies, 0);
  EXPECT_EQ(c.applies, applies);
  EXPECT_EQ(c.columns, columns);
  ASSERT_EQ(rep.chunks.size(), 1u);
  EXPECT_EQ(rep.chunks[0].applies, applies);
  EXPECT_DOUBLE_EQ(c.bytes,
                   static_cast<double>(columns) * fused.bytes_per_column);
  EXPECT_DOUBLE_EQ(c.flops,
                   static_cast<double>(columns) * fused.flops_per_column);
}

}  // namespace
}  // namespace rsrpa::ham
