#include "solver/chebyshev.hpp"

#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "sched/parallel_for.hpp"

namespace rsrpa::solver {

namespace {

// Column grain for the elementwise three-term updates: chunks of columns
// with disjoint writes, so the fan-out is bitwise identical to the serial
// loop at any thread count. ~256k elements per task keeps task overhead
// negligible against the memory-bound update.
std::size_t update_grain(std::size_t rows) {
  constexpr std::size_t kElemsPerTask = 1u << 18;
  return kElemsPerTask / std::max<std::size_t>(rows, 1) + 1;
}

}  // namespace

void chebyshev_filter_fused(const FilterStepOpR& step, la::Matrix<double>& v,
                            int degree, double a, double b, double a0) {
  RSRPA_REQUIRE(degree >= 1 && b > a && a0 < a);
  const double e = 0.5 * (b - a);
  const double c = 0.5 * (b + a);
  double sigma = e / (a0 - c);
  const double sigma1 = sigma;

  const std::size_t n = v.rows(), s = v.cols();

  // Three rotating buffers: vold = V_{k-1}, vcur = V_k, vnew = V_{k+1}.
  // The rotation replaces the per-iteration "vold = v" block copy of the
  // seed recurrence with swaps.
  la::Matrix<double> vold = std::move(v);
  la::Matrix<double> vcur(n, s), vnew(n, s);

  // V1 = (sigma1 / e) (A - cI) V0.
  step(vold, vcur, sigma1 / e, -c * (sigma1 / e), nullptr, 0.0);

  for (int k = 2; k <= degree; ++k) {
    const double sigma2 = 1.0 / (2.0 / sigma1 - sigma);
    // V_{k+1} = 2 (sigma2/e) (A - cI) V_k - sigma sigma2 V_{k-1}.
    step(vcur, vnew, 2.0 * (sigma2 / e), -2.0 * (sigma2 / e) * c, &vold,
         -(sigma * sigma2));
    std::swap(vold, vcur);  // vold <- V_k
    std::swap(vcur, vnew);  // vcur <- V_{k+1}; vnew holds scratch
    sigma = sigma2;
  }
  v = std::move(vcur);
}

void chebyshev_filter_op(const BlockOpR& a_op, la::Matrix<double>& v,
                         int degree, double a, double b, double a0) {
  const std::size_t n = v.rows(), s = v.cols();
  const std::size_t grain = update_grain(n);
  la::Matrix<double> av(n, s);
  const FilterStepOpR step = [&](const la::Matrix<double>& in,
                                 la::Matrix<double>& out, double c1, double c0,
                                 const la::Matrix<double>* extra, double c2) {
    a_op(in, av);
    sched::parallel_for(0, s, grain, [&](std::size_t j) {
      if (extra != nullptr) {
        for (std::size_t i = 0; i < n; ++i)
          out(i, j) = c1 * av(i, j) + c0 * in(i, j) + c2 * (*extra)(i, j);
      } else {
        for (std::size_t i = 0; i < n; ++i)
          out(i, j) = c1 * av(i, j) + c0 * in(i, j);
      }
    });
  };
  chebyshev_filter_fused(step, v, degree, a, b, a0);
}

}  // namespace rsrpa::solver
