// multigpu_scaling — strong scaling of random sampling over simulated
// devices (paper §4 and Fig. 15). Every device block runs the real
// kernels on the host and is charged modeled K40c seconds; each
// bulk-synchronous step costs its slowest block, so the printed scaling
// is that of concurrent GPUs whatever the host's core count.
//
// Build & run:  ./examples/multigpu_scaling [m n max_devices]
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "la/norms.hpp"
#include "rng/gaussian.hpp"
#include "rsvd/rsvd.hpp"
#include "sim/multi_gpu.hpp"

using namespace randla;

namespace {

// ‖x − y‖_F / max(‖y‖_F, 1).
double rel_diff(const Matrix<double>& x, const Matrix<double>& y) {
  Matrix<double> d = Matrix<double>::copy_of(x.view());
  for (index_t j = 0; j < d.cols(); ++j)
    for (index_t i = 0; i < d.rows(); ++i) d(i, j) -= y(i, j);
  return norm_fro<double>(d.view()) /
         std::max(norm_fro<double>(y.view()), 1.0);
}

}  // namespace

int main(int argc, char** argv) {
  const index_t m = argc > 1 ? std::atoll(argv[1]) : 12000;
  const index_t n = argc > 2 ? std::atoll(argv[2]) : 400;
  const int max_ng = argc > 3 ? std::atoi(argv[3]) : 4;

  std::printf("random sampling of a %lld x %lld Gaussian matrix, "
              "(k;p;q) = (54;10;1), on 1..%d simulated K40c devices\n\n",
              (long long)m, (long long)n, max_ng);
  const Matrix<double> a = rng::gaussian_matrix<double>(m, n, 99);

  rsvd::FixedRankOptions opts;
  opts.k = 54;
  opts.p = 10;
  opts.q = 1;

  std::printf("%4s %12s %9s %10s %8s   %s\n", "ng", "modeled(s)", "speedup",
              "comms(s)", "comms%", "phase breakdown (modeled s)");
  double t1 = 0;
  double max_diff = 0;
  rsvd::FixedRankResult reference;
  for (int ng = 1; ng <= max_ng; ++ng) {
    sim::MultiDeviceContext ctx(ng);
    auto r = ctx.fixed_rank(a.view(), opts);
    if (ng == 1) {
      t1 = r.modeled_total;
      reference = std::move(r.result);
    }
    const auto& md = r.modeled;
    std::printf("%4d %12.5f %8.2fx %10.5f %7.1f%%   "
                "prng %.5f | sampl %.5f | gemm %.5f | orth %.5f | qrcp %.5f "
                "| qr %.5f\n",
                ng, r.modeled_total, t1 / r.modeled_total, md.comms,
                100.0 * md.comms / r.modeled_total, md.prng, md.sampling,
                md.gemm_iter, md.orth_iter, md.qrcp, md.qr);
    // Ω is device-count independent (counter-based PRNG), so the pivots
    // must match the 1-device run; the host reductions reorder sums, so
    // the factors agree to rounding only.
    if (ng > 1) {
      if (r.result.perm != reference.perm) {
        std::printf("!! pivot mismatch vs 1-device run\n");
        return 1;
      }
      max_diff = std::max({max_diff, rel_diff(r.result.q, reference.q),
                           rel_diff(r.result.r, reference.r)});
    }
  }
  std::printf("\nmax relative difference of Q and R vs the 1-device run: "
              "%.2e\n", max_diff);
  if (max_diff > 1e-8) {
    std::printf("!! factors diverged beyond 1e-8\n");
    return 1;
  }
  std::printf("Same pivots on every device count, factors equal to "
              "rounding: the\ncounter-based PRNG makes Ω bitwise-stable; "
              "the host reductions reorder\nfloating-point sums, so the "
              "factors are not.\n");
  return 0;
}
