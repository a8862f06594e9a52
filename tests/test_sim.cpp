// Tests for multi-device random sampling: numerical agreement of
// multi-device runs with the single-device algorithm, thread-count
// invariance, the modeled charges of each step, and scaling behaviour
// of the modeled clocks (Figure 15's shape).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "data/test_matrices.hpp"
#include "la/blas3.hpp"
#include "la/flops.hpp"
#include "la/parallel.hpp"
#include "rsvd/rsvd.hpp"
#include "sim/multi_gpu.hpp"
#include "test_util.hpp"

namespace randla::sim {
namespace {

using testing::ortho_defect;
using testing::random_matrix;
using testing::rel_diff;

TEST(MultiDeviceContext, RowDistributionCoversMatrix) {
  MultiDeviceContext ctx(3);
  auto a = random_matrix<double>(10, 4, 301);
  auto rb = ctx.distribute_rows(a.view());
  ASSERT_EQ(rb.block.size(), 3u);
  EXPECT_EQ(rb.offset.front(), 0);
  EXPECT_EQ(rb.offset.back(), 10);
  // 10 = 4 + 3 + 3.
  EXPECT_EQ(rb.block[0].rows(), 4);
  EXPECT_EQ(rb.block[1].rows(), 3);
  EXPECT_EQ(rb.block[2].rows(), 3);
  for (int i = 0; i < 3; ++i)
    for (index_t r = 0; r < rb.block[static_cast<std::size_t>(i)].rows(); ++r)
      for (index_t j = 0; j < 4; ++j)
        EXPECT_EQ(rb.block[static_cast<std::size_t>(i)](r, j),
                  a(rb.offset[static_cast<std::size_t>(i)] + r, j));
}

TEST(MultiDeviceContext, ZeroDevicesThrows) {
  EXPECT_THROW(MultiDeviceContext(0), std::invalid_argument);
}

TEST(MultiCholQr, OrthonormalizesDistributedColumns) {
  MultiDeviceContext ctx(3);
  const index_t m = 90, k = 8;
  auto a = random_matrix<double>(m, k, 302);
  auto rb = ctx.distribute_rows(a.view());
  Matrix<double> rbar(k, k);
  auto times = ctx.multi_cholqr_columns(rb.block, &rbar);
  EXPECT_GT(times.device, 0.0);
  EXPECT_GT(times.comms, 0.0);
  // Reassemble Q and verify.
  Matrix<double> q(m, k);
  for (int i = 0; i < 3; ++i)
    q.view()
        .rows_range(rb.offset[static_cast<std::size_t>(i)],
                    rb.offset[static_cast<std::size_t>(i) + 1])
        .copy_from(ConstMatrixView<double>(
            rb.block[static_cast<std::size_t>(i)].view()));
  EXPECT_LT(ortho_defect<double>(q.view()), 1e-10);
  // Q·R̄ reconstructs A.
  Matrix<double> rec(m, k);
  blas::gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, q.view(), rbar.view(),
                     0.0, rec.view());
  EXPECT_LT(rel_diff<double>(rec.view(), a.view()), 1e-11);
}

TEST(MultiCholQr, FallsBackOnRankDeficientInput) {
  MultiDeviceContext ctx(2);
  const index_t m = 40, k = 3;
  Matrix<double> a(m, k);
  for (index_t j = 0; j < k; ++j)
    for (index_t i = 0; i < m; ++i) a(i, j) = double(i + 1) * double(j + 1);
  auto rb = ctx.distribute_rows(a.view());
  ctx.multi_cholqr_columns(rb.block);
  Matrix<double> q(m, k);
  for (int i = 0; i < 2; ++i)
    q.view()
        .rows_range(rb.offset[static_cast<std::size_t>(i)],
                    rb.offset[static_cast<std::size_t>(i) + 1])
        .copy_from(ConstMatrixView<double>(
            rb.block[static_cast<std::size_t>(i)].view()));
  // Fallback produces orthonormal columns even for the degenerate input.
  Matrix<double> g(k, k);
  blas::gemm<double>(Op::Trans, Op::NoTrans, 1.0, q.view(), q.view(), 0.0,
                     g.view());
  EXPECT_NEAR(g(0, 0), 1.0, 1e-10);
}

class MultiDeviceAgreement : public ::testing::TestWithParam<int> {};

TEST_P(MultiDeviceAgreement, MatchesSingleDeviceRun) {
  // The multi-device run must compute the same factorization as the
  // single-device driver (same Ω by counter-based PRNG; host reductions
  // reorder floating-point sums, so agreement is to ~1e-9, not bitwise).
  const int ng = GetParam();
  const index_t m = 120, n = 60, k = 8, p = 4;
  auto tm = data::exponent_matrix<double>(m, n, 44);

  rsvd::FixedRankOptions opts;
  opts.k = k;
  opts.p = p;
  opts.q = 1;
  auto single = rsvd::fixed_rank(tm.a.view(), opts);

  MultiDeviceContext ctx(ng);
  auto multi = ctx.fixed_rank(tm.a.view(), opts);

  EXPECT_EQ(single.perm, multi.result.perm) << "pivot sequence diverged";
  EXPECT_LT(rel_diff<double>(multi.result.q.view(), single.q.view()), 1e-8);
  EXPECT_LT(rel_diff<double>(multi.result.r.view(), single.r.view()), 1e-8);
  // And it must be a valid approximation in its own right: the exponent
  // spectrum has σ₉/σ₀ ≈ 0.16, so a rank-8 error near 0.2 is optimal.
  const double err = rsvd::approximation_error(tm.a.view(), multi.result);
  EXPECT_LT(err, 0.5);
}

INSTANTIATE_TEST_SUITE_P(DeviceCounts, MultiDeviceAgreement,
                         ::testing::Values(1, 2, 3, 4));

TEST(MultiDevice, Q0PathAgreesToo) {
  const index_t m = 80, n = 40, k = 6, p = 4;
  auto a = random_matrix<double>(m, n, 303);
  rsvd::FixedRankOptions opts;
  opts.k = k;
  opts.p = p;
  opts.q = 0;
  auto single = rsvd::fixed_rank(a.view(), opts);
  MultiDeviceContext ctx(3);
  auto multi = ctx.fixed_rank(a.view(), opts);
  EXPECT_EQ(single.perm, multi.result.perm);
  EXPECT_LT(rel_diff<double>(multi.result.q.view(), single.q.view()), 1e-9);
}

TEST(MultiDevice, FftSamplingRejected) {
  MultiDeviceContext ctx(2);
  auto a = random_matrix<double>(40, 20, 304);
  rsvd::FixedRankOptions opts;
  opts.k = 4;
  opts.p = 2;
  opts.sampling = rsvd::SamplingKind::FFT;
  EXPECT_THROW(ctx.fixed_rank(a.view(), opts), std::invalid_argument);
}

TEST(MultiDevice, ModeledTimeShrinksWithMoreDevices) {
  // Fig. 15's strong scaling: the modeled total must decrease with ng
  // (with the paper's dimensions the speedup is superlinear thanks to
  // the tall-aspect GEMM penalty easing; here we only require monotone
  // improvement).
  const index_t m = 3000, n = 300, k = 54, p = 10;
  auto a = random_matrix<double>(m, n, 305);
  rsvd::FixedRankOptions opts;
  opts.k = k;
  opts.p = p;
  opts.q = 1;
  double prev = 1e30;
  for (int ng = 1; ng <= 3; ++ng) {
    MultiDeviceContext ctx(ng);
    auto r = ctx.fixed_rank(a.view(), opts);
    EXPECT_LT(r.modeled.sampling + r.modeled.gemm_iter, prev)
        << "GEMM phases must scale with ng=" << ng;
    prev = r.modeled.sampling + r.modeled.gemm_iter;
    EXPECT_GT(r.modeled.comms, 0.0);
  }
}

TEST(MultiDevice, CommsGrowWithDeviceCount) {
  const index_t m = 900, n = 120, k = 10, p = 6;
  auto a = random_matrix<double>(m, n, 306);
  rsvd::FixedRankOptions opts;
  opts.k = k;
  opts.p = p;
  opts.q = 1;
  MultiDeviceContext c1(1), c3(3);
  auto r1 = c1.fixed_rank(a.view(), opts);
  auto r3 = c3.fixed_rank(a.view(), opts);
  EXPECT_GT(r3.modeled.comms, r1.modeled.comms);
}

TEST(MultiDevice, PhaseClocksPopulated) {
  const index_t m = 200, n = 80, k = 8, p = 4;
  auto a = random_matrix<double>(m, n, 307);
  rsvd::FixedRankOptions opts;
  opts.k = k;
  opts.p = p;
  opts.q = 2;
  MultiDeviceContext ctx(2);
  auto r = ctx.fixed_rank(a.view(), opts);
  EXPECT_GT(r.modeled.prng, 0.0);
  EXPECT_GT(r.modeled.sampling, 0.0);
  EXPECT_GT(r.modeled.gemm_iter, 0.0);
  EXPECT_GT(r.modeled.orth_iter, 0.0);
  EXPECT_GT(r.modeled.qrcp, 0.0);
  EXPECT_GT(r.modeled.qr, 0.0);
  EXPECT_GT(r.modeled.comms, 0.0);
  EXPECT_NEAR(r.modeled_total, r.modeled.total(), 1e-12);
}

TEST(MultiDevice, Step3ChargesMatchTheModel) {
  // Step 3 on one device is the column gather of A·P₁:k, then the
  // CholQR of the gathered block (Gram, host Cholesky, triangular
  // solve), then the host assembly of R. Every one of them is charged.
  const index_t m = 200, n = 80, k = 8, p = 4;
  auto a = random_matrix<double>(m, n, 308);
  rsvd::FixedRankOptions opts;
  opts.k = k;
  opts.p = p;
  opts.q = 1;
  MultiDeviceContext ctx(1);
  auto r = ctx.fixed_rank(a.view(), opts);
  ASSERT_EQ(r.result.cholqr_fallbacks, 0);

  const auto& spec = ctx.spec();
  const double gather =
      double(m) * double(k) * 8.0 / (spec.mem_bw_gbps * 1e9);
  const double device =
      model::gemm_seconds(spec, k, k, m) +
      flops::trsm(m, k) / (model::gemm_gflops(spec, k, m) * 1e9);
  const double host = model::host_seconds(spec, flops::potrf(k));
  const double assembly = model::host_seconds(
      spec, flops::trsm(n - k, k) + double(k) * double(k) * double(n - k));
  EXPECT_DOUBLE_EQ(r.modeled.qr, gather + (device + host) + assembly);
}

bool same_bits(const Matrix<double>& x, const Matrix<double>& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(),
                     sizeof(double) * static_cast<std::size_t>(x.rows()) *
                         static_cast<std::size_t>(x.cols())) == 0;
}

TEST(MultiDevice, BitwiseAcrossThreadCounts) {
  // The device blocks run one after another and each kernel splits its
  // work over the BLAS pool by shape, never by thread count, so the
  // factors are bitwise the same however many workers there are.
  const index_t m = 600, n = 2200, k = 8, p = 4;  // wide: threaded gemm
  auto a = random_matrix<double>(m, n, 309);
  rsvd::FixedRankOptions opts;
  opts.k = k;
  opts.p = p;
  opts.q = 1;
  MultiDeviceContext ctx(3);
  const index_t saved = blas_num_threads();
  set_blas_num_threads(1);
  auto r1 = ctx.fixed_rank(a.view(), opts);
  set_blas_num_threads(4);
  const auto splits = pool_stats().split_batches;
  auto r4 = ctx.fixed_rank(a.view(), opts);
  EXPECT_GT(pool_stats().split_batches, splits) << "pool never engaged";
  set_blas_num_threads(saved);

  EXPECT_EQ(r1.result.perm, r4.result.perm);
  EXPECT_TRUE(same_bits(r1.result.q, r4.result.q));
  EXPECT_TRUE(same_bits(r1.result.r, r4.result.r));
  EXPECT_EQ(r1.modeled.prng, r4.modeled.prng);
  EXPECT_EQ(r1.modeled.sampling, r4.modeled.sampling);
  EXPECT_EQ(r1.modeled.gemm_iter, r4.modeled.gemm_iter);
  EXPECT_EQ(r1.modeled.orth_iter, r4.modeled.orth_iter);
  EXPECT_EQ(r1.modeled.qrcp, r4.modeled.qrcp);
  EXPECT_EQ(r1.modeled.qr, r4.modeled.qr);
  EXPECT_EQ(r1.modeled.comms, r4.modeled.comms);
  EXPECT_EQ(r1.modeled_total, r4.modeled_total);
}

}  // namespace
}  // namespace randla::sim
