// lowrank_tall: one caller in a closed loop over rsvd::fixed_rank with
// the paper's Fig. 11 parameters (k = 54, p = 10, q = 1, Gaussian
// sampling, CholQR2) on tall power-spectrum inputs, with a BLAS pool of
// nproc threads. rng, la, ortho, qrcp and rsvd do all the work; runtime,
// net and cluster do none. Exponent-spectrum inputs are left to
// serve_cold: at this shape QP3's own residual on them ranges from 3.5 to
// 5.3 times the optimum across seeds, which swings the residual ratio.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "la/blas3.hpp"
#include "la/parallel.hpp"
#include "ortho/ortho.hpp"
#include "qrcp/qrcp.hpp"
#include "rng/gaussian.hpp"
#include "rsvd/rsvd.hpp"

namespace perfbench {
namespace {

using randla::Op;
namespace rsvd = randla::rsvd;

struct Shape {
  index_t m, n, k, p, q;
  int inputs;
};

struct State {
  std::vector<Matrix<double>> inputs;
  std::vector<double> qp3;  ///< QP3 residual of each input at rank k
};

rsvd::FixedRankOptions fig11_options(const Shape& s) {
  rsvd::FixedRankOptions o;
  o.k = s.k;
  o.p = s.p;
  o.q = s.q;
  o.sampling = rsvd::SamplingKind::Gaussian;
  o.power_ortho = randla::ortho::Scheme::CholQR2;
  return o;
}

std::unique_ptr<State> set_up(const Args& args, const Shape& s) {
  auto st = std::make_unique<State>();
  for (int j = 0; j < s.inputs; ++j) {
    const std::uint64_t seed = mix(args.seed, 100 + j);
    st->inputs.push_back(power_spectrum_matrix(s.m, s.n, seed));
    st->qp3.push_back(qp3_residual(st->inputs.back().view(), s.k));
  }
  // Warm-up: first call sizes the worker pool and the allocator.
  auto opts = fig11_options(s);
  opts.seed = mix(args.seed, 99);
  rsvd::fixed_rank(st->inputs[0].view(), opts);
  return st;
}

/// The kernels of one operation, timed one by one at its exact shapes:
/// Ω fill, sampling GEMM, one power iteration (row orthonormalizations
/// of B and C, B·Aᵀ and C·A), the truncated QP3 of B, and the CholQR2
/// of A·P₁:k.
void probe_kernels(ConstMatrixView<double> a, const Shape& s,
                   std::uint64_t seed, SpanLog& spans, std::uint64_t req) {
  namespace ortho = randla::ortho;
  const index_t l = s.k + s.p;
  Matrix<double> omega(l, s.m), b(l, s.n), c(l, s.m);
  double t = now_s();
  randla::rng::fill_gaussian(omega.view(), seed);
  spans.add(0, req, "rng::fill_gaussian", t, now_s());
  t = now_s();
  randla::blas::gemm(Op::NoTrans, Op::NoTrans, 1.0,
                     ConstMatrixView<double>(omega.view()), a, 0.0, b.view());
  spans.add(0, req, "blas::gemm/sample", t, now_s());

  const std::uint64_t rows = spans.open();
  const std::uint64_t gemms = spans.open();
  double orth_s = 0, gemm_s = 0;
  const double r0 = now_s();
  t = now_s();
  ortho::orthonormalize_rows(ortho::Scheme::CholQR2, b.view());
  orth_s += now_s() - t;
  t = now_s();
  randla::blas::gemm(Op::NoTrans, Op::Trans, 1.0,
                     ConstMatrixView<double>(b.view()), a, 0.0, c.view());
  gemm_s += now_s() - t;
  t = now_s();
  ortho::orthonormalize_rows(ortho::Scheme::CholQR2, c.view());
  orth_s += now_s() - t;
  t = now_s();
  randla::blas::gemm(Op::NoTrans, Op::NoTrans, 1.0,
                     ConstMatrixView<double>(c.view()), a, 0.0, b.view());
  gemm_s += now_s() - t;
  spans.record(rows, 0, req, "ortho::orthonormalize_rows", r0, r0 + orth_s);
  spans.record(gemms, 0, req, "blas::gemm/power", r0, r0 + gemm_s);

  t = now_s();
  const auto f =
      randla::qrcp::qrcp_truncated<double>(ConstMatrixView<double>(b.view()), s.k);
  spans.add(0, req, "qrcp::qrcp_truncated", t, now_s());
  Matrix<double> ap = randla::permuted_leading_columns<double>(a, f.perm, s.k);
  Matrix<double> rbar(s.k, s.k);
  t = now_s();
  ortho::orthonormalize_columns(ortho::Scheme::CholQR2, ap.view(), rbar.view());
  spans.add(0, req, "ortho::orthonormalize_columns", t, now_s());
}

}  // namespace

void run_lowrank_tall(const Args& args, Report& rep) {
  const int threads = nproc();
  randla::set_blas_num_threads(threads);
  const Shape s = args.smoke ? Shape{600, 80, 10, 5, 1, 3}
                             : Shape{10000, 500, 54, 10, 1, 3};
  const index_t l = s.k + s.p;

  std::unique_ptr<State> st;
  for (int r = 0; r < 3; ++r) {
    const double t0 = r == 0 ? 0.0 : now_s();
    st.reset();
    st = set_up(args, s);
    rep.setup_s.push_back(now_s() - t0);
  }

  SpanLog spans(args.trace);
  const auto opts0 = fig11_options(s);
  std::vector<double> lat_ms, ratios, unaccounted;
  std::uint64_t ops = 0, split_batches = 0, bad = 0;
  int fallbacks = 0;
  double busy_s = 0;
  bool perturbed = false;
  while (busy_s < args.seconds) {
    const std::uint64_t i = ops++;
    const int j = int(i % std::uint64_t(s.inputs));
    const ConstMatrixView<double> a = st->inputs[j].view();
    auto opts = opts0;
    opts.seed = mix(args.seed, 1000 + i);

    const auto pool0 = randla::pool_stats();
    rsvd::FixedRankResult res;
    const double t0 = now_s();
    if (!args.trace) {
      res = rsvd::fixed_rank(a, opts);
    } else {
      const std::uint64_t op = spans.open();
      rsvd::PhaseTimes ph;
      rsvd::PhaseFlops fl;
      int fb = 0;
      const double s0 = now_s();
      Matrix<double> b = rsvd::compute_sample(a, opts, &ph, &fl, &fb);
      const double s1 = now_s();
      res = rsvd::finish_from_sample(a, b.view(), opts.k, opts.qrcp_block);
      const double s2 = now_s();
      spans.add(op, i + 1, "rsvd::compute_sample", s0, s1);
      spans.add(op, i + 1, "rsvd::finish_from_sample", s1, s2);
      spans.record(op, 0, i + 1, "lowrank_tall.op", s0, s2);
      fallbacks += fb + res.cholqr_fallbacks;
      unaccounted.push_back(1.0 - (ph.total() + res.phases.total()) / (s2 - s0));
    }
    const double t1 = now_s();
    split_batches += randla::pool_stats().split_batches - pool0.split_batches;
    busy_s += t1 - t0;
    lat_ms.push_back((t1 - t0) * 1e3);

    // Seeded subset (about one op in four, always the first) checked
    // against QP3 on the same input and rank.
    if (i == 0 || unit(args.seed, 5000 + i) < 0.25) {
      if (args.perturb && !perturbed) {
        res.q(0, 0) += 1.0;
        perturbed = true;
      }
      const double ratio =
          factor_residual(a, res.perm, res.q.view(), res.r.view()) / st->qp3[j];
      ratios.push_back(ratio);
      if (!(ratio <= kMaxResidualRatio) && ++bad)
        rep.fail_check("op " + std::to_string(i) + " residual ratio " +
                       std::to_string(ratio));
    }
    if (args.trace && i % 8 == 0)
      probe_kernels(a, s, mix(args.seed, 9000 + i), spans, i + 1);
  }

  rep.attempted = ops;
  rep.failed = bad;
  const Pct p50 = percentile(lat_ms, 0.50), p90 = percentile(lat_ms, 0.90);
  rep.note_pct("latency_p50_ms", p50);
  rep.note_pct("latency_p90_ms", p90);
  rep.note("checked", std::to_string(ratios.size()));
  char shape[160];
  std::snprintf(shape, sizeof shape,
                "{\"m\":%lld,\"n\":%lld,\"k\":%lld,\"p\":%lld,\"q\":%lld,"
                "\"inputs\":%d,\"loop\":\"closed\",\"callers\":1}",
                (long long)s.m, (long long)s.n, (long long)s.k,
                (long long)s.p, (long long)s.q, s.inputs);
  rep.note("shape", shape);

  double ratio_max = 0;
  for (double r : ratios) ratio_max = std::max(ratio_max, r);
  rep.add("throughput_ops_s", double(ops - rep.failed) / busy_s, "1/s");
  rep.add("latency_p50_ms", p50.value, "ms");
  rep.add("latency_p90_ms", p90.value, "ms");
  rep.add("success_ratio", double(ops - rep.failed) / double(ops), "ratio");
  rep.add("residual_ratio_max", ratio_max, "ratio");
  rep.add("bench.ops", double(ops), "count");

  if (!args.trace) return;
  const double fill = median(spans.durations("rng::fill_gaussian"));
  const double gsample = median(spans.durations("blas::gemm/sample"));
  const double gemm_flops = (1 + 2 * s.q) * 2.0 * double(l) * s.m * s.n;
  const double gemm_bytes =
      (1 + 2 * s.q) * 8.0 * (double(l) * s.m + double(s.m) * s.n + double(l) * s.n);
  rep.add("rng.fill_ms", fill * 1e3, "ms");
  rep.add("rng.variates_per_s", double(l) * s.m / fill, "1/s");
  rep.add("la.gemm_sample_ms", gsample * 1e3, "ms");
  rep.add("la.gemm_sample_gflops", 2.0 * l * s.m * s.n / gsample * 1e-9, "GFLOP/s");
  rep.add("la.gemm_power_ms", median(spans.durations("blas::gemm/power")) * 1e3, "ms");
  rep.add("la.gemm_flops_per_op", gemm_flops, "flop");
  rep.add("la.gemm_bytes_per_op", gemm_bytes, "B");
  rep.add("la.pool_split_batches_per_op", double(split_batches) / double(ops), "count");
  rep.add("ortho.rows_ms", median(spans.durations("ortho::orthonormalize_rows")) * 1e3, "ms");
  rep.add("ortho.cols_ms", median(spans.durations("ortho::orthonormalize_columns")) * 1e3, "ms");
  rep.add("rsvd.step1_ms", median(spans.durations("rsvd::compute_sample")) * 1e3, "ms");
  rep.add("rsvd.step23_ms", median(spans.durations("rsvd::finish_from_sample")) * 1e3, "ms");
  rep.add("rsvd.unaccounted_ratio", median(unaccounted), "ratio");
  rep.add("rsvd.cholqr_fallbacks", double(fallbacks), "count");
  rep.add("qrcp.truncated_ms", median(spans.durations("qrcp::qrcp_truncated")) * 1e3, "ms");
  rep.add("bench.trace_overhead_ratio", double(spans.size()) * span_cost_s() / busy_s, "ratio");
  spans.write_json(args.out_dir + "/spans_lowrank_tall.json");
}

}  // namespace perfbench
