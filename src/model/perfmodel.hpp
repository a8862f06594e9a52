// perfmodel.hpp — analytic performance model of the paper's Section 5,
// calibrated to the NVIDIA K40c numbers reported in Sections 8–9.
//
// The repository has no GPU, so every kernel a simulated device runs
// is charged a *modeled* time from this module (see DESIGN.md). The
// model is deliberately simple — throughput tables at the paper's
// operating points plus a tall-aspect penalty — because its job is to
// reproduce the paper's performance *shape* (who wins, where the
// crossovers sit), not to be a microarchitectural simulator.
//
// Calibration sources:
//  * peak 1430 DP-Gflop/s, 288 GB/s (Fig. 8 annotations)
//  * GEMM efficiency vs panel width ℓ (Fig. 18: 8→123, …, 64→778 Gflop/s)
//  * GEMM tall-aspect penalty (§9: 440/630/760 Gflop/s at chunk heights
//    150k/75k/50k)
//  * full-FFT sampling ≈ 135 Gflop/s, GEMV ≈ 45 Gflop/s (§8, Fig. 8)
//  * QP3 < 29 Gflop/s on n = 2500 (Fig. 10), ≈ 1.2 Gflop/s tall-skinny
//    (Fig. 7); HHQR ≈ 5× QP3 (Fig. 7), CholQR plateau ≈ 150 Gflop/s on
//    short-wide (Fig. 9)
//  * PCIe gen-3 x16 ≈ 12 GB/s for host↔device transfers
#pragma once

#include <string>

#include "la/matrix.hpp"
#include "ortho/ortho.hpp"

namespace randla::model {

/// Calibrated device description. Defaults model one Tesla K40c.
struct DeviceSpec {
  std::string name = "K40c (modeled)";
  double peak_dp_gflops = 1430.0;
  double mem_bw_gbps = 288.0;    ///< device memory bandwidth, GB/s
  double pcie_gbps = 12.0;       ///< host↔device bandwidth, GB/s
  double host_gflops = 20.0;     ///< threaded-MKL-class host rate (small ops)
  double gemv_gflops = 45.0;     ///< BLAS-2 throughput (Fig. 8 GEMV line)
  double fft_gflops = 135.0;     ///< cuFFT throughput (§8)
  double blas1_gflops = 2.0;     ///< MGS-class BLAS-1 throughput (Fig. 7
                                 ///< shows MGS below HHQR)
  double hhqr_tall_gflops = 9.0;     ///< Fig. 7 HHQR plateau
  double hhqr_wide_gflops = 2.8;     ///< Fig. 9 HHQR plateau (calibrated
                                     ///< so CholQR/HHQR peaks at ~106x)
  double cgs_gflops = 18.0;          ///< Fig. 7 CGS (between HHQR and CholQR)
  double cholqr_small_gflops = 150.0;  ///< Fig. 9 CholQR plateau (ℓ=64 Gram)
  double qp3_blas2_gflops = 28.0;    ///< §9 "around 30 Gflop/s" (< 29 in
                                     ///< Fig. 10 at the paper convention)
  double qp3_tall_gflops = 0.45;     ///< Fig. 7 QP3 on m×64 panels
  double kernel_launch_us = 8.0;     ///< per-kernel latency (sync cost)
};

/// GEMM throughput in Gflop/s for a multiply whose smallest dimension is
/// `inner` and whose largest is `major` (tall-aspect penalty applies when
/// major ≫ 50,000). Interpolates the Fig. 18 calibration table.
double gemm_gflops(const DeviceSpec& spec, index_t inner, index_t major);

/// Modeled seconds for C(m×n) += A(m×k)·B(k×n) on the device.
double gemm_seconds(const DeviceSpec& spec, index_t m, index_t n, index_t k);

/// Modeled seconds for a GEMV against an m×n matrix.
double gemv_seconds(const DeviceSpec& spec, index_t m, index_t n);

/// Modeled seconds for the full-FFT sampling of an m×n matrix (transform
/// of every column at padded length).
double fft_sample_seconds(const DeviceSpec& spec, index_t m, index_t n);

/// Modeled seconds for generating an ℓ×m Gaussian matrix with cuRAND
/// (bandwidth-bound store of ℓ·m doubles plus a small per-element cost).
double prng_seconds(const DeviceSpec& spec, index_t l, index_t m);

/// Modeled seconds for orthogonalizing with a given scheme:
/// `rows`×`cols` with rows ≥ cols for the column variant; pass the
/// short-wide shape directly for the row variant (rows < cols).
double ortho_seconds(const DeviceSpec& spec, ortho::Scheme scheme,
                     index_t rows, index_t cols);

/// Modeled seconds for truncated QP3 on m×n stopping at k columns:
/// BLAS-2 half at the calibrated QP3 rate + BLAS-3 half at GEMM rate +
/// one synchronization per column.
double qp3_seconds(const DeviceSpec& spec, index_t m, index_t n, index_t k);

/// Modeled seconds to move `words` doubles across PCIe.
double transfer_seconds(const DeviceSpec& spec, double words);

/// Modeled seconds for a small host-side op of the given flop count
/// (Cholesky of an ℓ×ℓ Gram matrix, partial-result reduction, ...).
double host_seconds(const DeviceSpec& spec, double flops);

// ---------------------------------------------------------------------
// Whole-algorithm estimates (Figure 10).

/// Phase-by-phase modeled time of the fixed-rank random sampling
/// algorithm on one device (paper Fig. 2): returns total seconds.
struct RandomSamplingEstimate {
  double prng = 0, sampling = 0, gemm_iter = 0, orth_iter = 0, qrcp = 0,
         qr = 0;
  double total() const {
    return prng + sampling + gemm_iter + orth_iter + qrcp + qr;
  }
  /// Useful flops mn(1+2q)·2ℓ + lower-order terms, for Gflop/s plots.
  double useful_flops = 0;
  double gflops() const { return useful_flops / total() * 1e-9; }
};

RandomSamplingEstimate estimate_random_sampling(const DeviceSpec& spec,
                                                index_t m, index_t n,
                                                index_t l, index_t q);

/// Modeled truncated-QP3 estimate for the same problem (Fig. 10's
/// comparison line).
struct Qp3Estimate {
  double seconds = 0;
  double useful_flops = 0;
  double gflops() const { return useful_flops / seconds * 1e-9; }
};

Qp3Estimate estimate_qp3(const DeviceSpec& spec, index_t m, index_t n,
                         index_t k);

/// Largest power-iteration count q' ≤ q_requested whose modeled
/// fixed-rank time fits `budget_seconds` (modeled device seconds).
/// Returns q_requested when even the full plan fits and 0 when nothing
/// does — the serving runtime's graceful-degradation knob: q trades
/// accuracy for time without changing the output shape.
index_t max_power_iters_within(const DeviceSpec& spec, index_t m, index_t n,
                               index_t l, index_t q_requested,
                               double budget_seconds);

// ---------------------------------------------------------------------
// RQRCP engine (sample-update randomized QRCP, see qrcp/rqrcp.hpp).

/// Phase-by-phase modeled time of blocked RQRCP to rank k: one ℓ×m·m×n
/// sketch gemm, then per block a short QRCP on the ℓ-row sketch, a panel
/// QR, a blocked Householder trailing update (GEMM-rate), and the
/// trsm+gemm sample downdate. Mirrors RqrcpStats' phase split so the
/// bench can plot modeled against measured curves.
struct RqrcpEstimate {
  double sketch = 0, panel = 0, update = 0, downdate = 0;
  double total() const { return sketch + panel + update + downdate; }
  double useful_flops = 0;
  double gflops() const { return useful_flops / total() * 1e-9; }
};

RqrcpEstimate estimate_rqrcp(const DeviceSpec& spec, index_t m, index_t n,
                             index_t k, index_t block, index_t oversample);

/// Smallest square size n (scanning n_lo..n_hi by doubling + bisection
/// granularity of the scan) where modeled RQRCP to rank k = k_frac·n
/// beats modeled truncated QP3. Returns 0 when QP3 wins everywhere in
/// the scanned range — the engine-selection hint the bench checks
/// against measured crossovers.
index_t rqrcp_crossover_n(const DeviceSpec& spec, double k_frac,
                          index_t block, index_t oversample,
                          index_t n_lo = 64, index_t n_hi = 16384);

/// Largest count of leading block sweeps whose modeled time (sketch
/// included) fits `budget_seconds`. Returns the full sweep count when
/// everything fits and 0 when not even sketch + one block does — the
/// RQRCP deadline-degradation knob: the sweep is truncated, yielding a
/// lower-rank factorization instead of a miss.
index_t max_rqrcp_blocks_within(const DeviceSpec& spec, index_t m, index_t n,
                                index_t k, index_t block, index_t oversample,
                                double budget_seconds);

}  // namespace randla::model
