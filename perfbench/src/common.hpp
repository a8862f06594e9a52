// common.hpp — shared pieces of the perfbench program: command line,
// result report, percentiles with tail sample counts, the in-memory span
// recorder, residual checks against QP3, and machine metadata.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "la/matrix.hpp"
#include "la/permutation.hpp"

namespace perfbench {

using randla::ConstMatrixView;
using randla::index_t;
using randla::Matrix;
using randla::Permutation;

/// Command line: --workload W --seed N --seconds S --trace 0|1, plus
/// --smoke (tiny shapes, for the benchmark's own test) and --perturb
/// (corrupt one verified result; the run must then report incorrect).
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  double rate = 0;  ///< offered requests/s of the open-loop workloads
  bool trace = false;
  bool smoke = false;
  bool perturb = false;
  std::string out_dir = ".bench_out";
  std::string revision = "unknown";
};

/// Seconds on the steady clock since process start (static init).
double now_s();
std::chrono::steady_clock::time_point at_s(double s);

/// SplitMix64 finalizer: derives independent 64-bit values from
/// (seed, index) so every input of a run is a function of --seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t i);
/// Uniform double in [0, 1) from mix(seed, i).
double unit(std::uint64_t seed, std::uint64_t i);

/// Nearest-rank percentile of `v` (sorted in place) and the number of
/// samples strictly beyond it, so every quoted tail states its support.
struct Pct {
  double value = 0;
  std::size_t beyond = 0;
  std::size_t samples = 0;
  std::size_t windows = 1;
};
Pct percentile(std::vector<double>& v, double p);
/// Median over equal time windows of each window's nearest-rank
/// percentile. A stall that covers fewer than half of the windows moves
/// it little; a change that slows every window moves it in full.
/// `samples` and `beyond` are the thinnest window's, so the support
/// stated is that of the least supported window percentile.
Pct windowed_percentile(std::vector<std::vector<double>> windows, double p);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// Everything a workload hands back to main().
struct Report {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< "key":value JSON members for the detail line
  std::vector<double> setup_s;     ///< one entry per set-up repetition

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(const std::string& key, const std::string& json_value);
  void note_pct(const std::string& key, const Pct& p);
  /// A correctness failure: recorded, counted and printed to stderr.
  void fail_check(const std::string& why);
};

/// Spans kept in memory and written out when the run ends. A span is
/// (name, start, end, parent, request id); self time is derived from the
/// children recorded under it.
class SpanLog {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t request = 0;
    const char* name = "";
    double start_s = 0;
    double end_s = 0;
  };
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  /// Reserve an id for a span whose children are recorded before it ends.
  std::uint64_t open();
  void record(std::uint64_t id, std::uint64_t parent, std::uint64_t request,
              const char* name, double start_s, double end_s);
  /// record() under a fresh id; returns it.
  std::uint64_t add(std::uint64_t parent, std::uint64_t request,
                    const char* name, double start_s, double end_s);
  std::size_t size() const;
  /// Durations (seconds) of every span with this name.
  std::vector<double> durations(const char* name) const;
  /// Per span with this name: self time / duration.
  std::vector<double> self_shares(const char* name) const;
  bool write_json(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// Measured cost of one SpanLog::add, so the traced run can state its
/// own overhead.
double span_cost_s();

/// Table 1 "power" test matrix A = X·diag(σ)·Yᵀ (m ≥ n), σ_i = (i+1)⁻³,
/// X and Y orthonormalized Gaussians: the spectrum of
/// data::power_matrix, but X comes from a CholQR2 of the tall Gaussian
/// instead of Householder QR, so set-up stays BLAS-3 (0.7 s instead of
/// 2.8 s at 10000×500 on 4 cores).
Matrix<double> power_spectrum_matrix(index_t m, index_t n, std::uint64_t seed);

/// ‖A·P − Q·R‖_F for a rank-k factorization (R is k×n); +inf when the
/// shapes or the permutation are invalid or Q's columns are not
/// orthonormal (max |QᵀQ − I| > 1e-8). The orthonormality test keeps the
/// check sharp on flat spectra, where even Q·R = 0 leaves a residual
/// within a small factor of QP3's.
double factor_residual(ConstMatrixView<double> a, const Permutation& perm,
                       ConstMatrixView<double> q, ConstMatrixView<double> r);
/// The same residual of truncated QP3 at rank k: the reference every
/// checked result is divided by.
double qp3_residual(ConstMatrixView<double> a, index_t k);
/// [r1 r2] assembled into one k×n matrix (RQRCP replies).
Matrix<double> join_r(ConstMatrixView<double> r1, ConstMatrixView<double> r2);

/// Largest residual ratio a result may show before the check fails. The
/// benchmark inputs are well inside it (ratios sit near 1); a wrong
/// factor overshoots it by orders of magnitude.
inline constexpr double kMaxResidualRatio = 10.0;

double peak_rss_mb();
int nproc();
/// {"nproc":..,"kernel_arch":..,"compiler":..,"revision":..,...}
/// members shared by every workload (the caller adds its own).
std::string metadata_json(const Args& args);

/// Workload entry points (one per --workload name).
void run_lowrank_tall(const Args& args, Report& rep);
void run_serve_cold(const Args& args, Report& rep);
void run_cluster_hot(const Args& args, Report& rep);

}  // namespace perfbench
