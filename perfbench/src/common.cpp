#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>

#include "la/blas3.hpp"
#include "la/norms.hpp"
#include "la/parallel.hpp"
#include "ortho/ortho.hpp"
#include "qrcp/qrcp.hpp"
#include "rng/gaussian.hpp"

namespace perfbench {

namespace {

const auto kProcessStart = std::chrono::steady_clock::now();

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

std::chrono::steady_clock::time_point at_s(double s) {
  return kProcessStart + std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::duration<double>(s));
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + i + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double unit(std::uint64_t seed, std::uint64_t i) {
  return double(mix(seed, i) >> 11) * 0x1.0p-53;
}

Pct percentile(std::vector<double>& v, double p) {
  Pct out;
  out.samples = v.size();
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  const auto n = v.size();
  std::size_t idx = static_cast<std::size_t>(std::ceil(p * double(n)));
  idx = std::clamp<std::size_t>(idx, 1, n) - 1;
  out.value = v[idx];
  out.beyond = n - idx - 1;
  return out;
}

Pct windowed_percentile(std::vector<std::vector<double>> windows, double p) {
  Pct out;
  out.windows = windows.size();
  out.samples = out.beyond = windows.empty() ? 0 : SIZE_MAX;
  std::vector<double> values;
  for (auto& w : windows) {
    const Pct q = percentile(w, p);
    out.samples = std::min(out.samples, q.samples);
    out.beyond = std::min(out.beyond, q.beyond);
    if (!w.empty()) values.push_back(q.value);
  }
  out.value = median(values);
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / double(v.size());
}

void Report::note(const std::string& key, const std::string& json_value) {
  notes.push_back("\"" + key + "\":" + json_value);
}

void Report::note_pct(const std::string& key, const Pct& p) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"value\":%.6g,\"windows\":%zu,\"samples\":%zu,\"beyond\":%zu}",
                p.value, p.windows, p.samples, p.beyond);
  note(key, buf);
}

void Report::fail_check(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

std::uint64_t SpanLog::open() {
  std::lock_guard<std::mutex> lk(mu_);
  return next_id_++;
}

void SpanLog::record(std::uint64_t id, std::uint64_t parent,
                     std::uint64_t request, const char* name, double start_s,
                     double end_s) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(Span{id, parent, request, name, start_s, end_s});
}

std::uint64_t SpanLog::add(std::uint64_t parent, std::uint64_t request,
                           const char* name, double start_s, double end_s) {
  const std::uint64_t id = open();
  record(id, parent, request, name, start_s, end_s);
  return id;
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

std::vector<double> SpanLog::durations(const char* name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lk(mu_);
  for (const Span& s : spans_)
    if (std::string_view(s.name) == name) out.push_back(s.end_s - s.start_s);
  return out;
}

std::vector<double> SpanLog::self_shares(const char* name) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::map<std::uint64_t, double> child_time;
  for (const Span& s : spans_)
    if (s.parent != 0) child_time[s.parent] += s.end_s - s.start_s;
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::string_view(s.name) != name) continue;
    const double dur = s.end_s - s.start_s;
    if (dur <= 0) continue;
    const auto it = child_time.find(s.id);
    const double covered = it == child_time.end() ? 0 : it->second;
    out.push_back(std::max(0.0, dur - covered) / dur);
  }
  return out;
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "[";
  std::lock_guard<std::mutex> lk(mu_);
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                  "\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f}",
                  i ? "," : "", (unsigned long long)s.id,
                  (unsigned long long)s.parent, (unsigned long long)s.request,
                  s.name, s.start_s, s.end_s);
    f << buf;
  }
  f << "\n]\n";
  return bool(f);
}

double span_cost_s() {
  SpanLog probe(true);
  constexpr int kSpans = 20000;
  const double t0 = now_s();
  for (int i = 0; i < kSpans; ++i) probe.add(0, i, "probe", now_s(), now_s());
  return (now_s() - t0) / kSpans;
}

Matrix<double> power_spectrum_matrix(index_t m, index_t n, std::uint64_t seed) {
  using namespace randla;
  Matrix<double> x = rng::gaussian_matrix<double>(m, n, seed);
  Matrix<double> y = rng::gaussian_matrix<double>(n, n, seed ^ 0x9e37u);
  ortho::orthonormalize_columns(ortho::Scheme::CholQR2, x.view());
  ortho::orthonormalize_columns(ortho::Scheme::HHQR, y.view());
  for (index_t j = 0; j < n; ++j) {
    const double sigma = std::pow(double(j + 1), -3.0);
    double* col = x.view().col_ptr(j);
    for (index_t i = 0; i < m; ++i) col[i] *= sigma;
  }
  Matrix<double> a(m, n);
  blas::gemm<double>(Op::NoTrans, Op::Trans, 1.0, x.view(), y.view(), 0.0,
                     a.view());
  return a;
}

double factor_residual(ConstMatrixView<double> a, const Permutation& perm,
                       ConstMatrixView<double> q, ConstMatrixView<double> r) {
  using namespace randla;
  if (perm.size() != std::size_t(a.cols()) || !is_valid_permutation(perm) ||
      q.rows() != a.rows() || q.cols() != r.rows() || r.cols() != a.cols())
    return INFINITY;
  const index_t k = q.cols();
  Matrix<double> qtq(k, k);
  blas::gemm<double>(Op::Trans, Op::NoTrans, 1.0, q, q, 0.0, qtq.view());
  for (index_t j = 0; j < k; ++j)
    for (index_t i = 0; i < k; ++i)
      if (!(std::abs(qtq(i, j) - (i == j ? 1.0 : 0.0)) <= 1e-8)) return INFINITY;
  Matrix<double> resid(a.rows(), a.cols());
  apply_column_permutation<double>(a, perm, resid.view());
  blas::gemm<double>(Op::NoTrans, Op::NoTrans, -1.0, q, r, 1.0, resid.view());
  return norm_fro<double>(ConstMatrixView<double>(resid.view()));
}

double qp3_residual(ConstMatrixView<double> a, index_t k) {
  const auto f = randla::qrcp::qrcp_truncated<double>(a, k);
  // QP3 of the full matrix: Q is m×k, [R1 R2] is k×n.
  const Matrix<double> r = join_r(f.r1.view(), f.r2.view());
  return factor_residual(a, f.perm, f.q.view(), r.view());
}

Matrix<double> join_r(ConstMatrixView<double> r1, ConstMatrixView<double> r2) {
  const index_t k = r1.rows();
  Matrix<double> r(k, r1.cols() + r2.cols());
  r.view().block(0, 0, k, r1.cols()).copy_from(r1);
  if (r2.cols() > 0) r.view().block(0, r1.cols(), k, r2.cols()).copy_from(r2);
  return r;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

int nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? int(n) : 1;
}

std::string metadata_json(const Args& args) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
                "\"trace\":%d,\"smoke\":%d,\"nproc\":%d,\"kernel_arch\":\"%s\","
                "\"compiler\":\"%s\",\"revision\":\"%s\","
                "\"blas_num_threads\":%lld",
                json_escape(args.workload).c_str(),
                (unsigned long long)args.seed, args.seconds, int(args.trace),
                int(args.smoke), nproc(),
                json_escape(randla::blas::kernel_arch()).c_str(),
                json_escape(__VERSION__).c_str(),
                json_escape(args.revision).c_str(),
                (long long)randla::blas_num_threads());
  return buf;
}

}  // namespace perfbench
