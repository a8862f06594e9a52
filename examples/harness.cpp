#include "harness.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "la/blas3.hpp"
#include "la/norms.hpp"
#include "la/permutation.hpp"
#include "obs/recorder.hpp"
#include "util/stats.hpp"

namespace randla::harness {

net::ClientOptions client_options(std::uint16_t port, double recv_timeout_s,
                                  const std::string& host) {
  net::ClientOptions copt;
  copt.host = host;
  copt.port = port;
  copt.recv_timeout_s = recv_timeout_s;
  return copt;
}

std::optional<net::StatsReply> scrape(const net::ClientOptions& copt,
                                      std::string* err) {
  net::Client sc(copt);
  std::optional<net::StatsReply> st;
  if (sc.connect()) st = sc.stats();
  if (!st && err) *err = sc.last_error();
  return st;
}

// ---------------------------------------------------------------------
// Server child processes.

ChildProc fork_server(const std::function<int(const PortReady& ready)>& body) {
  int pfd[2];
  if (pipe(pfd) != 0) return {};
  const pid_t pid = fork();
  if (pid < 0) {
    ::close(pfd[0]);
    ::close(pfd[1]);
    return {};
  }
  if (pid == 0) {
    ::close(pfd[0]);
    _exit(body([fd = pfd[1]](std::uint16_t port) {
      if (write(fd, &port, sizeof port) != sizeof port) _exit(3);
      ::close(fd);
    }));
  }
  ::close(pfd[1]);
  ChildProc child;
  const bool got = read(pfd[0], &child.port, sizeof child.port) ==
                   sizeof child.port;
  ::close(pfd[0]);
  if (!got || child.port == 0) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
    return {};
  }
  child.pid = pid;
  return child;
}

int serve_shard(int idx, const runtime::SchedulerOptions& so,
                net::ServerOptions svo, const PortReady& ready,
                const std::function<void(runtime::Scheduler&)>& drained) {
  obs::Recorder::global().set_source("shard-" + std::to_string(idx));
  runtime::Scheduler sched(so);
  svo.port = 0;
  svo.allow_remote_shutdown = true;
  net::Server server(sched, svo);
  if (!server.start()) return 3;
  ready(server.port());
  server.wait();  // until the parent's Shutdown frame drains us
  if (drained) drained(sched);
  return 0;
}

void stop_and_reap(std::vector<ChildProc>& procs, int signo) {
  for (const ChildProc& cp : procs) {
    if (cp.pid <= 0 || cp.killed) continue;
    if (signo != 0) {
      kill(cp.pid, signo);
      continue;
    }
    net::Client c(client_options(cp.port, 5));
    if (!c.connect() || !c.send_shutdown())
      kill(cp.pid, SIGKILL);  // graceful drain failed; reap anyway
  }
  for (const ChildProc& cp : procs)
    if (cp.pid > 0) waitpid(cp.pid, nullptr, 0);
}

// ---------------------------------------------------------------------
// Closed-loop job driver.

CheckSampler::CheckSampler(double frac)
    : period_(frac > 0 ? std::max(1, static_cast<int>(std::lround(1.0 / frac)))
                       : 0) {}

bool CheckSampler::next() {
  return period_ > 0 && counter_.fetch_add(1) % period_ == 0;
}

namespace {

double since_ms(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t)
      .count();
}

}  // namespace

LoadTally run_closed_loop(
    const ClosedLoop& load,
    const std::function<void(const std::atomic<int>& done)>& during) {
  std::atomic<int> next_job{0};
  std::atomic<int> done{0};
  CheckSampler sampler(load.check_frac);
  const int nports = static_cast<int>(load.ports.size());
  LoadTally tally;
  std::vector<double> lat;  // of the ok jobs
  std::mutex mu;            // guards tally and lat

  const auto t0 = std::chrono::steady_clock::now();
  auto worker = [&](int widx) {
    int ep = widx % nports;
    auto fresh = [&] {
      net::ClientOptions copt =
          client_options(load.ports[static_cast<std::size_t>(ep)], 10);
      copt.retry.max_attempts = load.max_attempts;
      copt.retry.max_busy_retries = 1000;
      copt.retry.busy_wait_cap_s = load.busy_wait_cap_s;
      copt.retry.backoff_seed = load.seed * 1000 + std::uint64_t(widx);
      return std::make_unique<net::Client>(copt);
    };
    std::unique_ptr<net::Client> client = fresh();
    for (;;) {
      const int i = next_job.fetch_add(1);
      if (i >= load.jobs) return;
      const net::JobRequest req = load.request(i);
      const auto start = std::chrono::steady_clock::now();
      net::CallResult res;
      net::RetryInfo sum;
      int failovers = 0;
      for (int hop = 0; hop <= 2 * nports; ++hop) {
        net::RetryInfo info;
        res = client->call_with_retry(req, &info);
        sum.attempts += info.attempts;
        sum.busy_retries += info.busy_retries;
        sum.reconnects += info.reconnects;
        if (res.status == net::CallStatus::Ok || nports == 1) break;
        ep = (ep + 1) % nports;
        client = fresh();
        ++failovers;
      }
      const double latency_ms = since_ms(start);
      const bool ok = res.status == net::CallStatus::Ok &&
                      res.header.status == runtime::JobStatus::Done;
      done.fetch_add(1);
      if (!ok)
        std::fprintf(stderr, "%s: job %d lost after %d attempts: %s %s %s\n",
                     load.who, i, sum.attempts,
                     net::call_status_name(res.status), res.detail.c_str(),
                     res.header.error.c_str());
      const bool checked = ok && sampler.next();
      const bool check_failed = checked && !verify_result(req, res);

      std::lock_guard<std::mutex> lk(mu);
      ++(ok ? tally.ok : tally.lost);
      tally.retried += sum.attempts > 1;
      tally.failovers += failovers;
      tally.busy_retries += sum.busy_retries;
      tally.reconnects += sum.reconnects;
      tally.checked += checked;
      tally.check_failed += check_failed;
      if (ok) lat.push_back(latency_ms);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < load.threads; ++t) pool.emplace_back(worker, t);
  if (during) during(done);
  for (auto& t : pool) t.join();

  tally.wall_s = since_ms(t0) / 1e3;
  tally.p50_ms = util::percentile(lat, 50);
  tally.p99_ms = util::percentile(lat, 99);
  tally.throughput = tally.wall_s > 0 ? double(tally.ok) / tally.wall_s : 0;
  return tally;
}

void Gate::fail_if(bool failed, const char* fmt, ...) {
  if (!failed) return;
  failed_ = true;
  std::va_list args;
  va_start(args, fmt);
  std::fputs("FAIL: ", stderr);
  std::vfprintf(stderr, fmt, args);
  std::fputc('\n', stderr);
  va_end(args);
}

void expect_clean(Gate& gate, const LoadTally& t, int duplicated) {
  gate.fail_if(t.lost > 0, "%d jobs lost", t.lost);
  gate.fail_if(duplicated > 0, "%d jobs executed more than once", duplicated);
  gate.fail_if(t.check_failed > 0, "%d residual checks failed",
               t.check_failed);
}

void await_mid_run(const std::atomic<int>& done, int jobs) {
  const int trigger = std::max(1, (jobs * 2) / 5);
  while (done.load() < trigger)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
}

std::uint32_t busiest_shard(const cluster::HashRing& ring,
                            const std::vector<std::uint64_t>& keys) {
  std::map<std::uint32_t, int> owned;
  for (std::uint64_t key : keys) owned[*ring.owner(key)] += 1;
  std::uint32_t victim = ring.members().front();
  int most = 0;
  for (const auto& [s, cnt] : owned)
    if (cnt > most) {
      victim = s;
      most = cnt;
    }
  return victim;
}

// ---------------------------------------------------------------------
// Verification.

namespace {

/// The request's input, regenerated from its generator spec (inline
/// requests carry the same spec, so both paths check alike).
Matrix<double> regenerate(const net::JobRequest& req) {
  net::MatrixSpec spec = req.matrix;
  spec.source = net::MatrixSource::Generator;
  return net::materialize(spec);
}

/// ‖(A·P)₁:c − Q·R‖_F / ‖A‖_F over the c = R.cols() leading permuted
/// columns: all of them for fixed-rank and RQRCP replies, the k exact
/// ones of a truncated-QP3 reply.
double pivoted_residual(const Matrix<double>& a, const Permutation& perm,
                        const Matrix<double>& q, const Matrix<double>& r) {
  if (perm.size() < std::size_t(r.cols()) || q.rows() != a.rows() ||
      q.cols() != r.rows())
    return HUGE_VAL;  // factors that do not even multiply out
  Matrix<double> resid =
      permuted_leading_columns<double>(a.view(), perm, r.cols());
  blas::gemm<double>(Op::NoTrans, Op::NoTrans, -1.0,
                     ConstMatrixView<double>(q.view()),
                     ConstMatrixView<double>(r.view()), 1.0, resid.view());
  return norm_fro<double>(ConstMatrixView<double>(resid.view())) /
         norm_fro<double>(ConstMatrixView<double>(a.view()));
}

/// ‖A·P − Q·[R1 R2]‖_F / ‖A‖_F for an RQRCP reply carrying the explicit
/// Q (want_q). Tensor order on the wire: rdiag, r1, r2, q.
double rqrcp_residual(const net::JobRequest& req, const net::CallResult& res) {
  const Matrix<double> a = regenerate(req);
  const Matrix<double>& r1 = res.tensors[1];
  const Matrix<double>& r2 = res.tensors[2];
  const index_t k = r1.rows();
  Matrix<double> r(k, a.cols());
  for (index_t j = 0; j < r1.cols(); ++j)
    for (index_t i = 0; i < k; ++i) r(i, j) = r1(i, j);
  for (index_t j = 0; j < r2.cols(); ++j)
    for (index_t i = 0; i < k; ++i) r(i, k + j) = r2(i, j);
  return pivoted_residual(a, res.header.perm, res.tensors[3], r);
}

bool within(double err, double tol, const char* what,
            const net::JobRequest& req) {
  if (err <= tol) return true;
  std::fprintf(stderr, "verify: %s residual %.3e > %.1e (req %llu)\n", what,
               err, tol, (unsigned long long)req.request_id);
  return false;
}

/// Shared contract checks for both RQRCP reply shapes, then the full
/// residual (only possible when the request asked for Q).
bool verify_rqrcp(const net::JobRequest& req, const net::CallResult& res,
                  double tol) {
  const std::size_t expect = req.want_q ? 4 : 3;
  if (res.tensors.size() != expect) return false;
  const index_t k = res.header.tensors[0].rows;  // rdiag is k×1
  if (res.header.tensors[1].rows != k || res.header.tensors[1].cols != k ||
      res.header.tensors[2].rows != k ||
      res.header.perm.size() != std::size_t(req.matrix.n))
    return false;
  if (req.kind == runtime::JobKind::Rqrcp && k != req.k) return false;
  if (req.kind == runtime::JobKind::RqrcpAdaptive &&
      (k < 1 || (req.max_rank > 0 && k > req.max_rank)))
    return false;
  if (!req.want_q) return true;
  if (res.header.tensors[3].rows != req.matrix.m ||
      res.header.tensors[3].cols != k)
    return false;
  return within(rqrcp_residual(req, res), tol, "rqrcp", req);
}

}  // namespace

bool verify_result(const net::JobRequest& req, const net::CallResult& res) {
  if (res.header.status != runtime::JobStatus::Done) return false;
  switch (req.kind) {
    case runtime::JobKind::FixedRank:
      return res.tensors.size() == 2 &&
             within(pivoted_residual(regenerate(req), res.header.perm,
                                     res.tensors[0], res.tensors[1]),
                    1e-8, "fixed-rank", req);
    case runtime::JobKind::Adaptive:
      // The basis dims are the contract here; the ε guarantee itself is
      // covered by the adaptive unit tests.
      return res.tensors.size() == 1 &&
             res.header.tensors[0].cols == req.matrix.n &&
             res.header.tensors[0].rows >= 1;
    case runtime::JobKind::Qrcp:
      return res.tensors.size() == 3 &&
             within(pivoted_residual(regenerate(req), res.header.perm,
                                     res.tensors[0], res.tensors[1]),
                    1e-10, "qrcp", req);
    case runtime::JobKind::Rqrcp:
      // k ≥ the input's numerical rank: the randomized pivoting must
      // recover the matrix to roundoff, like the QP3 baseline.
      return verify_rqrcp(req, res, 1e-10);
    case runtime::JobKind::RqrcpAdaptive:
      // The fixed-accuracy contract: residual within the requested ε
      // (relative mode), rank discovered within max_rank.
      return verify_rqrcp(req, res, req.epsilon * 10);
  }
  return false;
}

std::vector<TraceRow> trace_rows(const std::vector<runtime::JobTrace>& traces) {
  std::vector<TraceRow> rows;
  rows.reserve(traces.size());
  for (const auto& tr : traces)
    rows.push_back({tr.tag, runtime::job_status_name(tr.status),
                    runtime::cache_disposition_name(tr.cache)});
  return rows;
}

namespace {

/// True when `tag` carries one of the intentional-duplicate suffixes the
/// router appends to replica legs (peer fills, hedges/replicas).
bool intentional_duplicate(const std::string& tag) {
  for (const char* suf : {"/peerfill", "/hedge"}) {
    const std::size_t n = std::strlen(suf);
    if (tag.size() >= n && tag.compare(tag.size() - n, n, suf) == 0)
      return true;
  }
  return false;
}

}  // namespace

int count_duplicates(const std::vector<TraceRow>& rows, const char* who) {
  std::map<std::string, int> executed;
  for (const TraceRow& r : rows)
    if (r.status == "done" && (r.cache == "miss" || r.cache == "none") &&
        !intentional_duplicate(r.tag))
      ++executed[r.tag];
  int duplicated = 0;
  for (const auto& [tag, n] : executed)
    if (n > 1) {
      std::fprintf(stderr, "%s: tag %s executed %d times\n", who, tag.c_str(),
                   n);
      ++duplicated;
    }
  return duplicated;
}

}  // namespace randla::harness
