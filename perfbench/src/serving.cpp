// serve_cold and cluster_hot: open-loop traffic over loopback TCP into
// in-process servers.
//
//  * serve_cold — one runtime::Scheduler behind one net::Server. Every
//    request misses every cache: unique matrices (half inline f64
//    payloads, half generator specs) and unique sample seeds, mostly
//    FixedRank jobs with a share of RQRCP jobs, at ~512×256.
//  * cluster_hot — a cluster::Router over two shards, each its own
//    Scheduler + Server. Generator-spec requests with Zipf-skewed keys;
//    the key set is larger than one shard's result cache but fits in
//    both, so only consistent-hash affinity keeps the hit rate up.
//
// Requests are due on a seeded schedule at a fixed mean rate and are
// timed from when they were due, so a stalled client charges the wait to
// every request queued behind it. Each client thread owns its
// connections and sends synchronously.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/hash_ring.hpp"
#include "cluster/router.hpp"
#include "common.hpp"
#include "la/parallel.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "runtime/scheduler.hpp"

namespace perfbench {
namespace {

namespace net = randla::net;
namespace runtime = randla::runtime;
namespace cluster = randla::cluster;

/// Value of a numeric member `"key":` in a JobTrace JSON object.
double json_num(const std::string& js, const char* key) {
  const std::string pat = std::string("\"") + key + "\":";
  const auto pos = js.find(pat);
  if (pos == std::string::npos) return 0;
  return std::strtod(js.c_str() + pos + pat.size(), nullptr);
}

/// One shard: a scheduler and the server in front of it.
struct Shard {
  std::unique_ptr<runtime::Scheduler> sched;
  std::unique_ptr<net::Server> server;
  Shard(const runtime::SchedulerOptions& so, const net::ServerOptions& no)
      : sched(std::make_unique<runtime::Scheduler>(so)),
        server(std::make_unique<net::Server>(*sched, no)) {}
  ~Shard() {
    if (server) server->stop();
  }
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;
};

/// What one run of a serving workload needs besides the servers: the
/// request source and the per-request QP3 references.
struct Traffic {
  Traffic() = default;
  Traffic(const Traffic&) = delete;
  Traffic& operator=(const Traffic&) = delete;
  virtual ~Traffic() = default;
  /// Request `idx` of the schedule (idx ≥ 1 is the request id).
  virtual net::JobRequest make(std::uint64_t idx) const = 0;
  /// Target of request idx in the traced run: -1 = the front end,
  /// s ≥ 0 = straight to shard s.
  virtual int target(std::uint64_t) const { return -1; }
  /// QP3 residual of a checked request's input at its rank.
  virtual double reference(std::uint64_t idx) const = 0;
  /// The input matrix of a checked request, for the residual check.
  virtual Matrix<double> input(std::uint64_t idx) const = 0;
  virtual bool checked(std::uint64_t idx) const = 0;
};

struct Outcome {
  bool done = false;
  net::CallStatus status = net::CallStatus::TransportError;
  runtime::JobStatus job = runtime::JobStatus::Pending;
  runtime::JobKind kind = runtime::JobKind::FixedRank;
  int target = -1;
  double due_s = 0, sent_s = 0, end_s = 0;
  std::uint64_t replied_id = 0;
  std::string trace_json;
  std::shared_ptr<net::CallResult> kept;  ///< checked requests only
  bool ok() const {
    return done && status == net::CallStatus::Ok &&
           job == runtime::JobStatus::Done;
  }
};

/// Equal parts of the timed window over which the serving latency
/// percentiles are taken (see analyse()).
constexpr int kLatencyWindows = 10;

struct Plan {
  std::vector<double> due_s;  ///< index idx-1
  int threads = 1;
};

/// Paced arrivals at `rate` per second: gaps of (0.5 + U)/rate with U
/// uniform from the seed, so the mean rate is exact and bursts are bounded.
Plan make_plan(std::uint64_t seed, double rate, double seconds, int threads) {
  Plan plan;
  plan.threads = threads;
  double t = 0;
  for (std::uint64_t i = 0;; ++i) {
    t += (0.5 + unit(seed, 40000000 + i)) / rate;
    if (t >= seconds) break;
    plan.due_s.push_back(t);
  }
  return plan;
}

struct Endpoints {
  std::uint16_t front = 0;             ///< server or router port
  std::vector<std::uint16_t> shards;   ///< direct shard ports
};

/// Drive the plan: thread t sends requests t, t+T, ... each at its due
/// time (window start + due_s) and blocks for the reply.
std::vector<Outcome> drive(const Plan& plan, const Traffic& traffic,
                           const Endpoints& ep, bool traced, double start_s) {
  const std::size_t n = plan.due_s.size();
  std::vector<Outcome> out(n);
  std::vector<std::thread> threads;
  for (int t = 0; t < plan.threads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::unique_ptr<net::Client>> clients(1 + ep.shards.size());
      auto client_for = [&](int target) -> net::Client& {
        auto& c = clients[std::size_t(target + 1)];
        if (!c) {
          net::ClientOptions co;
          co.port = target < 0 ? ep.front : ep.shards[std::size_t(target)];
          co.recv_timeout_s = 30;
          c = std::make_unique<net::Client>(co);
        }
        if (!c->connected()) c->connect();
        return *c;
      };
      client_for(-1);
      for (std::size_t i = std::size_t(t); i < n; i += std::size_t(plan.threads)) {
        const std::uint64_t idx = i + 1;
        const net::JobRequest req = traffic.make(idx);
        Outcome& o = out[i];
        o.kind = req.kind;
        o.target = traced ? traffic.target(idx) : -1;
        net::Client& client = client_for(o.target);
        o.due_s = start_s + plan.due_s[i];
        std::this_thread::sleep_until(at_s(o.due_s));
        o.sent_s = now_s();
        auto res = std::make_shared<net::CallResult>(client.call(req));
        o.end_s = now_s();
        o.done = true;
        o.status = res->status;
        if (res->status == net::CallStatus::Ok) {
          o.job = res->header.status;
          o.replied_id = res->header.request_id;
          if (traced) o.trace_json = std::move(res->header.trace_json);
          if (traffic.checked(idx)) o.kept = std::move(res);
        } else if (res->status == net::CallStatus::TransportError ||
                   res->status == net::CallStatus::ProtocolError) {
          client.close();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  return out;
}

/// ‖A·P − Q·R‖_F of a reply over the QP3 residual of the same (A, k).
double reply_ratio(const net::CallResult& r, ConstMatrixView<double> a,
                   double qp3) {
  const auto& t = r.tensors;
  if (r.header.kind == runtime::JobKind::FixedRank && t.size() == 2)
    return factor_residual(a, r.header.perm, t[0].view(), t[1].view()) / qp3;
  if (r.header.kind == runtime::JobKind::Rqrcp && t.size() == 4) {
    const Matrix<double> rr = join_r(t[1].view(), t[2].view());
    return factor_residual(a, r.header.perm, t[3].view(), rr.view()) / qp3;
  }
  return INFINITY;
}

/// Encoded size of the reply the server streams for a result (header,
/// chunks, end), timed; mirrors the server's framing.
double encode_reply_s(const net::CallResult& r) {
  const double t0 = now_s();
  std::size_t bytes = net::encode_result_header(r.header).size();
  for (std::size_t ti = 0; ti < r.tensors.size(); ++ti) {
    const Matrix<double>& m = r.tensors[ti];
    const std::uint64_t total = std::uint64_t(m.rows()) * std::uint64_t(m.cols());
    for (std::uint64_t off = 0; off < total; off += net::kChunkElems) {
      net::ResultChunk c;
      c.request_id = r.header.request_id;
      c.tensor = std::uint8_t(ti);
      c.offset = off;
      const std::uint64_t len = std::min<std::uint64_t>(net::kChunkElems, total - off);
      c.data.assign(m.data() + off, m.data() + off + len);
      bytes += net::encode_result_chunk(c).size();
    }
  }
  bytes += net::encode_result_end(r.header.request_id).size();
  const double dt = now_s() - t0;
  return bytes > 0 ? dt : INFINITY;
}

/// Median time of decode_submit over the encoded Submit payloads.
double decode_s(const std::vector<net::JobRequest>& reqs) {
  std::vector<double> v;
  for (const auto& req : reqs) {
    const auto frame = net::encode_submit(req);
    const double t0 = now_s();
    const auto back = net::decode_submit(frame.data() + net::kHeaderBytes,
                                         frame.size() - net::kHeaderBytes);
    v.push_back(now_s() - t0);
    if (!back) return INFINITY;
  }
  return median(v);
}

struct ServerCounters {
  std::uint64_t submitted = 0, completed = 0, busy = 0, bytes_in = 0, bytes_out = 0;
  std::uint64_t result_hits = 0, result_misses = 0, sketch_hits = 0,
                sketch_misses = 0;
  double busy_s = 0;
  int workers = 0;
};

ServerCounters counters(const std::vector<std::unique_ptr<Shard>>& shards) {
  ServerCounters c;
  for (const auto& s : shards) {
    const auto st = s->server->stats();
    c.submitted += st.jobs_submitted;
    c.completed += st.jobs_completed;
    c.busy += st.jobs_busy;
    c.bytes_in += st.bytes_in;
    c.bytes_out += st.bytes_out;
    const auto rc = s->sched->result_cache_stats();
    const auto sc = s->sched->sketch_cache_stats();
    c.result_hits += rc.hits;
    c.result_misses += rc.misses;
    c.sketch_hits += sc.hits;
    c.sketch_misses += sc.misses;
    for (const auto& w : s->sched->worker_stats()) c.busy_s += w.busy_s;
    c.workers += s->sched->num_workers();
  }
  return c;
}

double ratio_or_zero(double num, double den) { return den > 0 ? num / den : 0; }

/// Shared analysis of a serving run: accounting, latency, residual
/// checks, per-layer split from the JobTraces, and the report.
struct RunData {
  const Args* args = nullptr;
  const Traffic* traffic = nullptr;
  std::vector<Outcome> out;
  ServerCounters before, after;
  double start_s = 0, end_s = 0;
};

void analyse(RunData& d, Report& rep, SpanLog& spans) {
  const Args& args = *d.args;
  const std::size_t n = d.out.size();
  std::uint64_t ok = 0, busy = 0, answered = 0, results = 0;
  std::vector<double> lat_ms, late_ms;
  std::vector<std::vector<double>> windows(kLatencyWindows);  // by due time
  for (std::size_t i = 0; i < n; ++i) {
    const Outcome& o = d.out[i];
    if (!o.done) continue;
    late_ms.push_back((o.sent_s - o.due_s) * 1e3);
    busy += o.status == net::CallStatus::Busy ? 1 : 0;
    results += o.status == net::CallStatus::Ok ? 1 : 0;
    answered += o.status == net::CallStatus::Ok || o.status == net::CallStatus::Busy ||
                        o.status == net::CallStatus::RemoteError
                    ? 1
                    : 0;
    if (o.ok() && o.replied_id == i + 1) {
      ++ok;
      lat_ms.push_back((o.end_s - o.due_s) * 1e3);
    } else {
      lat_ms.push_back(INFINITY);  // a failure misses every latency limit
      if (o.status == net::CallStatus::Ok && o.replied_id != i + 1)
        rep.fail_check("request " + std::to_string(i + 1) + " answered as " +
                       std::to_string(o.replied_id));
    }
    const double at = (o.due_s - d.start_s) / args.seconds * kLatencyWindows;
    windows[std::size_t(std::clamp(at, 0.0, kLatencyWindows - 1.0))].push_back(lat_ms.back());
  }
  // Request-id accounting: every request reached a server once (admitted
  // or shed), got exactly one terminal reply, and the servers delivered
  // exactly the results the clients received.
  const std::uint64_t completed = d.after.completed - d.before.completed;
  const std::uint64_t admitted = d.after.submitted - d.before.submitted;
  const std::uint64_t shed = d.after.busy - d.before.busy;
  const std::uint64_t lost = n - answered;
  const std::uint64_t dup = completed > results ? completed - results : 0;
  if (lost != 0 || dup != 0 || admitted + shed != n)
    rep.fail_check("accounting: lost " + std::to_string(lost) + ", duplicated " +
                   std::to_string(dup) + ", admitted " + std::to_string(admitted) +
                   " + shed " + std::to_string(shed) + " of " + std::to_string(n));

  // Residual checks on the seeded subset, after the window.
  std::vector<double> ratios;
  bool perturbed = false;
  for (std::size_t i = 0; i < n; ++i) {
    Outcome& o = d.out[i];
    if (!o.kept || !o.ok()) continue;
    if (args.perturb && !perturbed) {
      for (std::size_t t = 0; t < o.kept->header.tensors.size(); ++t)
        if (o.kept->header.tensors[t].name == "q") o.kept->tensors[t](0, 0) += 1.0;
      perturbed = true;
    }
    const Matrix<double> a = d.traffic->input(i + 1);
    const double r = reply_ratio(*o.kept, a.view(), d.traffic->reference(i + 1));
    ratios.push_back(r);
    if (!(r <= kMaxResidualRatio)) {
      --ok;  // a wrong result is a failed request
      rep.fail_check("request " + std::to_string(i + 1) + " residual ratio " +
                     std::to_string(r));
    }
  }
  if (ratios.empty()) rep.fail_check("no result was residual-checked");

  rep.attempted = n;
  rep.failed = n - ok;
  if (!rep.correct && rep.failed == 0) rep.failed = 1;
  const double window = std::max(d.end_s, d.start_s + args.seconds) - d.start_s;
  // The gated percentiles are medians over equal windows of the run (by
  // due time), so a host stall that covers a few seconds of it does not
  // decide them; p99 needs the whole run for its support.
  const Pct p50 = windowed_percentile(windows, 0.50),
            p90 = windowed_percentile(windows, 0.90),
            p99 = percentile(lat_ms, 0.99);
  rep.note_pct("latency_p50_ms", p50);
  rep.note_pct("latency_p90_ms", p90);
  if (p99.beyond >= 10) rep.note_pct("latency_p99_ms", p99);
  rep.note("checked", std::to_string(ratios.size()));
  double ratio_max = 0;
  for (double r : ratios) ratio_max = std::max(ratio_max, r);
  rep.add("throughput_ops_s", double(ok) / window, "1/s");
  rep.add("latency_p50_ms", p50.value, "ms");
  rep.add("latency_p90_ms", p90.value, "ms");
  rep.add("success_ratio", double(ok) / double(n), "ratio");
  rep.add("residual_ratio_max", ratio_max, "ratio");

  const ServerCounters& a = d.after;
  const ServerCounters& b = d.before;
  rep.add("bench.ops", double(n), "count");
  rep.add("bench.late_p90_ms", percentile(late_ms, 0.90).value, "ms");
  rep.add("net.busy_ratio", double(busy) / double(n), "ratio");
  rep.add("net.request_bytes", ratio_or_zero(double(a.bytes_in - b.bytes_in), double(admitted + shed)), "B");
  rep.add("net.reply_bytes", ratio_or_zero(double(a.bytes_out - b.bytes_out), double(completed)), "B");
  rep.add("runtime.worker_busy_ratio", ratio_or_zero(a.busy_s - b.busy_s, window * a.workers), "ratio");
  rep.add("runtime.result_hit_ratio",
          ratio_or_zero(double(a.result_hits - b.result_hits),
                        double(a.result_hits - b.result_hits + a.result_misses - b.result_misses)),
          "ratio");
  rep.add("runtime.sketch_hit_ratio",
          ratio_or_zero(double(a.sketch_hits - b.sketch_hits),
                        double(a.sketch_hits - b.sketch_hits + a.sketch_misses - b.sketch_misses)),
          "ratio");
  if (!args.trace) return;

  // Per-layer split: each client span gets runtime children built from
  // the JobTrace in its ResultHeader; what is left over is net.
  std::vector<double> wait, exec, batch, overhead, rq_exec, unacc;
  std::vector<double> prng, sampling, gemm_iter, orth_iter, qrcp, qr, step1, step23;
  std::vector<double> via_front, direct;
  const double parse0 = now_s();
  for (std::size_t i = 0; i < n; ++i) {
    const Outcome& o = d.out[i];
    if (!o.ok()) continue;
    const std::string& js = o.trace_json;
    const double qw = json_num(js, "queue_wait_s"), ex = json_num(js, "exec_s");
    const double rt = o.end_s - o.sent_s;
    const std::uint64_t call = spans.open();
    const double e0 = o.end_s - ex;
    spans.add(call, i + 1, "runtime.queue_wait", e0 - qw, e0);
    const std::uint64_t xs = spans.add(call, i + 1, "runtime.exec", e0, o.end_s);
    spans.record(call, 0, i + 1, o.target < 0 ? "net::Client::call" : "net::Client::call/direct",
                 o.sent_s, o.end_s);
    wait.push_back(qw * 1e3);
    exec.push_back(ex * 1e3);
    batch.push_back(json_num(js, "batch_size"));
    overhead.push_back((rt - qw - ex) * 1e3);
    (o.target < 0 ? via_front : direct).push_back(rt * 1e3);
    if (o.kind == runtime::JobKind::Rqrcp) rq_exec.push_back(ex * 1e3);
    if (o.kind == runtime::JobKind::FixedRank &&
        js.find("\"cache\":\"miss\"") != std::string::npos) {
      const double ph[6] = {json_num(js, "prng"), json_num(js, "sampling"),
                            json_num(js, "gemm_iter"), json_num(js, "orth_iter"),
                            json_num(js, "qrcp"), json_num(js, "qr")};
      const char* names[6] = {"rsvd.prng", "rsvd.sampling", "rsvd.gemm_iter",
                              "rsvd.orth_iter", "rsvd.qrcp", "rsvd.qr"};
      double at = e0, total = 0;
      for (int p = 0; p < 6; ++p) {
        spans.add(xs, i + 1, names[p], at, at + ph[p]);
        at += ph[p];
        total += ph[p];
      }
      prng.push_back(ph[0] * 1e3);
      sampling.push_back(ph[1] * 1e3);
      gemm_iter.push_back(ph[2] * 1e3);
      orth_iter.push_back(ph[3] * 1e3);
      qrcp.push_back(ph[4] * 1e3);
      qr.push_back(ph[5] * 1e3);
      step1.push_back((ph[0] + ph[1] + ph[2] + ph[3]) * 1e3);
      step23.push_back((ph[4] + ph[5]) * 1e3);
      if (ex > 0) unacc.push_back(1.0 - total / ex);
    }
  }
  const double parse_s = now_s() - parse0;
  rep.add("runtime.queue_wait_p50_ms", percentile(wait, 0.50).value, "ms");
  rep.add("runtime.queue_wait_p90_ms", percentile(wait, 0.90).value, "ms");
  rep.add("runtime.exec_p50_ms", percentile(exec, 0.50).value, "ms");
  rep.add("runtime.batch_size_mean", mean(batch), "count");
  rep.add("net.overhead_p50_ms", percentile(overhead, 0.50).value, "ms");
  rep.add("net.overhead_p90_ms", percentile(overhead, 0.90).value, "ms");
  rep.add("qrcp.rqrcp_exec_ms", median(rq_exec), "ms");
  if (!prng.empty()) {
    // FixedRank jobs as the runtime timed them (Fig. 11 phases from the
    // JobTrace); flops and bytes computed from the request shape.
    const net::JobRequest r = d.traffic->make(1);
    const double m = double(r.matrix.m), nn = double(r.matrix.n),
                 l = double(r.k + r.p), q = double(r.q);
    const double fill = median(prng), gs = median(sampling);
    rep.add("rng.fill_ms", fill, "ms");
    rep.add("rng.variates_per_s", ratio_or_zero(l * m, fill * 1e-3), "1/s");
    rep.add("la.gemm_sample_ms", gs, "ms");
    rep.add("la.gemm_sample_gflops", ratio_or_zero(2 * l * m * nn, gs * 1e-3) * 1e-9, "GFLOP/s");
    rep.add("la.gemm_power_ms", median(gemm_iter), "ms");
    rep.add("la.gemm_flops_per_op", (1 + 2 * q) * 2 * l * m * nn, "flop");
    rep.add("la.gemm_bytes_per_op", (1 + 2 * q) * 8 * (l * m + m * nn + l * nn), "B");
    rep.add("ortho.rows_ms", median(orth_iter), "ms");
    rep.add("ortho.cols_ms", median(qr), "ms");
    rep.add("qrcp.truncated_ms", median(qrcp), "ms");
    rep.add("rsvd.step1_ms", median(step1), "ms");
    rep.add("rsvd.step23_ms", median(step23), "ms");
    rep.add("rsvd.unaccounted_ratio", median(unacc), "ratio");
  }
  if (!direct.empty())
    rep.add("cluster.hop_p50_ms", median(via_front) - median(direct), "ms");
  rep.add("bench.unaccounted_share_p50", median(spans.self_shares("net::Client::call")), "ratio");
  double busy_total = 0;
  for (const Outcome& o : d.out) busy_total += o.end_s - o.sent_s;
  rep.add("bench.trace_overhead_ratio",
          ratio_or_zero(double(spans.size()) * span_cost_s() + parse_s, busy_total),
          "ratio");
  spans.write_json(args.out_dir + "/spans_" + args.workload + ".json");
}

/// Decode/encode timings on a seeded sample of the run's own requests
/// and replies (after the window, so they perturb nothing).
void probe_codec(const RunData& d, Report& rep) {
  std::vector<net::JobRequest> inl, gen;
  for (std::uint64_t idx = 1; idx <= d.out.size() && (inl.size() < 32 || gen.size() < 32);
       idx += 1 + mix(d.args->seed, 60000 + idx) % 5) {
    net::JobRequest r = d.traffic->make(idx);
    auto& bucket = r.matrix.source == net::MatrixSource::Inline ? inl : gen;
    if (bucket.size() < 32) bucket.push_back(std::move(r));
  }
  std::vector<double> enc;
  for (const Outcome& o : d.out)
    if (o.kept && enc.size() < 32) enc.push_back(encode_reply_s(*o.kept));
  rep.add("net.decode_inline_us", inl.empty() ? 0 : decode_s(inl) * 1e6, "us");
  rep.add("net.decode_generator_us", gen.empty() ? 0 : decode_s(gen) * 1e6, "us");
  rep.add("net.encode_result_us", median(enc) * 1e6, "us");
}

// ---------------------------------------------------------------------
// serve_cold

struct ColdTraffic final : Traffic {
  static constexpr int kPool = 16;
  std::uint64_t seed = 1;
  index_t m = 512, n = 256, k = 32, p = 8;
  double rqrcp_share = 0.2, check_share = 1.0 / 12;
  std::vector<Matrix<double>> pool;  ///< power-spectrum inline bases, scaled per request
  std::vector<double> pool_qp3;
  std::vector<double> gen_qp3;       ///< by idx; 0 = generator not checked

  bool is_inline(std::uint64_t idx) const { return idx % 2 == 0; }
  double scale(std::uint64_t idx) const { return 1.0 + double(idx) * 0x1.0p-20; }
  bool checked(std::uint64_t idx) const override {
    return idx <= 2 || unit(seed, 20000000 + idx) < check_share;
  }
  net::MatrixSpec generator_spec(std::uint64_t idx) const {
    net::MatrixSpec s;
    s.source = net::MatrixSource::Generator;
    s.generator = "lowrank";
    s.rank = 2 * k;  // numerically rank 64 ≥ ℓ: the k-residual stays O(‖A‖)
    s.m = m;
    s.n = n;
    s.seed = mix(seed, 30000000 + idx);
    return s;
  }
  net::JobRequest make(std::uint64_t idx) const override {
    net::JobRequest r;
    r.request_id = idx;
    r.kind = unit(seed, 10000000 + idx) < rqrcp_share ? runtime::JobKind::Rqrcp
                                                      : runtime::JobKind::FixedRank;
    r.k = k;
    r.p = p;
    r.q = 1;
    r.power_ortho = 1;  // CholQR2
    r.sample_seed = mix(seed, idx);
    r.block = 16;
    r.oversample = 8;
    r.want_q = true;
    r.tag = "serve_cold";
    if (is_inline(idx)) {
      const Matrix<double>& base = pool[(idx / 2) % kPool];
      r.matrix.source = net::MatrixSource::Inline;
      r.matrix.m = m;
      r.matrix.n = n;
      r.matrix.inline_data = Matrix<double>(m, n);
      const double c = scale(idx);
      const double* src = base.data();
      double* dst = r.matrix.inline_data.data();
      for (std::size_t e = 0, ne = std::size_t(m) * std::size_t(n); e < ne; ++e)
        dst[e] = c * src[e];
    } else {
      r.matrix = generator_spec(idx);
    }
    return r;
  }
  double reference(std::uint64_t idx) const override {
    return is_inline(idx) ? scale(idx) * pool_qp3[(idx / 2) % kPool] : gen_qp3[idx];
  }
  Matrix<double> input(std::uint64_t idx) const override {
    if (!is_inline(idx)) return net::materialize(generator_spec(idx));
    return make(idx).matrix.inline_data;
  }
};

struct ColdEnv {
  ColdTraffic traffic;
  Plan plan;
  std::vector<std::unique_ptr<Shard>> shards;
};

std::unique_ptr<ColdEnv> set_up_cold(const Args& args, double rate, int workers,
                                     int clients) {
  auto env = std::make_unique<ColdEnv>();
  ColdTraffic& tr = env->traffic;
  tr.seed = args.seed;
  if (args.smoke) {
    tr.m = 96;
    tr.n = 48;
    tr.k = 8;
    tr.p = 4;
    tr.check_share = 0.25;
  }
  env->plan = make_plan(args.seed, rate, args.seconds, clients);
  for (int j = 0; j < ColdTraffic::kPool; ++j) {
    const std::uint64_t s = mix(args.seed, 200 + j);
    tr.pool.push_back(power_spectrum_matrix(tr.m, tr.n, s));
    tr.pool_qp3.push_back(qp3_residual(tr.pool.back().view(), tr.k));
  }
  const std::uint64_t n = env->plan.due_s.size();
  tr.gen_qp3.assign(n + 1, 0);
  for (std::uint64_t idx = 1; idx <= n; ++idx)
    if (!tr.is_inline(idx) && tr.checked(idx))
      tr.gen_qp3[idx] = qp3_residual(tr.input(idx).view(), tr.k);

  runtime::SchedulerOptions so;
  so.num_workers = workers;
  so.queue_capacity = 1024;
  so.batch_max = 8;
  net::ServerOptions no;
  no.max_connections = 64;
  env->shards.push_back(std::make_unique<Shard>(so, no));
  if (!env->shards[0]->server->start()) return nullptr;

  // Warm-up on requests outside the schedule (ids past its end): pools,
  // arena and connections, never the caches the schedule will probe.
  net::ClientOptions co;
  co.port = env->shards[0]->server->port();
  net::Client c(co);
  if (!c.connect()) return nullptr;
  for (std::uint64_t w = 0; w < 8; ++w) {
    net::JobRequest r = tr.make(n + 1 + w);
    if (r.matrix.source == net::MatrixSource::Inline)
      r.matrix.inline_data.view()(0, 0) += 1.0;  // not a scaled schedule input
    const auto res = c.call(r);
    if (res.status != net::CallStatus::Ok) return nullptr;
  }
  return env;
}

// ---------------------------------------------------------------------
// cluster_hot

struct HotTraffic final : Traffic {
  std::uint64_t seed = 1;
  index_t m = 256, n = 128, k = 16, p = 8;
  int keys = 64;
  double check_share = 1.0 / 16, direct_share = 0.25;
  std::vector<double> cdf;             ///< Zipf(1) popularity over ranks
  std::vector<std::uint64_t> key_seed;  ///< rank → generator seed
  std::vector<Matrix<double>> key_input;
  std::vector<double> key_qp3;
  std::vector<std::uint32_t> key_owner;
  std::vector<int> order_key;           ///< idx-1 → key (fixed at set-up)

  void build(std::uint64_t s, int nkeys, std::uint64_t requests) {
    seed = s;
    keys = nkeys;
    double z = 0;
    for (int r = 0; r < keys; ++r) cdf.push_back(z += 1.0 / (r + 1));
    for (double& c : cdf) c /= z;
    for (int r = 0; r < keys; ++r) key_seed.push_back(mix(seed, 50000000 + r));
    for (std::uint64_t i = 1; i <= requests; ++i) {
      const double u = unit(seed, 51000000 + i);
      order_key.push_back(int(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin()));
      order_key.back() = std::min(order_key.back(), keys - 1);
    }
  }
  net::JobRequest for_key(int key, std::uint64_t idx) const {
    net::JobRequest r;
    r.request_id = idx;
    r.kind = runtime::JobKind::FixedRank;
    r.matrix.source = net::MatrixSource::Generator;
    r.matrix.generator = "lowrank";
    r.matrix.rank = 2 * k;
    r.matrix.m = m;
    r.matrix.n = n;
    r.matrix.seed = key_seed[std::size_t(key)];
    r.k = k;
    r.p = p;
    r.q = 1;
    r.power_ortho = 1;
    r.sample_seed = key_seed[std::size_t(key)] ^ 0x5eed;
    r.tag = "cluster_hot";
    return r;
  }
  int key_of(std::uint64_t idx) const { return order_key[idx - 1]; }
  net::JobRequest make(std::uint64_t idx) const override {
    return for_key(key_of(idx), idx);
  }
  int target(std::uint64_t idx) const override {
    return unit(seed, 52000000 + idx) < direct_share
               ? int(key_owner[std::size_t(key_of(idx))])
               : -1;
  }
  bool checked(std::uint64_t idx) const override {
    return idx <= 2 || unit(seed, 53000000 + idx) < check_share;
  }
  double reference(std::uint64_t idx) const override {
    return key_qp3[std::size_t(key_of(idx))];
  }
  Matrix<double> input(std::uint64_t idx) const override {
    return Matrix<double>::copy_of(key_input[std::size_t(key_of(idx))].view());
  }
};

struct HotEnv {
  HotTraffic traffic;
  Plan plan;
  std::vector<std::unique_ptr<Shard>> shards;
  std::unique_ptr<cluster::Router> router;
  std::vector<int> keys_per_shard;
  HotEnv() = default;
  HotEnv(const HotEnv&) = delete;
  HotEnv& operator=(const HotEnv&) = delete;
  ~HotEnv() {
    if (router) router->stop();
  }
};

constexpr int kHotShards = 2;
constexpr int kVnodes = 64;

std::unique_ptr<HotEnv> set_up_hot(const Args& args, double rate, int workers,
                                   int clients, std::size_t cache_entries) {
  auto env = std::make_unique<HotEnv>();
  HotTraffic& tr = env->traffic;
  if (args.smoke) {
    tr.m = 64;
    tr.n = 32;
    tr.k = 6;
    tr.p = 4;
  }
  env->plan = make_plan(args.seed, rate, args.seconds, clients);
  // Key set: 4/3 of one shard's result cache, so it needs both.
  const int nkeys = int(cache_entries * 4 / 3);
  tr.build(args.seed, nkeys, env->plan.due_s.size());
  cluster::HashRing ring(cluster::RingOptions{kVnodes});
  for (int s = 0; s < kHotShards; ++s) ring.add(std::uint32_t(s));
  env->keys_per_shard.assign(kHotShards, 0);
  for (int key = 0; key < nkeys; ++key) {
    const net::JobRequest r = tr.for_key(key, 1);
    tr.key_input.push_back(net::materialize(r.matrix));
    tr.key_qp3.push_back(qp3_residual(tr.key_input.back().view(), tr.k));
    tr.key_owner.push_back(ring.owner(cluster::routing_key(r)).value());
    ++env->keys_per_shard[tr.key_owner.back()];
  }

  runtime::SchedulerOptions so;
  so.num_workers = workers;
  so.queue_capacity = 1024;
  so.batch_max = 8;
  so.result_cache_capacity = cache_entries;
  net::ServerOptions no;
  no.max_connections = 64;
  no.matrix_cache_capacity = cache_entries;
  cluster::RouterOptions ro;
  ro.vnodes = kVnodes;
  for (int s = 0; s < kHotShards; ++s) {
    env->shards.push_back(std::make_unique<Shard>(so, no));
    if (!env->shards.back()->server->start()) return nullptr;
    ro.shards.push_back(cluster::ShardEndpoint{"127.0.0.1", env->shards.back()->server->port()});
  }
  env->router = std::make_unique<cluster::Router>(ro);
  if (!env->router->start()) return nullptr;

  // Cache fill through the router: every key once.
  net::ClientOptions co;
  co.port = env->router->port();
  net::Client c(co);
  if (!c.connect()) return nullptr;
  for (int key = 0; key < nkeys; ++key) {
    const auto res = c.call(tr.for_key(key, 1000000000ull + std::uint64_t(key)));
    if (res.status != net::CallStatus::Ok || res.header.status != runtime::JobStatus::Done)
      return nullptr;
  }
  return env;
}

/// Pin the calling thread, and so every thread it starts later, to the
/// last CPU it may run on. Returns that CPU, or -1 if it stays unpinned.
int pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) last = c;
  if (last < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0 ? last : -1;
}

std::string shards_json(const std::vector<int>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) s += (i ? "," : "") + std::to_string(v[i]);
  return s + "]";
}

}  // namespace

void run_serve_cold(const Args& args, Report& rep) {
  const int threads = nproc();
  const int workers = 2;
  const int clients = std::min(4, threads);
  randla::set_blas_num_threads(threads);
  const double rate = args.rate;

  std::unique_ptr<ColdEnv> env;
  for (int r = 0; r < 3; ++r) {
    const double t0 = r == 0 ? 0.0 : now_s();
    env.reset();
    env = set_up_cold(args, rate, workers, clients);
    if (!env) {
      rep.fail_check("serve_cold set-up failed");
      return;
    }
    rep.setup_s.push_back(now_s() - t0);
  }

  SpanLog spans(args.trace);
  RunData d;
  d.args = &args;
  d.traffic = &env->traffic;
  Endpoints ep;
  ep.front = env->shards[0]->server->port();
  d.before = counters(env->shards);
  d.start_s = now_s() + 0.05;
  d.out = drive(env->plan, env->traffic, ep, args.trace, d.start_s);
  d.end_s = now_s();
  d.after = counters(env->shards);

  char meta[256];
  std::snprintf(meta, sizeof meta,
                "{\"m\":%lld,\"n\":%lld,\"k\":%lld,\"p\":%lld,\"q\":1,"
                "\"loop\":\"open\",\"rate_per_s\":%g,\"clients\":%d,"
                "\"scheduler_workers\":%d,\"batch_max\":8,\"rqrcp_share\":%g}",
                (long long)env->traffic.m, (long long)env->traffic.n,
                (long long)env->traffic.k, (long long)env->traffic.p, rate,
                clients, workers, env->traffic.rqrcp_share);
  rep.note("shape", meta);
  analyse(d, rep, spans);
  if (args.trace) probe_codec(d, rep);
}

void run_cluster_hot(const Args& args, Report& rep) {
  const int threads = nproc();
  const int workers = 1;
  const int clients = std::min(4, threads);
  const std::size_t cache_entries = args.smoke ? 12 : 48;
  randla::set_blas_num_threads(1);
  const double rate = args.rate;
  // Router, shards and clients share one CPU: the workload needs a few
  // percent of it, and each hop between threads then wakes no idle vCPU,
  // a wake-up whose delay on a shared host set this workload's p90.
  const int cpu = pin_to_one_cpu();

  std::unique_ptr<HotEnv> env;
  for (int r = 0; r < 3; ++r) {
    const double t0 = r == 0 ? 0.0 : now_s();
    env.reset();
    env = set_up_hot(args, rate, workers, clients, cache_entries);
    if (!env) {
      rep.fail_check("cluster_hot set-up failed");
      return;
    }
    rep.setup_s.push_back(now_s() - t0);
  }

  SpanLog spans(args.trace);
  RunData d;
  d.args = &args;
  d.traffic = &env->traffic;
  Endpoints ep;
  ep.front = env->router->port();
  for (const auto& s : env->shards) ep.shards.push_back(s->server->port());
  const auto rs0 = env->router->stats();
  const auto views0 = env->router->shard_views();
  d.before = counters(env->shards);
  d.start_s = now_s() + 0.05;
  d.out = drive(env->plan, env->traffic, ep, args.trace, d.start_s);
  d.end_s = now_s();
  d.after = counters(env->shards);
  const auto rs1 = env->router->stats();
  const auto views1 = env->router->shard_views();

  char meta[320];
  std::snprintf(meta, sizeof meta,
                "{\"m\":%lld,\"n\":%lld,\"k\":%lld,\"p\":%lld,\"q\":1,"
                "\"loop\":\"open\",\"rate_per_s\":%g,\"clients\":%d,"
                "\"shards\":%d,\"scheduler_workers_per_shard\":%d,"
                "\"result_cache_per_shard\":%zu,\"keys\":%d,\"keys_per_shard\":%s,"
                "\"pinned_cpu\":%d}",
                (long long)env->traffic.m, (long long)env->traffic.n,
                (long long)env->traffic.k, (long long)env->traffic.p, rate,
                clients, kHotShards, workers, cache_entries, env->traffic.keys,
                shards_json(env->keys_per_shard).c_str(), cpu);
  rep.note("shape", meta);

  // Router accounting: every request sent to the router was routed.
  std::uint64_t via_router = 0;
  for (const Outcome& o : d.out) via_router += o.target < 0 ? 1 : 0;
  if (rs1.submits_routed - rs0.submits_routed != via_router)
    rep.fail_check("router routed " + std::to_string(rs1.submits_routed - rs0.submits_routed) +
                   " of " + std::to_string(via_router));
  analyse(d, rep, spans);
  if (!args.trace) return;
  double top = 0, sum = 0;
  for (std::size_t s = 0; s < views1.size() && s < views0.size(); ++s) {
    const double v = double(views1[s].submits - views0[s].submits);
    top = std::max(top, v);
    sum += v;
  }
  rep.add("cluster.shard_skew", ratio_or_zero(top, sum / double(views1.size())), "ratio");
  rep.add("cluster.forward_errors", double(rs1.forward_errors - rs0.forward_errors), "count");
  rep.add("cluster.rerouted", double(rs1.rerouted - rs0.rerouted), "count");
  probe_codec(d, rep);
}

}  // namespace perfbench
