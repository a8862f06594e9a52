// randla_loadgen — TCP load generator for the serving front-end.
//
// Drives a running `randla_serve --tcp <port>` (or any net::Server) with
// a deterministic mix of fixed-rank, adaptive, QP3, and RQRCP (fixed-
// rank + fixed-accuracy, protocol v4) requests over real sockets, one
// blocking net::Client per worker thread. Two pacing modes:
//   * closed loop (default): each thread keeps exactly one request in
//     flight — submit, wait, repeat;
//   * open loop (--rate R): requests are launched on a fixed arrival
//     schedule of R jobs/s regardless of completions, which is what
//     actually pushes the server into Busy-shedding territory.
//
// Busy replies are honored the way a well-behaved client should: sleep
// for the server's retry hint, then resend; latency is measured from the
// *first* attempt so shed-and-retry time counts against the server. A
// sample of fixed-rank results is residual-checked against a locally
// regenerated copy of the input (the request carries a generator spec,
// so client and server can materialize the identical matrix).
//
//   randla_loadgen --port P[,P2,...] [--host H] [--jobs N] [--threads T]
//                  [--rate JOBS_PER_S] [--m M] [--n N] [--check-frac F]
//                  [--inline-frac F] [--spread N] [--max-p99-ms X]
//                  [--expect-busy] [--shutdown] [--json PATH]
//                  [--check-stats]
//
// --port accepts a comma-separated endpoint list (e.g. the per-shard
// ports of a cluster, or a router next to a direct shard): worker
// thread t drives endpoint t mod E for the whole run, and the summary
// and JSON report break ok/throughput/Busy-retry counts and latency
// percentiles out per endpoint alongside the whole-run aggregate.
// --check-stats requires a single endpoint (the strict counter
// comparison is per-server).
//   randla_loadgen --chaos SCHEDULE [--seed N] [--jobs N] [--threads T]
//                  [--m M] [--n N] [--check-frac F] [--spread N]
//   randla_loadgen --cluster N [--check-stats] [--replicate-threshold X]
//                  [--hedge] [--drain-mid] [flags as above]
//
// --cluster N hosts a self-contained cluster: N forked shard servers
// behind an in-process cluster::Router, with all load driven through
// the router endpoint. --replicate-threshold / --hedge arm the router's
// availability layer (DESIGN.md §15) and the summary + JSON report then
// carry its cost: hedges fired / won / cancelled / budget-suppressed.
// --drain-mid live-drains the hottest shard at ~40% of the run
// (Router::drain → CacheHandoff → ring re-point) and reports the
// latency p99 of jobs that completed inside the drain window — the
// availability cost of a planned decommission — as its own summary
// line and JSON row. With --check-stats the run ends by scraping the
// router (whose Stats fan-out merges every shard, DESIGN.md §14) *and*
// each shard directly, then cross-checks the merged cluster rows
// against the per-shard sums: every mergeable row (counters, histogram
// buckets) must equal the sum of the direct scrapes, every shard must
// appear with a `shard="i"` label, and `cluster_stale_shards` must be
// 0. Scrape-perturbed series (net_*/server_* frame counters) are
// excluded — the fan-out itself bumps them between the two scrapes.
//
// --chaos ignores --port: it hosts its own loopback scheduler + server
// with a deterministic fault injector (see src/fault) driven by
// SCHEDULE, e.g. "device_fail@0.05,conn_reset@0.02,worker_hang@0.03".
// Clients use the full retry policy (backoff + jitter, Busy hints,
// circuit breaker, idempotent resubmission) and the run reports lost /
// duplicated / retried jobs — the exit code demands 0 lost and 0
// duplicated, residual-verifies a sample of results, and asserts the
// fault_*/watchdog_* metric series are present in a Stats scrape.
//
// At the end of a run the generator scrapes the server's live metrics
// (Stats → StatsReply) and prints them next to its own accounting;
// --check-stats makes the comparison strict (the server's submit/busy/
// complete counters must exactly match what this client observed —
// only meaningful against a dedicated, freshly started server), and
// --json embeds the scraped label-free metrics in the report.
//
// --spread N rotates requests through N distinct matrix seeds: small N
// makes the scheduler's result cache absorb most of the load, large N
// forces real factorizations (use it to provoke Busy shedding).
//
// Exit code is a self-check: nonzero on any failed job, failed residual
// check, missing expected backpressure, or busted p99 bound.
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "cluster/hash_ring.hpp"
#include "cluster/router.hpp"
#include "cluster/stats_merge.hpp"
#include "fault/injector.hpp"
#include "harness.hpp"
#include "obs/recorder.hpp"
#include "util/stats.hpp"

using namespace randla;

namespace {

struct Options {
  std::string host = "127.0.0.1";
  std::vector<int> ports;
  int jobs = 200;
  int threads = 4;
  double rate = 0;        // jobs/s; 0 = closed loop
  index_t m = 192, n = 96;
  double check_frac = 0.15;
  double inline_frac = 0.25;
  double max_p99_ms = 0;  // 0 = no bound
  int spread = 4;         // distinct matrix seeds; higher = fewer cache hits
  /// Server-side batch_max hint: presets client concurrency so the
  /// scheduler's collector can actually fill its batches (threads >=
  /// 2*hint per endpoint), and reports scraped batch occupancy.
  int batch_hint = 0;
  bool expect_busy = false;
  bool send_shutdown = false;
  bool check_stats = false;
  int cluster = 0;  ///< >0: host this many forked shards + a router
  double replicate_threshold = 0;  ///< cluster router hot-key replication
  bool hedge = false;              ///< cluster router latency hedging
  bool drain_mid = false;  ///< cluster: drain the hottest shard mid-run
  std::uint64_t seed = 2026;
  std::string chaos;  ///< fault schedule DSL; non-empty = chaos mode
};

/// Metric names become JSON keys in the report; strip label syntax.
std::string sanitize_key(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name)
    out += (std::isalnum(static_cast<unsigned char>(c)) || c == '_') ? c : '_';
  return out;
}

/// Job-kind axis of the mix. Index == wire runtime::JobKind value, so a
/// request's kind maps straight to its latency bucket and JSON label.
constexpr int kNumKinds = 5;
constexpr const char* kKindNames[kNumKinds] = {
    "fixed_rank", "adaptive", "qrcp", "rqrcp", "rqrcp_adaptive"};

struct JobRecord {
  std::uint8_t kind = 0;  // runtime::JobKind wire value (index into kKindNames)
  int endpoint = 0;       // index into Options::ports
  double latency_ms = 0;
  double end_s = 0;  // completion offset from run start (drain windowing)
  int busy_retries = 0;
  bool ok = false;
  bool checked = false;
  bool check_passed = true;
};

/// "7000,7001,7002" → {7000, 7001, 7002}; empty/garbage entries reject.
std::vector<int> parse_ports(const std::string& list) {
  std::vector<int> ports;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = std::min(list.find(',', pos), list.size());
    const std::string item = list.substr(pos, comma - pos);
    const int port = std::atoi(item.c_str());
    if (port <= 0 || port > 65535) return {};
    ports.push_back(port);
    pos = comma + 1;
  }
  return ports;
}

/// Deterministic request for job index i: the mix rotates through a few
/// generator specs so the server's matrix memo and the scheduler's
/// sketch/result caches both see repeats.
net::JobRequest build_request(const Options& opt, int i) {
  net::JobRequest req;
  req.request_id = static_cast<std::uint64_t>(i) + 1;
  req.matrix.m = opt.m;
  req.matrix.n = opt.n;
  const int slot = i % 10;
  const std::uint64_t mseed =
      opt.seed + static_cast<std::uint64_t>(i % std::max(1, opt.spread));
  if (slot < 6) {
    // Fixed-rank on a numerically rank-8 input: with k = 16 ≥ rank the
    // approximation is near-exact, so the residual check has teeth.
    req.kind = runtime::JobKind::FixedRank;
    req.matrix.generator = "lowrank";
    req.matrix.seed = mseed;
    req.matrix.rank = 8;
    req.k = 16;
    req.p = 8;
    req.q = 1;
    req.tag = "loadgen/fixed";
  } else if (slot < 8) {
    req.kind = runtime::JobKind::Adaptive;
    req.matrix.generator = "gaussian";
    req.matrix.seed = mseed;
    req.epsilon = 0.5;
    req.relative = true;
    req.l_init = 8;
    req.l_inc = 8;
    req.l_max = std::min(opt.m, opt.n) / 2;
    req.tag = "loadgen/adaptive";
  } else if (slot == 8) {
    req.kind = runtime::JobKind::Qrcp;
    req.matrix.generator = "lowrank";
    req.matrix.seed = mseed;
    req.matrix.rank = 8;
    req.k = 16;
    req.block = 16;
    req.tag = "loadgen/qrcp";
  } else if (slot == 9 && i % 20 == 9) {
    // Fixed-accuracy RQRCP on the same numerically rank-8 input: with a
    // tight relative ε the sweep must discover (about) that rank.
    req.kind = runtime::JobKind::RqrcpAdaptive;
    req.matrix.generator = "lowrank";
    req.matrix.seed = mseed;
    req.matrix.rank = 8;
    req.epsilon = 1e-6;
    req.relative = true;
    req.block = 8;
    req.oversample = 8;
    req.max_rank = 32;
    req.want_q = true;
    req.tag = "loadgen/rqrcp_adaptive";
  } else {
    req.kind = runtime::JobKind::Rqrcp;
    req.matrix.generator = "lowrank";
    req.matrix.seed = mseed;
    req.matrix.rank = 8;
    req.k = 16;
    req.block = 8;
    req.oversample = 8;
    req.want_q = true;  // stream Q back so the residual check has teeth
    req.tag = "loadgen/rqrcp";
  }
  return req;
}

/// Every (i % check_period)-th job gets an inline payload instead of a
/// generator spec, exercising the other decode path end to end.
void maybe_inline(net::JobRequest& req, const Options& opt, int i) {
  if (opt.inline_frac <= 0) return;
  const int period = static_cast<int>(std::lround(1.0 / opt.inline_frac));
  if (period <= 0 || i % period != 0) return;
  req.matrix.inline_data = net::materialize(req.matrix);
  req.matrix.source = net::MatrixSource::Inline;
}

// ---------------------------------------------------------------------
// Chaos mode (DESIGN.md §10): loopback scheduler + server under a
// deterministic fault schedule, clients on the full retry policy.

/// Chaos requests are limited to the cached job kinds: idempotent
/// resubmission leans on the scheduler's result caches, which key
/// fixed-rank jobs and (since v4) RQRCP jobs — with adaptive/qp3 in
/// the mix a retried job would recompute, and the duplicate detector
/// below could not tell recomputation from a genuine double execution.
/// Every 5th job is a fixed-rank RQRCP factorization so the new verb
/// rides through the same fault schedule as the sketch path.
net::JobRequest chaos_request(const Options& opt, int i) {
  net::JobRequest req;
  req.request_id = static_cast<std::uint64_t>(i) + 1;
  req.matrix.generator = "lowrank";
  req.matrix.m = opt.m;
  req.matrix.n = opt.n;
  req.matrix.seed =
      opt.seed + static_cast<std::uint64_t>(i % std::max(1, opt.spread));
  req.matrix.rank = 8;
  req.k = 16;
  if (i % 5 == 4) {
    req.kind = runtime::JobKind::Rqrcp;
    req.block = 8;
    req.oversample = 8;
    req.want_q = true;
    req.tag = "chaos/rqrcp/" + std::to_string(i);
  } else {
    req.kind = runtime::JobKind::FixedRank;
    req.p = 8;
    req.q = 1;
    req.tag = "chaos/" + std::to_string(i);
  }
  return req;
}

int run_chaos(const Options& opt) {
  std::string err;
  fault::InjectorPtr injector = fault::make_injector(opt.chaos, opt.seed, &err);
  if (!injector) {
    std::fprintf(stderr, "loadgen: bad chaos schedule '%s': %s\n",
                 opt.chaos.c_str(), err.c_str());
    return 2;
  }

  runtime::SchedulerOptions so;
  so.num_workers = 2;
  so.queue_capacity = 32;
  so.injector = injector;
  so.max_resubmits = 2;
  so.watchdog_multiple = 3.0;  // budget = 3 × 0.25s grace per job
  runtime::Scheduler sched(so);

  net::ServerOptions svo;
  svo.port = 0;  // ephemeral loopback
  svo.injector = injector;
  net::Server server(sched, svo);
  if (!server.start()) return 1;

  std::printf("randla_loadgen: chaos '%s' seed %llu — %d jobs, %d threads, "
              "loopback port %u\n",
              opt.chaos.c_str(), (unsigned long long)opt.seed, opt.jobs,
              opt.threads, unsigned(server.port()));

  const harness::LoadTally t = harness::run_closed_loop(
      {.ports = {server.port()}, .jobs = opt.jobs, .threads = opt.threads,
       .check_frac = opt.check_frac, .seed = opt.seed, .max_attempts = 12,
       .busy_wait_cap_s = 0.5,
       .request = [&](int i) { return chaos_request(opt, i); },
       .who = "loadgen"});
  // The scheduler's own telemetry proves "0 duplicated": a retried
  // submit whose first result was dropped replays from the result cache.
  const int duplicated = harness::count_duplicates(
      harness::trace_rows(sched.telemetry().traces()), "loadgen");

  // Quiesce the injector before the verification scrape: disabled
  // decisions still consume Philox indices, so a replay with the same
  // seed stays aligned, but no fault can eat the scrape itself.
  injector->set_enabled(false);

  std::optional<net::StatsReply> stats;
  std::optional<net::HealthReply> health;
  for (int attempt = 0; attempt < 3 && (!stats || !health); ++attempt) {
    net::Client sc(harness::client_options(server.port(), 5));
    if (!sc.connect()) continue;
    if (!stats) stats = sc.stats();
    if (!health) health = sc.health();
  }

  const auto fs = sched.fault_stats();

  std::printf("\n-- chaos summary ----------------------------------------\n");
  std::printf("jobs:        %d ok, %d lost, %d duplicated (of %d)\n", t.ok,
              t.lost, duplicated, opt.jobs);
  std::printf("retries:     %d jobs retried, %ld busy waits, %ld reconnects\n",
              t.retried, t.busy_retries, t.reconnects);
  std::printf("residual:    %d sampled, %d failed\n", t.checked,
              t.check_failed);
  std::printf("faults:      %llu injected (",
              (unsigned long long)injector->injected_total());
  for (int k = 0; k < fault::kNumFaultKinds; ++k) {
    const auto kind = static_cast<fault::FaultKind>(k);
    if (injector->injected(kind) > 0)
      std::printf("%s=%llu ", fault::fault_kind_name(kind),
                  (unsigned long long)injector->injected(kind));
  }
  std::printf(")\n");
  std::printf("recovery:    %llu requeued, %llu device failures, "
              "%llu watchdog firings, %d/%d devices healthy\n",
              (unsigned long long)fs.jobs_requeued,
              (unsigned long long)fs.device_failures,
              (unsigned long long)fs.watchdog_fired, fs.healthy_workers,
              sched.num_workers());
  if (health) {
    std::printf("health:      serving=%d healthy=%u/%u requeued=%llu "
                "injected=%llu\n",
                int(health->serving), health->healthy_devices,
                health->total_devices,
                (unsigned long long)health->jobs_requeued,
                (unsigned long long)health->faults_injected);
  }

  harness::Gate gate;
  harness::expect_clean(gate, t, duplicated);
  gate.fail_if(!stats, "stats scrape failed after chaos run");
  if (stats) {
    // The fault/watchdog series must exist in the scrape even at value 0
    // (they are registered eagerly); the injected counters must also
    // agree with the injector's own accounting.
    const char* required[] = {"fault_decisions_total",
                              "fault_job_requeued_total",
                              "fault_device_unhealthy", "watchdog_fired_total"};
    for (const char* name : required)
      gate.fail_if(!stats->has(name), "metric series %s missing from scrape",
                   name);
    bool saw_injected_series = false;
    for (const auto& [name, v] : stats->metrics)
      if (name.rfind("fault_injected_total{", 0) == 0) saw_injected_series = true;
    gate.fail_if(!saw_injected_series,
                 "no fault_injected_total{kind=...} series in scrape");
  }
  gate.fail_if(!health, "health probe failed after chaos run");
  gate.fail_if(health && health->healthy_devices < 1,
               "no healthy devices left");

  server.stop();
  return gate.exit_code();
}

// ---------------------------------------------------------------------
// --cluster mode: forked shard servers behind an in-process router, so
// the merged-stats cross-check below has both views of the same truth.

struct ClusterHost {
  std::vector<harness::ChildProc> shards;
  std::unique_ptr<cluster::Router> router;
};

/// Fork the shards (parent is still single-threaded here) and start the
/// router over them.
bool start_cluster(const Options& opt, ClusterHost* host) {
  runtime::SchedulerOptions so;
  so.num_workers = 2;
  so.queue_capacity = 32;
  cluster::RouterOptions ro;
  for (int s = 0; s < opt.cluster; ++s) {
    host->shards.push_back(harness::fork_server([&](const auto& ready) {
      return harness::serve_shard(s, so, {}, ready);
    }));
    if (host->shards.back().pid < 0) return false;
    ro.shards.push_back({"127.0.0.1", host->shards.back().port});
  }
  ro.replicate_threshold = opt.replicate_threshold;
  ro.hedge = opt.hedge;
  host->router = std::make_unique<cluster::Router>(ro);
  return host->router->start();
}

void stop_cluster(ClusterHost& host) {
  if (host.router) host.router->stop();
  harness::stop_and_reap(host.shards);
}

/// The cluster --check-stats contract: the router's merged scrape must
/// agree exactly with the per-shard direct scrapes. `failures` gates the
/// strictest check (total submits == jobs) the same way the
/// single-server path gates it.
bool cluster_cross_check(const Options& opt, const ClusterHost& host,
                         const std::optional<net::StatsReply>& merged,
                         int failures) {
  harness::Gate check;
  check.fail_if(!merged, "cluster merged scrape missing");
  if (!merged) return false;
  check.fail_if(!merged->has("cluster_stale_shards"),
                "merged scrape lacks cluster_stale_shards");
  check.fail_if(merged->value("cluster_stale_shards") != 0,
                "%d stale shard(s) in merged scrape",
                int(merged->value("cluster_stale_shards")));
  // Per-shard direct scrapes: accumulate every mergeable row that the
  // fan-out itself cannot have perturbed (the Stats frames it sends
  // bump the shards' net_*/server_* frame counters between the two
  // scrape instants; everything else is quiescent once the workers
  // joined).
  std::map<std::string, double> sums;
  double submitted = 0;
  int scraped = 0;
  for (std::size_t s = 0; s < host.shards.size(); ++s) {
    const auto st =
        harness::scrape(harness::client_options(host.shards[s].port));
    check.fail_if(!st, "direct scrape of shard %zu failed", s);
    if (!st) continue;
    ++scraped;
    for (const auto& [name, v] : st->metrics) {
      if (!cluster::mergeable_stat(name)) continue;
      if (name.rfind("net_", 0) == 0 || name.rfind("server_", 0) == 0)
        continue;
      sums[name] += v;
    }
    submitted += st->value("server_jobs_submitted");
    // The merged scrape must carry this shard's labeled row, byte-equal
    // in name and value to the direct view.
    const std::string labeled = cluster::with_shard_label(
        "server_jobs_submitted", static_cast<std::uint32_t>(s));
    check.fail_if(
        merged->value(labeled) != st->value("server_jobs_submitted"),
        "merged %s = %.0f, shard says %.0f", labeled.c_str(),
        merged->value(labeled), st->value("server_jobs_submitted"));
  }
  // Every mergeable series must appear in the merged scrape with the
  // per-shard sum. Same-name rows can exist more than once (the router
  // process's own registry rows precede the merge), so accept any exact
  // name whose value matches within float-sum tolerance.
  int rows_checked = 0;
  for (const auto& [name, want] : sums) {
    bool found = false;
    for (const auto& [mname, mv] : merged->metrics)
      if (mname == name &&
          std::abs(mv - want) <= 1e-6 * std::max(1.0, std::abs(want))) {
        found = true;
        break;
      }
    check.fail_if(!found,
                  "merged scrape disagrees with per-shard sum %.10g for %s",
                  want, name.c_str());
    rows_checked += found;
  }
  check.fail_if(failures == 0 && scraped == int(host.shards.size()) &&
                    submitted != double(opt.jobs),
                "shards saw %.0f submits for %d jobs", submitted, opt.jobs);
  const bool ok = check.exit_code() == 0;
  std::printf("cluster:     merged scrape matches %d/%zu summed series "
              "across %d shards%s\n",
              rows_checked, sums.size(), scraped, ok ? "" : "  [FAIL]");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--host")) opt.host = need("--host");
    else if (!std::strcmp(argv[i], "--port")) opt.ports = parse_ports(need("--port"));
    else if (!std::strcmp(argv[i], "--jobs")) opt.jobs = std::atoi(need("--jobs"));
    else if (!std::strcmp(argv[i], "--threads")) opt.threads = std::atoi(need("--threads"));
    else if (!std::strcmp(argv[i], "--rate")) opt.rate = std::atof(need("--rate"));
    else if (!std::strcmp(argv[i], "--m")) opt.m = std::atoi(need("--m"));
    else if (!std::strcmp(argv[i], "--n")) opt.n = std::atoi(need("--n"));
    else if (!std::strcmp(argv[i], "--check-frac")) opt.check_frac = std::atof(need("--check-frac"));
    else if (!std::strcmp(argv[i], "--inline-frac")) opt.inline_frac = std::atof(need("--inline-frac"));
    else if (!std::strcmp(argv[i], "--max-p99-ms")) opt.max_p99_ms = std::atof(need("--max-p99-ms"));
    else if (!std::strcmp(argv[i], "--spread")) opt.spread = std::atoi(need("--spread"));
    else if (!std::strcmp(argv[i], "--batch-hint")) opt.batch_hint = std::atoi(need("--batch-hint"));
    else if (!std::strcmp(argv[i], "--seed")) opt.seed = std::strtoull(need("--seed"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--cluster")) opt.cluster = std::atoi(need("--cluster"));
    else if (!std::strcmp(argv[i], "--replicate-threshold")) opt.replicate_threshold = std::atof(need("--replicate-threshold"));
    else if (!std::strcmp(argv[i], "--hedge")) opt.hedge = true;
    else if (!std::strcmp(argv[i], "--drain-mid")) opt.drain_mid = true;
    else if (!std::strcmp(argv[i], "--chaos")) opt.chaos = need("--chaos");
    else if (!std::strcmp(argv[i], "--json")) json_path = need("--json");
    else if (!std::strcmp(argv[i], "--expect-busy")) opt.expect_busy = true;
    else if (!std::strcmp(argv[i], "--shutdown")) opt.send_shutdown = true;
    else if (!std::strcmp(argv[i], "--check-stats")) opt.check_stats = true;
    else { std::fprintf(stderr, "unknown flag %s\n", argv[i]); return 2; }
  }
  if (!opt.chaos.empty()) return run_chaos(opt);  // hosts its own loopback
  if (opt.drain_mid && opt.cluster < 2) {
    std::fprintf(stderr, "loadgen: --drain-mid needs --cluster >= 2\n");
    return 2;
  }
  if (opt.drain_mid && opt.check_stats) {
    std::fprintf(stderr, "loadgen: --drain-mid retires a shard, which the "
                         "strict per-shard cross-check cannot scrape\n");
    return 2;
  }
  ClusterHost cluster_host;
  if (opt.cluster > 0) {
    if (!opt.ports.empty()) {
      std::fprintf(stderr, "loadgen: --cluster hosts its own endpoints; "
                           "drop --port\n");
      return 2;
    }
    signal(SIGPIPE, SIG_IGN);  // a dying shard must not kill the run
    obs::Recorder::global().set_source("router");
    if (!start_cluster(opt, &cluster_host)) {
      std::fprintf(stderr, "loadgen: failed to start %d-shard cluster\n",
                   opt.cluster);
      stop_cluster(cluster_host);
      return 1;
    }
    opt.ports.push_back(int(cluster_host.router->port()));
    std::printf("randla_loadgen: hosting %d shards behind router :%u\n",
                opt.cluster, unsigned(cluster_host.router->port()));
  }
  if (opt.ports.empty()) {
    std::fprintf(stderr,
                 "usage: randla_loadgen --port P[,P2,...] [flags]\n"
                 "       randla_loadgen --cluster N [--check-stats] [flags]\n"
                 "       randla_loadgen --chaos SCHEDULE [--seed N] [flags]\n");
    return 2;
  }
  const int num_endpoints = static_cast<int>(opt.ports.size());
  if (opt.batch_hint > 0) {
    // Concurrency preset: a collector with batch_max=N only fills its
    // window when ~N jobs are queued per worker, so keep at least two
    // windows of requests in flight per endpoint.
    const int preset = 2 * opt.batch_hint * num_endpoints;
    if (opt.threads < preset) {
      std::printf("batch-hint %d: raising --threads %d -> %d\n",
                  opt.batch_hint, opt.threads, preset);
      opt.threads = preset;
    }
  }
  if (opt.check_stats && num_endpoints > 1) {
    std::fprintf(stderr,
                 "loadgen: --check-stats needs a single endpoint (jobs split "
                 "across %d)\n",
                 num_endpoints);
    return 2;
  }

  std::string endpoints;
  for (int e = 0; e < num_endpoints; ++e)
    endpoints += (e ? "," : "") + std::to_string(opt.ports[size_t(e)]);
  std::printf("randla_loadgen: %d jobs → %s:%s, %d threads, %s\n", opt.jobs,
              opt.host.c_str(), endpoints.c_str(), opt.threads,
              opt.rate > 0 ? "open loop" : "closed loop");

  std::vector<JobRecord> records(static_cast<std::size_t>(opt.jobs));
  std::atomic<int> next_job{0};
  std::atomic<int> done_jobs{0};
  std::atomic<int> transport_failures{0};
  harness::CheckSampler sampler(opt.check_frac);
  const auto t0 = std::chrono::steady_clock::now();

  auto worker = [&](int widx) {
    // Thread → endpoint assignment is static round-robin: every endpoint
    // gets the same thread count when threads % endpoints == 0, and the
    // per-endpoint accounting below stays a clean partition of the run.
    const int endpoint = widx % num_endpoints;
    const int port = opt.ports[size_t(endpoint)];
    net::Client client(harness::client_options(std::uint16_t(port), 30,
                                               opt.host));
    if (!client.connect()) {
      std::fprintf(stderr, "loadgen[%d→:%d]: %s\n", widx, port,
                   client.last_error().c_str());
      transport_failures.fetch_add(1);
      return;
    }
    for (;;) {
      const int i = next_job.fetch_add(1);
      if (i >= opt.jobs) return;
      net::JobRequest req = build_request(opt, i);
      maybe_inline(req, opt, i);
      JobRecord& rec = records[static_cast<std::size_t>(i)];
      rec.endpoint = endpoint;
      rec.kind = static_cast<std::uint8_t>(req.kind);
      if (opt.rate > 0) {
        // Open loop: launch at the scheduled arrival time even if the
        // previous request on this thread just finished late.
        const auto due =
            t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(double(i) / opt.rate));
        std::this_thread::sleep_until(due);
      }
      const auto start = std::chrono::steady_clock::now();
      net::CallResult res;
      for (;;) {
        res = client.call(req);
        if (res.status != net::CallStatus::Busy) break;
        rec.busy_retries += 1;
        const auto nap = std::min<std::uint32_t>(res.busy.retry_after_ms, 200);
        std::this_thread::sleep_for(std::chrono::milliseconds(nap));
      }
      rec.latency_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start)
              .count();
      rec.end_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
      done_jobs.fetch_add(1);
      if (res.status != net::CallStatus::Ok ||
          res.header.status != runtime::JobStatus::Done) {
        std::fprintf(stderr, "loadgen: job %d failed: %s %s %s\n", i,
                     net::call_status_name(res.status),
                     res.detail.c_str(),
                     res.status == net::CallStatus::RemoteError
                         ? res.error.message.c_str()
                         : res.header.error.c_str());
        if (res.status == net::CallStatus::TransportError) {
          // The connection is unusable after a transport error.
          if (!client.connect()) return;
        }
        continue;  // rec.ok stays false
      }
      rec.ok = true;
      if (sampler.next()) {
        rec.checked = true;
        rec.check_passed = harness::verify_result(req, res);
      }
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < opt.threads; ++t) threads.emplace_back(worker, t);

  // --drain-mid: once the caches are warm, live-drain the shard owning
  // the most routing keys and time the window, so the report can price
  // the decommission (DESIGN.md §15).
  struct DrainOutcome {
    bool attempted = false, ok = false;
    std::uint32_t victim = 0;
    double t0_s = 0, t1_s = 0;
    net::DrainSummary sum;
  } drain_out;
  std::thread drainer;
  if (opt.cluster > 1 && opt.drain_mid) {
    drain_out.attempted = true;
    drainer = std::thread([&] {
      harness::await_mid_run(done_jobs, opt.jobs);
      // Victim = the shard owning the most routing keys, from the same
      // deterministic ring the router evaluates.
      cluster::HashRing ring;
      for (int s = 0; s < opt.cluster; ++s)
        ring.add(static_cast<std::uint32_t>(s));
      std::vector<std::uint64_t> keys;
      for (int i = 0; i < opt.jobs; ++i)
        keys.push_back(cluster::routing_key(build_request(opt, i)));
      drain_out.victim = harness::busiest_shard(ring, keys);
      drain_out.t0_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
      drain_out.ok =
          cluster_host.router->drain(drain_out.victim, &drain_out.sum);
      drain_out.t1_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    });
  }
  for (auto& t : threads) t.join();
  if (drainer.joinable()) drainer.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // ------------------------------------------------------------------
  // Aggregate.
  int ok = 0, failed = 0, busy_events = 0, checked = 0, check_failed = 0;
  std::vector<double> lat_all;
  std::vector<double> lat_by_kind[kNumKinds];  // indexed by JobKind value
  struct EndpointAgg {
    int ok = 0, failed = 0, busy_retries = 0;
    std::vector<double> lat;
  };
  std::vector<EndpointAgg> by_endpoint(static_cast<std::size_t>(num_endpoints));
  for (const JobRecord& r : records) {
    busy_events += r.busy_retries;
    EndpointAgg& ep = by_endpoint[static_cast<std::size_t>(r.endpoint)];
    ep.busy_retries += r.busy_retries;
    if (r.ok) {
      ++ok;
      ++ep.ok;
      lat_all.push_back(r.latency_ms);
      ep.lat.push_back(r.latency_ms);
      lat_by_kind[std::min<int>(r.kind, kNumKinds - 1)].push_back(
          r.latency_ms);
    } else {
      ++failed;
      ++ep.failed;
    }
    if (r.checked) {
      ++checked;
      if (!r.check_passed) ++check_failed;
    }
  }
  const double p50 = util::percentile(lat_all, 50);
  const double p90 = util::percentile(lat_all, 90);
  const double p99 = util::percentile(lat_all, 99);
  const double throughput = wall_s > 0 ? double(ok) / wall_s : 0;

  std::printf("\n-- load summary -----------------------------------------\n");
  std::printf("jobs:        %d ok, %d failed (of %d) in %.2fs → %.1f jobs/s\n",
              ok, failed, opt.jobs, wall_s, throughput);
  std::printf("latency ms:  p50 %.1f  p90 %.1f  p99 %.1f\n", p50, p90, p99);
  std::printf("backpressure: %d busy replies honored\n", busy_events);
  std::printf("residual:    %d sampled, %d failed\n", checked, check_failed);

  // Availability-layer accounting (cluster mode): what the router spent
  // on hedges/replication, and what a mid-run drain cost the tail.
  cluster::RouterStats rstats{};
  std::vector<double> drain_lat;
  if (opt.cluster > 0 && cluster_host.router) {
    rstats = cluster_host.router->stats();
    if (opt.hedge || opt.replicate_threshold > 0 || rstats.hedges_fired)
      std::printf("availability: %llu hedges fired (%llu wins, %llu cancels, "
                  "%llu budget-suppressed)\n",
                  (unsigned long long)rstats.hedges_fired,
                  (unsigned long long)rstats.hedge_wins,
                  (unsigned long long)rstats.hedge_cancels,
                  (unsigned long long)rstats.hedge_budget_exhausted);
    if (drain_out.attempted) {
      for (const JobRecord& r : records)
        if (r.ok && r.end_s >= drain_out.t0_s && r.end_s <= drain_out.t1_s)
          drain_lat.push_back(r.latency_ms);
      std::printf("drain:       shard %u %s in %.0fms — %llu entries / %llu "
                  "bytes handed off, window p99 %.1fms over %zu jobs\n",
                  drain_out.victim, drain_out.ok ? "drained" : "FAILED",
                  (drain_out.t1_s - drain_out.t0_s) * 1e3,
                  (unsigned long long)drain_out.sum.entries,
                  (unsigned long long)drain_out.sum.bytes,
                  util::percentile(drain_lat, 99), drain_lat.size());
    }
  }
  if (num_endpoints > 1) {
    // The partition of the whole-run aggregate: each endpoint's ok
    // count, throughput share of the same wall clock, Busy-retry burden,
    // and latency tail.
    for (int e = 0; e < num_endpoints; ++e) {
      const EndpointAgg& ep = by_endpoint[static_cast<std::size_t>(e)];
      std::printf("endpoint :%-5d %4d ok %3d failed  %.1f jobs/s  busy %d  "
                  "p50 %.1fms p99 %.1fms\n",
                  opt.ports[static_cast<std::size_t>(e)], ep.ok, ep.failed,
                  wall_s > 0 ? double(ep.ok) / wall_s : 0, ep.busy_retries,
                  util::percentile(ep.lat, 50), util::percentile(ep.lat, 99));
    }
  }

  // Scrape each endpoint's live metrics over the wire (before any
  // shutdown) and hold them for the report + cross-check below.
  std::vector<std::optional<net::StatsReply>> endpoint_stats(
      static_cast<std::size_t>(num_endpoints));
  for (int e = 0; e < num_endpoints; ++e) {
    const int port = opt.ports[static_cast<std::size_t>(e)];
    std::string err;
    endpoint_stats[static_cast<std::size_t>(e)] = harness::scrape(
        harness::client_options(std::uint16_t(port), 30, opt.host), &err);
    if (!endpoint_stats[static_cast<std::size_t>(e)])
      std::fprintf(stderr, "loadgen: stats scrape of :%d failed: %s\n", port,
                   err.c_str());
  }
  const std::optional<net::StatsReply>& server_stats = endpoint_stats[0];
  for (int e = 0; e < num_endpoints; ++e) {
    const auto& st = endpoint_stats[static_cast<std::size_t>(e)];
    if (!st) continue;
    std::printf("server :%-5d %.0f submitted, %.0f busy, %.0f completed, "
                "%.0f protocol errors, %.0f dropped\n",
                opt.ports[static_cast<std::size_t>(e)],
                st->value("server_jobs_submitted"),
                st->value("server_jobs_busy"),
                st->value("server_jobs_completed"),
                st->value("server_protocol_errors"),
                st->value("server_results_dropped"));
    if (st->has("sched_batches")) {
      const double batches = st->value("sched_batches");
      const double bjobs = st->value("sched_batched_jobs");
      const double bmax = st->value("sched_batch_max");
      std::printf("batching :%-5d batch_max %.0f, %.0f dispatches, %.0f jobs "
                  "coalesced, mean occupancy %.2f\n",
                  opt.ports[static_cast<std::size_t>(e)], bmax, batches, bjobs,
                  batches > 0 ? bjobs / batches : 0.0);
    }
  }

  bench::JsonReport report("serving", argc, argv);
  if (report.enabled()) {
    report.row("summary")
        .set("jobs", double(opt.jobs))
        .set("ok", double(ok))
        .set("failed", double(failed))
        .set("busy_events", double(busy_events))
        .set("checked", double(checked))
        .set("check_failed", double(check_failed))
        .set("wall_s", wall_s)
        .set("throughput_jps", throughput)
        .set("p50_ms", p50)
        .set("p90_ms", p90)
        .set("p99_ms", p99)
        .set("threads", double(opt.threads))
        .set("mode", std::string(opt.rate > 0 ? "open" : "closed"))
        .set("rate_jps", opt.rate);
    {
      // Batch-occupancy aggregate over every scraped endpoint.
      double batches = 0, bjobs = 0, bmax = 0;
      for (const auto& st : endpoint_stats) {
        if (!st) continue;
        batches += st->value("sched_batches");
        bjobs += st->value("sched_batched_jobs");
        bmax = std::max(bmax, st->value("sched_batch_max"));
      }
      report.row("batching")
          .set("batch_max", bmax)
          .set("dispatches", batches)
          .set("batched_jobs", bjobs)
          .set("mean_occupancy", batches > 0 ? bjobs / batches : 0.0)
          .set("batch_hint", double(opt.batch_hint));
    }
    if (opt.cluster > 0) {
      // The availability cost of the run, next to the throughput it
      // bought: hedge traffic and the drain-window latency tail.
      auto& row = report.row("availability");
      row.set("hedges_fired", double(rstats.hedges_fired))
          .set("hedge_wins", double(rstats.hedge_wins))
          .set("hedge_cancels", double(rstats.hedge_cancels))
          .set("hedge_budget_exhausted",
               double(rstats.hedge_budget_exhausted))
          .set("drains_completed", double(rstats.drains_completed))
          .set("handoff_entries", double(rstats.handoff_entries));
      if (drain_out.attempted)
        row.set("drain_ok", double(drain_out.ok))
            .set("drain_victim", double(drain_out.victim))
            .set("drain_wall_ms", (drain_out.t1_s - drain_out.t0_s) * 1e3)
            .set("drain_window_jobs", double(drain_lat.size()))
            .set("drain_window_p99_ms", util::percentile(drain_lat, 99));
    }
    // One row per job kind in the mix, labeled explicitly so report
    // consumers can filter on the "kind" field instead of row names
    // (which previously covered only the original three kinds).
    for (int ki = 0; ki < kNumKinds; ++ki) {
      report.row("by_kind")
          .set("kind", std::string(kKindNames[ki]))
          .set("count", double(lat_by_kind[ki].size()))
          .set("p50_ms", util::percentile(lat_by_kind[ki], 50))
          .set("p90_ms", util::percentile(lat_by_kind[ki], 90))
          .set("p99_ms", util::percentile(lat_by_kind[ki], 99));
    }
    for (int e = 0; e < num_endpoints; ++e) {
      const EndpointAgg& ep = by_endpoint[static_cast<std::size_t>(e)];
      report.row("endpoint")
          .set("port", double(opt.ports[static_cast<std::size_t>(e)]))
          .set("ok", double(ep.ok))
          .set("failed", double(ep.failed))
          .set("busy_retries", double(ep.busy_retries))
          .set("throughput_jps", wall_s > 0 ? double(ep.ok) / wall_s : 0)
          .set("p50_ms", util::percentile(ep.lat, 50))
          .set("p99_ms", util::percentile(ep.lat, 99));
    }
    for (int e = 0; e < num_endpoints; ++e) {
      const auto& st = endpoint_stats[static_cast<std::size_t>(e)];
      if (!st) continue;
      // Embed the scrape (label-free series only: labeled names would
      // collapse to ambiguous keys after sanitizing).
      auto& row = report.row("server_stats");
      row.set("port", double(opt.ports[static_cast<std::size_t>(e)]));
      for (const auto& [name, v] : st->metrics)
        if (name.find('{') == std::string::npos)
          row.set(sanitize_key(name).c_str(), v);
    }
    if (!report.write()) return 1;
  }

  if (opt.send_shutdown) {
    for (int port : opt.ports) {
      net::Client client(
          harness::client_options(std::uint16_t(port), 30, opt.host));
      if (client.connect() && client.send_shutdown())
        std::printf("sent shutdown to :%d\n", port);
    }
  }

  // Self-check exit code (CI smoke contract).
  harness::Gate gate;
  gate.fail_if(failed > 0 || transport_failures.load() > 0,
               "%d jobs failed, %d transport failures", failed,
               transport_failures.load());
  gate.fail_if(check_failed > 0, "%d residual checks failed", check_failed);
  gate.fail_if(opt.expect_busy && busy_events == 0,
               "expected Busy backpressure, saw none");
  gate.fail_if(opt.max_p99_ms > 0 && p99 > opt.max_p99_ms,
               "p99 %.1fms exceeds bound %.1fms", p99, opt.max_p99_ms);
  gate.fail_if(
      drain_out.attempted && (!drain_out.ok || drain_out.sum.entries == 0),
      "mid-run drain %s (%llu entries handed off)",
      drain_out.ok ? "handed off nothing" : "failed",
      (unsigned long long)drain_out.sum.entries);
  if (opt.cluster > 0) {
    // Cluster mode: the strict single-server comparison below does not
    // apply (the router's merged reply has no unlabeled server_* rows);
    // the merged-vs-summed cross-check is the contract instead.
    gate.fail_if(opt.check_stats &&
                     !cluster_cross_check(opt, cluster_host, server_stats,
                                          failed + transport_failures.load()),
                 "merged cluster scrape disagrees with the shards");
    stop_cluster(cluster_host);
  } else if (opt.check_stats) {
    // Against a dedicated server, every counter is accounted for: each
    // Busy reply we honored is one server-side shed, every admitted job
    // came back, and nothing was malformed or dropped.
    gate.fail_if(!server_stats, "--check-stats but stats scrape failed");
    if (server_stats) {
      auto expect = [&](const char* name, double want) {
        const double got = server_stats->value(name);
        gate.fail_if(got != want, "server %s = %.0f, client expects %.0f",
                     name, got, want);
      };
      expect("server_jobs_busy", double(busy_events));
      expect("server_protocol_errors", 0);
      expect("server_results_dropped", 0);
      expect("server_jobs_completed",
             server_stats->value("server_jobs_submitted"));
      if (failed == 0 && transport_failures.load() == 0)
        expect("server_jobs_submitted", double(opt.jobs));
    }
  }
  return gate.exit_code();
}
