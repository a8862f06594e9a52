// randla_cluster — multi-process sharded serving: N forked shard
// servers behind a consistent-hash router (DESIGN.md §11).
//
// Two modes:
//
//   * scaling sweep (default): for each S in --scales, fork S shard
//     processes (each a full runtime::Scheduler + net::Server), front
//     them with a cluster::Router, and push --jobs fixed-rank requests
//     through it from --threads closed-loop clients. One JSON report row
//     per scale records throughput and latency percentiles;
//     --min-speedup X demands jobs/s at the largest scale be at least
//     X × the single-shard figure.
//
//     The workload is cache-affinity-bound by construction: --spread
//     distinct matrices rotate round-robin against per-shard result
//     caches of --cache entries. With spread > cache one shard thrashes
//     its LRU (every request recomputes); with spread ≤ S·cache the
//     ring hands each shard a stable slice small enough to stay
//     resident, so added shards convert recomputes into cache hits.
//     That — not core count — is what the sweep measures, which is why
//     it scales even on a single-core host (pin BLAS threads with
//     RANDLA_NUM_THREADS=1 there).
//
//   * --chaos: one run over --shards shards; once ~40% of jobs are
//     done the parent SIGKILLs the shard owning the most routing keys.
//     Clients ride the full retry policy through the router, which
//     detects the death (probe + forward failures → breaker → ring
//     eviction) and re-routes the dead shard's keys to ring neighbors.
//     The run must end with 0 lost jobs and 0 duplicated executions —
//     proven from the surviving shards' own telemetry dumps — and the
//     router's Stats scrape must show the membership change.
//
//   * --chaos --routers N (N ≥ 2): same shards, but fronted by N router
//     processes sharing one deterministic Philox ring (identical shard
//     list + vnodes ⇒ identical placement, no coordination). Clients
//     spread across the routers; at ~40% the parent SIGKILLs router 0
//     and the orphaned clients fail over to a surviving router — the
//     run must still complete 100% of jobs, with re-executions bounded
//     by the failover resubmissions that explain them (a replay racing
//     its still-in-flight first execution re-runs; the client still
//     sees exactly one result). DESIGN.md §15 router redundancy.
//
//   * --drain: planned decommission (DESIGN.md §15). At ~40% of jobs
//     the parent calls Router::drain() on the shard owning the most
//     keys: the shard stops accepting, streams its result/sketch/RQRCP
//     cache entries to its ring successor (CacheHandoff frames),
//     finishes in-flight jobs and exits; the router re-points the
//     keyshare only after the DrainReply. The run must lose 0 jobs,
//     duplicate none, hand off > 0 cache entries, and the successor's
//     post-drain result-cache hit-rate must clear --hit-floor — cache
//     warmth provably survived the decommission.
//
// --replicate-threshold X arms hot-key replicated execution in the
// router (keys above the decayed-rate threshold run on owner AND
// successor, first result wins, loser cancelled); --hedge arms latency
// hedging off the router's per-kind p99 gauges. Replica/hedge legs are
// tagged "/hedge" and excluded from the duplicate detector the same way
// peer fills are — they are intentional duplicates, cancelled or
// discarded before the client ever sees a second result.
//
// Every shard child reports its ephemeral port over a pipe, serves
// until the parent sends a Shutdown frame, then dumps one
// "tag<TAB>status<TAB>cache" line per job trace for the parent's
// duplicate detector. Peer-filled executions are tagged "/peerfill" and
// excluded from that count — they are intentional duplicates.
//
//   randla_cluster [--scales 1,2,4] [--jobs N] [--threads T]
//                  [--workers W] [--queue Q] [--cache C] [--spread K]
//                  [--m M] [--n N] [--check-frac F] [--seed S]
//                  [--min-speedup X] [--peer-fill N] [--tmp DIR]
//                  [--replicate-threshold X] [--hedge] [--json PATH]
//   randla_cluster --chaos [--shards S] [--routers N] [flags as above]
//   randla_cluster --drain [--shards S] [--hit-floor F] [flags as above]
//
// Exit code: nonzero on any lost job, duplicated execution, failed
// residual check, missed speedup bound, missed drain handoff or
// hit-rate floor, or missing router metrics.
#include <pthread.h>
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cluster/hash_ring.hpp"
#include "cluster/router.hpp"
#include "harness.hpp"
#include "obs/recorder.hpp"

using namespace randla;

namespace {

struct Options {
  std::string scales = "1,2,4";
  int shards = 3;  ///< chaos mode shard count
  int jobs = 240;
  int threads = 8;
  int workers = 1;      ///< scheduler workers per shard
  int queue = 8;        ///< scheduler queue capacity per shard
  int cache = 16;       ///< result/sketch/matrix cache entries per shard
  int spread = 48;      ///< distinct matrices rotated through the run
  index_t m = 192, n = 96;
  double check_frac = 0.1;
  double min_speedup = 0;    ///< 0 = record only
  int peer_fill = 0;         ///< router peer_fill_threshold
  double replicate_threshold = 0;  ///< router hot-key replication (0 = off)
  bool hedge = false;              ///< router latency hedging
  int routers = 1;   ///< chaos: router processes over one shared ring
  bool drain = false;      ///< planned-drain mode
  double hit_floor = 0.2;  ///< drain: post-drain successor hit-rate bound
  std::uint64_t seed = 2026;
  bool chaos = false;
  std::string tmp = ".";
  std::string postmortem;  ///< chaos: write the cluster Dump merge here
};

/// The run is fixed-rank only: results are cacheable (idempotent
/// resubmission after a shard death must hit the result cache, and the
/// duplicate detector relies on cache dispositions to tell a replayed
/// result from a re-execution) and residual-checkable.
net::JobRequest build_request(const Options& opt, int i) {
  net::JobRequest req;
  req.request_id = static_cast<std::uint64_t>(i) + 1;
  req.kind = runtime::JobKind::FixedRank;
  req.matrix.generator = "lowrank";
  req.matrix.m = opt.m;
  req.matrix.n = opt.n;
  req.matrix.seed =
      opt.seed + static_cast<std::uint64_t>(i % std::max(1, opt.spread));
  req.matrix.rank = 8;
  req.k = 16;
  req.p = 8;
  req.q = 1;
  // Request the unconditionally stable orthogonalization up front (wire
  // ortho code 2 = HHQR): the rank-deficient input breaks CholQR down,
  // and the scheduler's retry ladder would otherwise cache every
  // escalation level as its own entry — 2-3 slots per matrix, quietly
  // shrinking the effective result-cache capacity the affinity sweep is
  // sized against.
  req.power_ortho = 2;
  // No deadline: degradation would shed power iterations under load,
  // and a degraded q lands under a different cache key — the affinity
  // sweep needs every request for one matrix to be byte-identical.
  req.deadline_s = -1;
  req.tag = "cluster/" + std::to_string(i);
  return req;
}

// ---------------------------------------------------------------------
// Shard and router processes.

std::string telemetry_path(const Options& opt, const std::string& stem,
                           int shard_idx) {
  return opt.tmp + "/" + stem + std::to_string(shard_idx) + ".telemetry";
}

/// Fork `n` shards (the parent is single-threaded here: callers join
/// every thread between runs). Each serves until a remote Shutdown
/// drains it, then dumps one "tag<TAB>status<TAB>cache" line per job
/// trace to its telemetry file for scan_duplicates. Empty on failure,
/// with every shard already started killed and reaped.
std::vector<harness::ChildProc> spawn_shards(const Options& opt, int n,
                                             const std::string& stem) {
  runtime::SchedulerOptions so;
  so.num_workers = opt.workers;
  so.queue_capacity = opt.queue;
  so.result_cache_capacity = static_cast<std::size_t>(opt.cache);
  so.sketch_cache_capacity = static_cast<std::size_t>(opt.cache);
  net::ServerOptions svo;
  svo.matrix_cache_capacity = static_cast<std::size_t>(opt.cache);
  std::vector<harness::ChildProc> shards;
  for (int s = 0; s < n; ++s) {
    const std::string path = telemetry_path(opt, stem, s);
    std::remove(path.c_str());
    shards.push_back(harness::fork_server([&](const auto& ready) {
      // A SIGSEGV/SIGABRT leaves a best-effort flight-recorder ring dump
      // next to the telemetry, attributed to this shard.
      const std::string crash_path =
          opt.tmp + "/cluster_shard_" + std::to_string(s) + "_crash.json";
      obs::Recorder::global().install_crash_handler(crash_path.c_str());
      return harness::serve_shard(
          s, so, svo, ready, [&](runtime::Scheduler& sched) {
            std::FILE* f = std::fopen(path.c_str(), "w");
            if (!f) return;
            for (const auto& r : harness::trace_rows(sched.telemetry().traces()))
              std::fprintf(f, "%s\t%s\t%s\n", r.tag.c_str(), r.status.c_str(),
                           r.cache.c_str());
            std::fclose(f);
          });
    }));
    if (shards.back().pid < 0) {
      std::fprintf(stderr, "cluster: failed to spawn shard %d\n", s);
      harness::stop_and_reap(shards, SIGKILL);
      return {};
    }
  }
  return shards;
}

/// Cluster-wide duplicate detection over the surviving shards' telemetry
/// dumps (the harness rule: Done with cache Miss/None more than once).
int scan_duplicates(const Options& opt, const std::string& stem,
                    const std::vector<harness::ChildProc>& shards) {
  std::vector<harness::TraceRow> rows;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    if (shards[s].killed) continue;
    const std::string path = telemetry_path(opt, stem, int(s));
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (!f) {
      std::fprintf(stderr, "cluster: missing telemetry %s\n", path.c_str());
      continue;
    }
    char tag[256], status[16], cache[16];  // tags carry no whitespace
    while (std::fscanf(f, "%255s %15s %15s", tag, status, cache) == 3)
      rows.push_back({tag, status, cache});
    std::fclose(f);
  }
  return harness::count_duplicates(rows, "cluster");
}

/// One router over `shards`; every router built from the same options
/// computes the same Philox ring, so redundant routers need no
/// coordination.
cluster::RouterOptions router_options(
    const Options& opt, const std::vector<harness::ChildProc>& shards) {
  cluster::RouterOptions ro;
  for (const harness::ChildProc& sp : shards)
    ro.shards.push_back(cluster::ShardEndpoint{"127.0.0.1", sp.port});
  ro.probe_interval_s = 0.1;
  ro.peer_fill_threshold = opt.peer_fill;
  ro.replicate_threshold = opt.replicate_threshold;
  ro.hedge = opt.hedge;
  return ro;
}

/// The clients' load: the fixed-rank stream, `attempts` tries per call.
harness::ClosedLoop closed_loop(const Options& opt,
                                std::vector<std::uint16_t> ports,
                                int attempts) {
  return {.ports = std::move(ports), .jobs = opt.jobs, .threads = opt.threads,
          .check_frac = opt.check_frac, .seed = opt.seed,
          .max_attempts = attempts, .busy_wait_cap_s = 0.25,
          .request = [&opt](int i) { return build_request(opt, i); },
          .who = "cluster"};
}

// ---------------------------------------------------------------------
// One measured run at a given shard count.

enum class RunMode { Sweep, Chaos, Drain };

struct RunResult : harness::LoadTally {
  bool started = false;
  int duplicated = 0;
  cluster::RouterStats router;
  std::vector<std::uint32_t> live_end;  ///< ring membership after the run
  bool stats_scrape_ok = false;
  bool merged_stats_ok = false;   ///< scrape carries cluster_stale_shards +
                                  ///< shard-labeled merged rows
  bool victim_marked_down = false;  ///< chaos: scrape shows shard_up == 0
  std::uint32_t victim = 0;
  std::string postmortem;  ///< cluster-wide Dump merge (router view)
  // Drain mode (DESIGN.md §15):
  bool drain_ok = false;          ///< Router::drain round-trip succeeded
  net::DrainSummary drain_sum;
  std::uint32_t successor = 0;    ///< handoff target of the victim
  double succ_hit_rate = -1;      ///< successor result-cache hit rate over
                                  ///< the post-drain window (-1 = no scrape)
};

RunResult run_scale(const Options& opt, int nshards, RunMode mode) {
  RunResult rr;
  const std::string stem = "cluster_shard_" + std::to_string(nshards) + "_";
  std::vector<harness::ChildProc> shards = spawn_shards(opt, nshards, stem);
  if (shards.empty()) return rr;

  const cluster::RouterOptions ro = router_options(opt, shards);
  cluster::Router router(ro);
  if (!router.start()) {
    std::fprintf(stderr, "cluster: router failed to start\n");
    harness::stop_and_reap(shards, SIGKILL);
    return rr;
  }
  rr.started = true;

  // Chaos/drain victim: the shard owning the most routing keys, computed
  // from the same ring layout the router uses — killing (or draining) it
  // is guaranteed to move live keys. The drain handoff target is the
  // victim's ring successor, the same expression the router evaluates.
  if (mode != RunMode::Sweep && nshards >= 2) {
    cluster::HashRing ring(cluster::RingOptions{ro.vnodes});
    for (int s = 0; s < nshards; ++s)
      ring.add(static_cast<std::uint32_t>(s));
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < std::max(1, opt.spread); ++i)
      keys.push_back(cluster::routing_key(build_request(opt, i)));
    rr.victim = harness::busiest_shard(ring, keys);
    rr.successor = *ring.successor(cluster::ring_point(rr.victim, 0));
  }

  // Successor result-cache scrape for the drain hit-rate window: the
  // per-shard Stats verb, straight to the shard (not through the router).
  auto scrape_successor = [&] {
    return harness::scrape(
        harness::client_options(shards[rr.successor].port, 5));
  };
  std::optional<net::StatsReply> succ0;
  static_cast<harness::LoadTally&>(rr) = harness::run_closed_loop(
      closed_loop(opt, {router.port()}, mode == RunMode::Sweep ? 6 : 12),
      [&](const std::atomic<int>& done) {
        if (mode == RunMode::Sweep) return;
        // Let the victim's caches warm up first.
        harness::await_mid_run(done, opt.jobs);
        if (mode == RunMode::Chaos) {
          harness::ChildProc& v = shards[rr.victim];
          std::printf("cluster: SIGKILL shard %u (pid %d) after %d jobs\n",
                      rr.victim, int(v.pid), done.load());
          kill(v.pid, SIGKILL);
          v.killed = true;
          return;
        }
        // Decommission the victim live. The drain blocks here until the
        // handoff's DrainReply — jobs keep flowing the whole time (the
        // victim sheds new submits with Busy hints, which the clients'
        // retry policy rides out).
        succ0 = scrape_successor();
        std::printf("cluster: draining shard %u → successor %u after %d "
                    "jobs\n",
                    rr.victim, rr.successor, done.load());
        rr.drain_ok = router.drain(rr.victim, &rr.drain_sum);
        std::printf("cluster: drain %s — %llu entries / %llu bytes handed "
                    "off, %llu skipped, %llu in flight at reply\n",
                    rr.drain_ok ? "ok" : "FAILED",
                    (unsigned long long)rr.drain_sum.entries,
                    (unsigned long long)rr.drain_sum.bytes,
                    (unsigned long long)rr.drain_sum.skipped,
                    (unsigned long long)rr.drain_sum.inflight);
      });

  // Post-drain window hit rate on the successor: every request in the
  // victim's former keyshare now lands there, and the handed-off cache
  // entries should serve them without re-execution.
  if (mode == RunMode::Drain && succ0)
    if (const auto succ1 = scrape_successor()) {
      auto delta = [&](const char* name) {
        return succ1->value(name) - succ0->value(name);
      };
      const double dh = delta("result_cache_hits"),
                   dm = delta("result_cache_misses");
      rr.succ_hit_rate = (dh + dm) > 0 ? dh / (dh + dm) : 0.0;
    }

  // Router-side accounting: scrape over the wire (the same Stats verb a
  // monitoring client would use), then the in-process snapshot.
  {
    net::Client sc(harness::client_options(router.port(), 5));
    if (sc.connect()) {
      if (auto stats = sc.stats()) {
        rr.stats_scrape_ok = stats->has("router_submits_routed") &&
                             stats->has("cluster_membership_changes") &&
                             stats->has("cluster_shards_live");
        // The fan-out merge: the degraded-mode counter must always be
        // present, and at least one live shard's labeled rows must have
        // survived the wire cap (the victim may be any shard id, so scan
        // rather than name one).
        bool any_labeled = false;
        for (const auto& [name, v] : stats->metrics)
          if (name.rfind("server_jobs_submitted{shard=", 0) == 0)
            any_labeled = true;
        rr.merged_stats_ok = stats->has("cluster_stale_shards") && any_labeled;
        const std::string up_key =
            "cluster_shard_up{shard=\"" + std::to_string(rr.victim) + "\"}";
        rr.victim_marked_down =
            stats->has(up_key) && stats->value(up_key) == 0.0;
      }
      // Cluster-wide postmortem through the same router the clients
      // used: the router's flight recorder (with the victim's ShardDown
      // event) plus every surviving shard's rings, one JSON document.
      if (auto dump = sc.dump()) rr.postmortem = std::move(*dump);
    }
  }
  rr.router = router.stats();
  rr.live_end = router.live_shards();
  router.stop();

  // Drain the shards (Shutdown → telemetry dump → exit), reap, and
  // count re-executions from their dumps.
  harness::stop_and_reap(shards);
  rr.duplicated = scan_duplicates(opt, stem, shards);
  return rr;
}

void print_run(const char* label, const RunResult& rr) {
  std::printf("%-10s %4d ok %3d lost %3d dup  %7.1f jobs/s  "
              "p50 %6.1fms p99 %7.1fms  busy %4ld reconn %3ld  "
              "routed %llu rerouted %llu fwd_err %llu members %llu\n",
              label, rr.ok, rr.lost, rr.duplicated, rr.throughput, rr.p50_ms,
              rr.p99_ms, rr.busy_retries, rr.reconnects,
              (unsigned long long)rr.router.submits_routed,
              (unsigned long long)rr.router.rerouted,
              (unsigned long long)rr.router.forward_errors,
              (unsigned long long)rr.router.membership_changes);
  if (rr.router.hedges_fired || rr.router.hedge_budget_exhausted)
    std::printf("%-10s hedges %llu (wins %llu cancels %llu "
                "budget-exhausted %llu)\n",
                "", (unsigned long long)rr.router.hedges_fired,
                (unsigned long long)rr.router.hedge_wins,
                (unsigned long long)rr.router.hedge_cancels,
                (unsigned long long)rr.router.hedge_budget_exhausted);
}

int run_chaos(const Options& opt, int argc, char** argv) {
  std::printf("randla_cluster: chaos — %d shards, %d jobs, %d threads, "
              "spread %d\n",
              opt.shards, opt.jobs, opt.threads, opt.spread);
  const RunResult rr = run_scale(opt, opt.shards, RunMode::Chaos);
  if (!rr.started) return 1;
  print_run("chaos", rr);
  std::printf("residual:   %d sampled, %d failed\n", rr.checked,
              rr.check_failed);
  std::printf("membership: victim %u, %zu/%d shards live at end, "
              "%llu membership changes, scrape %s victim-down %s\n",
              rr.victim, rr.live_end.size(), opt.shards,
              (unsigned long long)rr.router.membership_changes,
              rr.stats_scrape_ok ? "ok" : "MISSING",
              rr.victim_marked_down ? "yes" : "NO");

  // Postmortem: the router-view Dump merge must exist and carry the
  // victim's death (the router's own flight recorder logged ShardDown
  // when the breaker evicted it).
  const bool postmortem_has_death =
      rr.postmortem.find("\"kind\":\"shard_down\"") != std::string::npos;
  if (!opt.postmortem.empty()) {
    if (std::FILE* f = std::fopen(opt.postmortem.c_str(), "w")) {
      std::fwrite(rr.postmortem.data(), 1, rr.postmortem.size(), f);
      std::fclose(f);
      std::printf("postmortem: %zu bytes → %s (shard_down %s)\n",
                  rr.postmortem.size(), opt.postmortem.c_str(),
                  postmortem_has_death ? "recorded" : "MISSING");
    } else {
      std::fprintf(stderr, "cluster: cannot write %s\n",
                   opt.postmortem.c_str());
    }
  }

  bench::JsonReport report("cluster", argc, argv);
  if (report.enabled()) {
    report.row("chaos")
        .set("shards", double(opt.shards))
        .set("jobs", double(opt.jobs))
        .set("ok", double(rr.ok))
        .set("lost", double(rr.lost))
        .set("duplicated", double(rr.duplicated))
        .set("busy_retries", double(rr.busy_retries))
        .set("reconnects", double(rr.reconnects))
        .set("rerouted", double(rr.router.rerouted))
        .set("forward_errors", double(rr.router.forward_errors))
        .set("membership_changes", double(rr.router.membership_changes))
        .set("peer_fills", double(rr.router.peer_fills))
        .set("hedges_fired", double(rr.router.hedges_fired))
        .set("hedge_wins", double(rr.router.hedge_wins))
        .set("hedge_cancels", double(rr.router.hedge_cancels))
        .set("hedge_budget_exhausted",
             double(rr.router.hedge_budget_exhausted))
        .set("throughput_jps", rr.throughput)
        .set("p99_ms", rr.p99_ms);
    if (!report.write()) return 1;
  }

  harness::Gate gate;
  harness::expect_clean(gate, rr, rr.duplicated);
  gate.fail_if(rr.router.membership_changes < 1,
               "router never recorded the shard death");
  gate.fail_if(rr.live_end.size() != static_cast<std::size_t>(opt.shards) - 1,
               "expected %d live shards, router sees %zu", opt.shards - 1,
               rr.live_end.size());
  gate.fail_if(!rr.stats_scrape_ok || !rr.victim_marked_down,
               "router Stats scrape missing membership metrics");
  gate.fail_if(!rr.merged_stats_ok,
               "router Stats merge missing cluster_stale_shards or "
               "shard-labeled rows");
  gate.fail_if(rr.postmortem.empty() || !postmortem_has_death,
               "cluster postmortem missing or lacks the victim's shard_down "
               "event");
  if (opt.hedge && opt.replicate_threshold <= 0) {
    // Latency hedges are token-bucket bounded: refill ratio (default
    // 0.05/submit) times routed submits, plus the burst the bucket can
    // hold. Replication legs share the counter, so only check when
    // hedging runs alone.
    const double bound = 0.05 * double(rr.router.submits_routed) + 5.0;
    gate.fail_if(double(rr.router.hedges_fired) > bound,
                 "%llu hedges exceed budget bound %.0f",
                 (unsigned long long)rr.router.hedges_fired, bound);
  }
  return gate.exit_code();
}

// ---------------------------------------------------------------------
// --drain: planned decommission with cache handoff (DESIGN.md §15).

int run_drain(const Options& opt, int argc, char** argv) {
  std::printf("randla_cluster: drain — %d shards, %d jobs, %d threads, "
              "spread %d, cache %d/shard, hit floor %.2f\n",
              opt.shards, opt.jobs, opt.threads, opt.spread, opt.cache,
              opt.hit_floor);
  const RunResult rr = run_scale(opt, opt.shards, RunMode::Drain);
  if (!rr.started) return 1;
  print_run("drain", rr);
  std::printf("residual:   %d sampled, %d failed\n", rr.checked,
              rr.check_failed);
  std::printf("handoff:    shard %u → %u, %llu entries / %llu bytes "
              "(%llu skipped), successor post-drain hit-rate %.2f\n",
              rr.victim, rr.successor,
              (unsigned long long)rr.drain_sum.entries,
              (unsigned long long)rr.drain_sum.bytes,
              (unsigned long long)rr.drain_sum.skipped, rr.succ_hit_rate);

  bench::JsonReport report("cluster", argc, argv);
  if (report.enabled()) {
    report.row("drain")
        .set("shards", double(opt.shards))
        .set("jobs", double(opt.jobs))
        .set("ok", double(rr.ok))
        .set("lost", double(rr.lost))
        .set("duplicated", double(rr.duplicated))
        .set("victim", double(rr.victim))
        .set("successor", double(rr.successor))
        .set("handoff_entries", double(rr.drain_sum.entries))
        .set("handoff_bytes", double(rr.drain_sum.bytes))
        .set("handoff_skipped", double(rr.drain_sum.skipped))
        .set("successor_hit_rate", rr.succ_hit_rate)
        .set("hit_floor", opt.hit_floor)
        .set("busy_retries", double(rr.busy_retries))
        .set("throughput_jps", rr.throughput)
        .set("p99_ms", rr.p99_ms);
    if (!report.write()) return 1;
  }

  harness::Gate gate;
  harness::expect_clean(gate, rr, rr.duplicated);
  gate.fail_if(!rr.drain_ok, "drain round-trip failed");
  gate.fail_if(rr.drain_sum.entries == 0,
               "drain handed off zero cache entries");
  gate.fail_if(rr.router.drains_completed != 1,
               "router recorded %llu completed drains",
               (unsigned long long)rr.router.drains_completed);
  gate.fail_if(std::find(rr.live_end.begin(), rr.live_end.end(), rr.victim) !=
                   rr.live_end.end(),
               "drained shard %u still in the ring", rr.victim);
  gate.fail_if(rr.succ_hit_rate < opt.hit_floor,
               "successor post-drain hit-rate %.2f below floor %.2f — cache "
               "warmth was lost",
               rr.succ_hit_rate, opt.hit_floor);
  return gate.exit_code();
}

// ---------------------------------------------------------------------
// --chaos --routers N: redundant routers over one deterministic ring.

int run_router_chaos(const Options& opt, int argc, char** argv) {
  const int nshards = opt.shards, nrouters = opt.routers;
  std::printf("randla_cluster: router chaos — %d shards behind %d routers, "
              "%d jobs, %d threads\n",
              nshards, nrouters, opt.jobs, opt.threads);

  const std::string stem = "cluster_rchaos_";
  std::vector<harness::ChildProc> shards = spawn_shards(opt, nshards, stem);
  if (shards.empty()) return 1;

  // N router processes over the same shard list. Each serves until
  // SIGTERM, then stops gracefully.
  const cluster::RouterOptions ro = router_options(opt, shards);
  std::vector<harness::ChildProc> routers;
  for (int r = 0; r < nrouters; ++r) {
    routers.push_back(harness::fork_server([&](const auto& ready) {
      obs::Recorder::global().set_source("router-" + std::to_string(r));
      sigset_t term;
      sigemptyset(&term);
      sigaddset(&term, SIGTERM);
      pthread_sigmask(SIG_BLOCK, &term, nullptr);  // before any thread
      cluster::Router router(ro);
      if (!router.start()) return 3;
      ready(router.port());
      int sig = 0;
      sigwait(&term, &sig);
      router.stop();
      return 0;
    }));
    if (routers.back().pid < 0) {
      std::fprintf(stderr, "cluster: router %d failed to start\n", r);
      harness::stop_and_reap(routers, SIGKILL);
      harness::stop_and_reap(shards, SIGKILL);
      return 1;
    }
  }
  std::printf("cluster: routers ready on ports");
  std::vector<std::uint16_t> router_ports;
  for (const harness::ChildProc& rp : routers) {
    std::printf(" :%u", unsigned(rp.port));
    router_ports.push_back(rp.port);
  }
  std::printf("\n");

  // Clients spread across the routers and fail fast (3 attempts); when
  // one router dies mid-call the worker rotates to the next and
  // resubmits the same idempotent request — the shard's result cache
  // turns the replay into a hit, never a second execution. Router 0 is
  // SIGKILLed mid-run: every client parked on it must fail over to a
  // survivor and finish its jobs there.
  const harness::LoadTally t = harness::run_closed_loop(
      closed_loop(opt, router_ports, 3), [&](const std::atomic<int>& done) {
        harness::await_mid_run(done, opt.jobs);
        std::printf("cluster: SIGKILL router 0 (pid %d) after %d jobs\n",
                    int(routers[0].pid), done.load());
        kill(routers[0].pid, SIGKILL);
        routers[0].killed = true;
      });

  // A surviving router must still answer the observability plane.
  bool survivor_scrape_ok = false;
  for (const harness::ChildProc& rp : routers) {
    if (rp.killed) continue;
    net::Client sc(harness::client_options(rp.port, 5));
    if (!sc.connect()) continue;
    if (const auto stats = sc.stats())
      survivor_scrape_ok = stats->has("router_submits_routed") &&
                           stats->has("cluster_shards_live");
    break;
  }

  // Graceful stop for the surviving routers, then drain the shards (all
  // still alive); their telemetry feeds the duplicate detector.
  harness::stop_and_reap(routers, SIGTERM);
  harness::stop_and_reap(shards);
  const int duplicated = scan_duplicates(opt, stem, shards);

  std::printf("router-chaos %4d ok %3d lost %3d dup  %7.1f jobs/s  "
              "p99 %7.1fms  busy %4ld reconn %3ld failovers %d\n",
              t.ok, t.lost, duplicated, t.throughput, t.p99_ms,
              t.busy_retries, t.reconnects, t.failovers);
  std::printf("residual:   %d sampled, %d failed\n", t.checked,
              t.check_failed);

  bench::JsonReport report("cluster", argc, argv);
  if (report.enabled()) {
    report.row("router_chaos")
        .set("shards", double(nshards))
        .set("routers", double(nrouters))
        .set("jobs", double(opt.jobs))
        .set("ok", double(t.ok))
        .set("lost", double(t.lost))
        .set("duplicated", double(duplicated))
        .set("failovers", double(t.failovers))
        .set("busy_retries", double(t.busy_retries))
        .set("reconnects", double(t.reconnects))
        .set("throughput_jps", t.throughput)
        .set("p99_ms", t.p99_ms);
    if (!report.write()) return 1;
  }

  harness::Gate gate;
  gate.fail_if(t.ok != opt.jobs,
               "only %d/%d jobs completed through the surviving router(s)",
               t.ok, opt.jobs);
  // A worker whose router died mid-call resubmits through a survivor; if
  // the first execution was still in flight on the shard, the replay
  // re-executes — at most one orphaned job per failover. The client
  // still sees exactly one result. Anything beyond that bound is a
  // genuine double execution.
  gate.fail_if(duplicated > t.failovers,
               "%d duplicated executions exceed the %d failover "
               "resubmissions that could explain them",
               duplicated, t.failovers);
  gate.fail_if(t.check_failed > 0, "%d residual checks failed",
               t.check_failed);
  gate.fail_if(t.failovers == 0,
               "no client ever failed over — the kill exercised nothing");
  gate.fail_if(!survivor_scrape_ok,
               "surviving router's Stats scrape missing router metrics");
  return gate.exit_code();
}

int run_sweep(const Options& opt, int argc, char** argv) {
  std::vector<int> scales;
  {
    std::string tok;
    for (char c : opt.scales + ",") {
      if (c == ',') {
        if (!tok.empty()) scales.push_back(std::atoi(tok.c_str()));
        tok.clear();
      } else {
        tok += c;
      }
    }
  }
  if (scales.empty()) {
    std::fprintf(stderr, "cluster: empty --scales\n");
    return 2;
  }
  std::printf("randla_cluster: scales");
  for (int s : scales) std::printf(" %d", s);
  std::printf(" — %d jobs, %d threads, spread %d, cache %d/shard\n", opt.jobs,
              opt.threads, opt.spread, opt.cache);

  std::vector<RunResult> results;
  for (int s : scales) {
    RunResult rr = run_scale(opt, s, RunMode::Sweep);
    if (!rr.started) return 1;
    const std::string label = std::to_string(s) + " shard" +
                              (s == 1 ? "" : "s");
    print_run(label.c_str(), rr);
    results.push_back(std::move(rr));
  }

  bench::JsonReport report("cluster", argc, argv);
  if (report.enabled()) {
    for (std::size_t i = 0; i < results.size(); ++i) {
      const RunResult& rr = results[i];
      report.row(("scale_" + std::to_string(scales[i])).c_str())
          .set("shards", double(scales[i]))
          .set("jobs", double(opt.jobs))
          .set("ok", double(rr.ok))
          .set("lost", double(rr.lost))
          .set("duplicated", double(rr.duplicated))
          .set("checked", double(rr.checked))
          .set("check_failed", double(rr.check_failed))
          .set("busy_retries", double(rr.busy_retries))
          .set("wall_s", rr.wall_s)
          .set("throughput_jps", rr.throughput)
          .set("p50_ms", rr.p50_ms)
          .set("p99_ms", rr.p99_ms)
          .set("routed", double(rr.router.submits_routed))
          .set("spread", double(opt.spread))
          .set("cache_per_shard", double(opt.cache));
    }
    if (results.size() >= 2) {
      const double base = results.front().throughput;
      report.row("speedup")
          .set("scale_lo", double(scales.front()))
          .set("scale_hi", double(scales.back()))
          .set("speedup",
               base > 0 ? results.back().throughput / base : 0.0)
          .set("p99_ratio", results.front().p99_ms > 0
                                ? results.back().p99_ms /
                                      results.front().p99_ms
                                : 0.0);
    }
    if (!report.write()) return 1;
  }

  harness::Gate gate;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& rr = results[i];
    gate.fail_if(rr.lost > 0 || rr.duplicated > 0 || rr.check_failed > 0 ||
                     !rr.stats_scrape_ok || !rr.merged_stats_ok,
                 "scale %d: %d lost, %d duplicated, %d residual failures, "
                 "scrape %s, merge %s",
                 scales[i], rr.lost, rr.duplicated, rr.check_failed,
                 rr.stats_scrape_ok ? "ok" : "missing",
                 rr.merged_stats_ok ? "ok" : "missing");
  }
  if (opt.min_speedup > 0 && results.size() >= 2) {
    const double base = results.front().throughput;
    const double speedup =
        base > 0 ? results.back().throughput / base : 0.0;
    std::printf("speedup: %.2fx (%d → %d shards), bound %.2fx\n", speedup,
                scales.front(), scales.back(), opt.min_speedup);
    gate.fail_if(speedup < opt.min_speedup, "speedup %.2fx below bound %.2fx",
                 speedup, opt.min_speedup);
  }
  return gate.exit_code();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--scales")) opt.scales = need("--scales");
    else if (!std::strcmp(argv[i], "--shards")) opt.shards = std::atoi(need("--shards"));
    else if (!std::strcmp(argv[i], "--jobs")) opt.jobs = std::atoi(need("--jobs"));
    else if (!std::strcmp(argv[i], "--threads")) opt.threads = std::atoi(need("--threads"));
    else if (!std::strcmp(argv[i], "--workers")) opt.workers = std::atoi(need("--workers"));
    else if (!std::strcmp(argv[i], "--queue")) opt.queue = std::atoi(need("--queue"));
    else if (!std::strcmp(argv[i], "--cache")) opt.cache = std::atoi(need("--cache"));
    else if (!std::strcmp(argv[i], "--spread")) opt.spread = std::atoi(need("--spread"));
    else if (!std::strcmp(argv[i], "--m")) opt.m = std::atoi(need("--m"));
    else if (!std::strcmp(argv[i], "--n")) opt.n = std::atoi(need("--n"));
    else if (!std::strcmp(argv[i], "--check-frac")) opt.check_frac = std::atof(need("--check-frac"));
    else if (!std::strcmp(argv[i], "--min-speedup")) opt.min_speedup = std::atof(need("--min-speedup"));
    else if (!std::strcmp(argv[i], "--peer-fill")) opt.peer_fill = std::atoi(need("--peer-fill"));
    else if (!std::strcmp(argv[i], "--replicate-threshold")) opt.replicate_threshold = std::atof(need("--replicate-threshold"));
    else if (!std::strcmp(argv[i], "--hedge")) opt.hedge = true;
    else if (!std::strcmp(argv[i], "--routers")) opt.routers = std::atoi(need("--routers"));
    else if (!std::strcmp(argv[i], "--hit-floor")) opt.hit_floor = std::atof(need("--hit-floor"));
    else if (!std::strcmp(argv[i], "--seed")) opt.seed = std::strtoull(need("--seed"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--tmp")) opt.tmp = need("--tmp");
    else if (!std::strcmp(argv[i], "--postmortem")) opt.postmortem = need("--postmortem");
    else if (!std::strcmp(argv[i], "--chaos")) opt.chaos = true;
    else if (!std::strcmp(argv[i], "--drain")) opt.drain = true;
    else if (!std::strcmp(argv[i], "--json")) { need("--json"); }  // JsonReport reads argv
    else { std::fprintf(stderr, "unknown flag %s\n", argv[i]); return 2; }
  }
  if ((opt.chaos || opt.drain) && opt.shards < 2) {
    std::fprintf(stderr, "cluster: --chaos/--drain need at least 2 shards\n");
    return 2;
  }
  if (opt.chaos && opt.drain) {
    std::fprintf(stderr, "cluster: --chaos and --drain are exclusive\n");
    return 2;
  }
  if (opt.routers > 1 && !opt.chaos) {
    std::fprintf(stderr, "cluster: --routers N only applies to --chaos\n");
    return 2;
  }
  signal(SIGPIPE, SIG_IGN);
  obs::Recorder::global().set_source("router");
  if (opt.chaos && opt.routers > 1) return run_router_chaos(opt, argc, argv);
  if (opt.chaos) return run_chaos(opt, argc, argv);
  if (opt.drain) return run_drain(opt, argc, argv);
  return run_sweep(opt, argc, argv);
}
