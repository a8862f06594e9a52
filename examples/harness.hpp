// harness.hpp — the test-driver plumbing shared by randla_loadgen and
// randla_cluster (DESIGN.md §8, §11).
//
// Both drivers fork server processes and learn their ports over a pipe,
// drive jobs through the client retry policy, residual-check a sample of
// the replies against locally regenerated inputs, and prove "0 lost, 0
// duplicated" from the servers' own job traces. Each of those is written
// once here. What differs per driver stays in the driver: its request
// builders, CLI, mode logic and JSON report rows.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cluster/hash_ring.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "runtime/telemetry.hpp"

namespace randla::harness {

/// Client options for one endpoint (recv timeout defaults to
/// net::ClientOptions').
net::ClientOptions client_options(std::uint16_t port,
                                  double recv_timeout_s = 30,
                                  const std::string& host = "127.0.0.1");

/// Stats scrape over a fresh connection; nullopt (with the client's
/// last error in `err`, when non-null) if connect or scrape failed.
std::optional<net::StatsReply> scrape(const net::ClientOptions& copt,
                                      std::string* err = nullptr);

// ---------------------------------------------------------------------
// Server child processes.

struct ChildProc {
  pid_t pid = -1;
  std::uint16_t port = 0;
  bool killed = false;  ///< SIGKILLed on purpose mid-run
};

/// Called by a child body once its server listens.
using PortReady = std::function<void(std::uint16_t port)>;

/// Fork a child that runs `body` and _exits with its return value. The
/// body starts a server, calls ready(port) once it listens, then serves.
/// The parent blocks until the port arrives over a pipe; if the child
/// dies or reports port 0 first, it is killed and reaped and the result
/// has pid -1. Fork only while the parent is single-threaded.
ChildProc fork_server(const std::function<int(const PortReady& ready)>& body);

/// Child body of a shard: a Scheduler + Server (remote Shutdown allowed,
/// ephemeral port) labelled "shard-<idx>" in the flight recorder, served
/// until a Shutdown frame drains it. `drained`, when set, then sees the
/// scheduler. Returns the child's exit status.
int serve_shard(int idx, const runtime::SchedulerOptions& so,
                net::ServerOptions svo, const PortReady& ready,
                const std::function<void(runtime::Scheduler&)>&
                    drained = {});

/// Stop every child not killed on purpose, then reap them all (pid -1
/// entries are skipped). `signo` 0 sends a Shutdown frame to the child's
/// port, falling back to SIGKILL when it cannot be sent; any other
/// signal is delivered as is.
void stop_and_reap(std::vector<ChildProc>& procs, int signo = 0);

// ---------------------------------------------------------------------
// Closed-loop job driver.

/// Every round(1/frac)-th call of next() says "check this one"; a frac
/// of 0 never does. Thread-safe.
class CheckSampler {
 public:
  explicit CheckSampler(double frac);
  bool next();

 private:
  int period_ = 0;
  std::atomic<int> counter_{0};
};

/// A closed-loop run on the client retry policy: `threads` workers pull
/// job indices 0..jobs-1 and send request(i) with call_with_retry,
/// waiting out up to 1000 Busy replies per call (these runs check
/// correctness, not shedding). Worker w drives ports[w % ports.size()]
/// with backoff seed seed * 1000 + w. With several ports, a call that
/// does not come back Ok moves the worker to the next port on a fresh
/// client (a failover), at most 2 × ports.size() times per job.
struct ClosedLoop {
  std::vector<std::uint16_t> ports;
  int jobs = 0;
  int threads = 1;
  double check_frac = 0;  ///< share of Done replies residual-checked
  std::uint64_t seed = 0;
  int max_attempts = 5;         ///< net::RetryOptions per call
  double busy_wait_cap_s = 2;   ///< net::RetryOptions per call
  std::function<net::JobRequest(int)> request;
  const char* who = "harness";  ///< stderr prefix
};

struct LoadTally {
  int ok = 0, lost = 0;
  int retried = 0;    ///< jobs that needed more than one attempt
  int failovers = 0;  ///< endpoint switches
  int checked = 0, check_failed = 0;
  long busy_retries = 0, reconnects = 0;
  double wall_s = 0, throughput = 0, p50_ms = 0, p99_ms = 0;
};

/// Run `load` to completion. `during`, when set, runs on the calling
/// thread while the workers do and sees the count of finished jobs.
LoadTally run_closed_loop(
    const ClosedLoop& load,
    const std::function<void(const std::atomic<int>& done)>& during = {});

/// A self-checking run's exit code: every failed check prints one
/// "FAIL: ..." line to stderr and makes the exit code 1.
class Gate {
 public:
  /// When `failed`, print the printf-formatted message and fail the run.
  void fail_if(bool failed, const char* fmt, ...)
      __attribute__((format(printf, 3, 4)));
  int exit_code() const { return failed_ ? 1 : 0; }

 private:
  bool failed_ = false;
};

/// The invariants of every chaos run: 0 lost jobs, 0 duplicated
/// executions, 0 failed residual checks.
void expect_clean(Gate& gate, const LoadTally& t, int duplicated);

/// Block until `done` reaches 40% of `jobs` (at least 1): the point
/// where mid-run faults and drains strike, once caches are warm.
void await_mid_run(const std::atomic<int>& done, int jobs);

/// The mid-run victim: the shard of a non-empty `ring` owning the most
/// of the routing `keys`, ties broken toward the lowest shard id.
/// Killing or draining it is guaranteed to move live keys.
std::uint32_t busiest_shard(const cluster::HashRing& ring,
                            const std::vector<std::uint64_t>& keys);

// ---------------------------------------------------------------------
// Verification.

/// Check a reply against its request for all five job kinds: Done, the
/// tensor count and shapes, and the residual against the input
/// regenerated from the request's generator spec (fixed-rank, QP3,
/// RQRCP with Q, RQRCP-adaptive within 10ε). Adaptive replies are held
/// to their basis dims.
bool verify_result(const net::JobRequest& req, const net::CallResult& res);

/// One job trace as the duplicate rule reads it.
struct TraceRow {
  std::string tag, status, cache;  ///< job_status_name / cache_disposition_name
};
std::vector<TraceRow> trace_rows(const std::vector<runtime::JobTrace>& traces);

/// Tags that executed (status "done", cache "miss" or "none") more than
/// once, each reported on stderr after `who`. Replays served from the
/// result cache, failed or expired traces, and the router's intentional
/// duplicates (tags ending "/peerfill" or "/hedge") never count.
int count_duplicates(const std::vector<TraceRow>& rows, const char* who);

}  // namespace randla::harness
