// test_harness.cpp — the shared driver harness (examples/harness): the
// reply verifier that randla_loadgen and randla_cluster gate their
// residual checks on, the duplicate-execution rule behind their
// "0 duplicated" invariants, the check sampler, the mid-run victim
// rule, and the fork/port handshake. These otherwise only run inside
// CI's driver stages.
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "harness.hpp"

using namespace randla;
using namespace randla::harness;

namespace {

constexpr runtime::JobKind kKinds[] = {
    runtime::JobKind::FixedRank, runtime::JobKind::Adaptive,
    runtime::JobKind::Qrcp, runtime::JobKind::Rqrcp,
    runtime::JobKind::RqrcpAdaptive};

/// One request per kind on a numerically rank-8 (or Gaussian) input,
/// shaped like the load generator's mix.
net::JobRequest request_for(runtime::JobKind kind) {
  net::JobRequest req;
  req.request_id = static_cast<std::uint64_t>(kind) + 1;
  req.kind = kind;
  req.matrix.generator = "lowrank";
  req.matrix.seed = 11;
  req.matrix.m = 96;
  req.matrix.n = 48;
  req.matrix.rank = 8;
  switch (kind) {
    case runtime::JobKind::FixedRank:
      req.k = 16;
      req.p = 8;
      req.q = 1;
      break;
    case runtime::JobKind::Adaptive:
      req.matrix.generator = "gaussian";
      req.epsilon = 0.5;
      req.relative = true;
      req.l_init = 8;
      req.l_inc = 8;
      req.l_max = 24;
      break;
    case runtime::JobKind::Qrcp:
      req.k = 16;
      req.block = 16;
      break;
    case runtime::JobKind::Rqrcp:
      req.k = 16;
      req.block = 8;
      req.oversample = 8;
      req.want_q = true;
      break;
    case runtime::JobKind::RqrcpAdaptive:
      req.epsilon = 1e-6;
      req.relative = true;
      req.block = 8;
      req.oversample = 8;
      req.max_rank = 32;
      req.want_q = true;
      break;
  }
  return req;
}

/// The tensor a corrupted reply would most plausibly get wrong: the
/// orthonormal factor the residual multiplies out.
std::size_t factor_tensor(runtime::JobKind kind) {
  return kind == runtime::JobKind::Rqrcp ||
                 kind == runtime::JobKind::RqrcpAdaptive
             ? 3
             : 0;
}

class HarnessVerify : public ::testing::Test {
 protected:
  void SetUp() override {
    runtime::SchedulerOptions so;
    so.num_workers = 2;
    so.queue_capacity = 16;
    sched_ = std::make_unique<runtime::Scheduler>(so);
    server_ = std::make_unique<net::Server>(*sched_);
    ASSERT_TRUE(server_->start());
  }
  void TearDown() override { server_->stop(); }

  net::CallResult genuine(const net::JobRequest& req) {
    net::Client client(client_options(server_->port()));
    EXPECT_TRUE(client.connect());
    net::CallResult res = client.call(req);
    EXPECT_EQ(res.status, net::CallStatus::Ok) << res.detail;
    return res;
  }

  std::unique_ptr<runtime::Scheduler> sched_;
  std::unique_ptr<net::Server> server_;
};

TraceRow row(const std::string& tag, const std::string& status,
             const std::string& cache) {
  return TraceRow{tag, status, cache};
}

}  // namespace

TEST(HarnessFork, PortHandshakeAndReap) {
  std::vector<ChildProc> kids;
  kids.push_back(fork_server([](const PortReady& ready) {
    ready(4242);
    pause();
    return 0;
  }));
  ASSERT_GT(kids[0].pid, 0);
  EXPECT_EQ(kids[0].port, 4242);
  stop_and_reap(kids, SIGTERM);

  // A child that exits before reporting a port is a failed start.
  const ChildProc failed = fork_server([](const PortReady&) { return 3; });
  EXPECT_EQ(failed.pid, -1);
  EXPECT_EQ(failed.port, 0);
}

TEST(HarnessSampler, EveryPeriodthCallFromTheFirst) {
  CheckSampler quarter(0.25);
  std::vector<bool> picks;
  for (int i = 0; i < 8; ++i) picks.push_back(quarter.next());
  EXPECT_EQ(picks, (std::vector<bool>{true, false, false, false, true, false,
                                      false, false}));
  CheckSampler never(0);
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(never.next());
}

TEST_F(HarnessVerify, AcceptsGenuineRepliesOfEveryKind) {
  for (const runtime::JobKind kind : kKinds) {
    const net::JobRequest req = request_for(kind);
    const net::CallResult res = genuine(req);
    ASSERT_EQ(res.header.status, runtime::JobStatus::Done)
        << int(kind) << " " << res.header.error;
    EXPECT_TRUE(verify_result(req, res)) << "kind " << int(kind);
  }
}

TEST_F(HarnessVerify, InlineRequestChecksAgainstItsGeneratorSpec) {
  net::JobRequest req = request_for(runtime::JobKind::FixedRank);
  req.matrix.inline_data = net::materialize(req.matrix);
  req.matrix.source = net::MatrixSource::Inline;
  EXPECT_TRUE(verify_result(req, genuine(req)));
}

TEST_F(HarnessVerify, RejectsPerturbedEntryAndWrongTensorCount) {
  for (const runtime::JobKind kind : kKinds) {
    const net::JobRequest req = request_for(kind);
    const net::CallResult res = genuine(req);
    ASSERT_TRUE(verify_result(req, res)) << "kind " << int(kind);

    // One entry of the factor off by 1. The adaptive contract is the
    // basis dims (its ε bound is the adaptive unit tests' business), so
    // there the corruption is a missing basis column instead.
    net::CallResult bad = res;
    if (kind == runtime::JobKind::Adaptive) {
      bad.header.tensors[0].cols -= 1;
    } else {
      bad.tensors[factor_tensor(kind)](0, 0) += 1.0;
    }
    EXPECT_FALSE(verify_result(req, bad)) << "perturbed kind " << int(kind);

    net::CallResult fewer = res;
    fewer.tensors.pop_back();
    EXPECT_FALSE(verify_result(req, fewer)) << "short kind " << int(kind);
    net::CallResult more = res;
    more.tensors.push_back(res.tensors.back());
    EXPECT_FALSE(verify_result(req, more)) << "long kind " << int(kind);

    net::CallResult failed = res;
    failed.header.status = runtime::JobStatus::Failed;
    EXPECT_FALSE(verify_result(req, failed)) << "failed kind " << int(kind);
  }
}

TEST(HarnessDuplicates, DoneMissTwiceIsOneDuplicate) {
  EXPECT_EQ(count_duplicates({row("a", "done", "miss"),
                              row("a", "done", "miss")},
                             "test"),
            1);
  // A third execution is still one duplicated tag; None counts like Miss.
  EXPECT_EQ(count_duplicates({row("a", "done", "miss"),
                              row("a", "done", "none"),
                              row("a", "done", "miss"),
                              row("b", "done", "none"),
                              row("b", "done", "none")},
                             "test"),
            2);
}

TEST(HarnessDuplicates, ReplaysFailuresAndIntentionalLegsDoNotCount) {
  EXPECT_EQ(count_duplicates(
                {
                    // A retried submit served from the result cache.
                    row("r", "done", "miss"), row("r", "done", "result"),
                    row("s", "done", "sketch"), row("s", "done", "miss"),
                    // Failed / expired attempts before the real one.
                    row("f", "failed", "miss"), row("f", "done", "miss"),
                    row("e", "expired", "none"), row("e", "done", "none"),
                    // The router's hedge and peer-fill legs.
                    row("h", "done", "miss"), row("h/hedge", "done", "miss"),
                    row("h/hedge", "done", "miss"),
                    row("p/peerfill", "done", "miss"),
                    row("p/peerfill", "done", "none"),
                },
                "test"),
            0);
}

TEST(HarnessDuplicates, TraceRowsNameStatusAndCache) {
  runtime::JobTrace tr;
  tr.tag = "t/1";
  tr.status = runtime::JobStatus::Done;
  tr.cache = runtime::CacheDisposition::Miss;
  const std::vector<TraceRow> rows = trace_rows({tr, tr});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].tag, "t/1");
  EXPECT_EQ(rows[0].status, "done");
  EXPECT_EQ(rows[0].cache, "miss");
  EXPECT_EQ(count_duplicates(rows, "test"), 1);
}

TEST(HarnessVictim, MostKeysWinsTiesGoToTheLowestId) {
  cluster::HashRing ring;
  for (std::uint32_t s = 0; s < 3; ++s) ring.add(s);
  // Three keys owned by each shard, from keys spread over the ring.
  std::vector<std::vector<std::uint64_t>> of(3);
  for (std::uint64_t i = 1; i < 1000; ++i) {
    const std::uint64_t key = i * 0x9E3779B97F4A7C15ull;
    auto& mine = of[*ring.owner(key)];
    if (mine.size() < 3) mine.push_back(key);
  }
  for (const auto& keys : of) ASSERT_EQ(keys.size(), 3u);

  EXPECT_EQ(busiest_shard(ring, {of[1][0], of[2][0], of[2][1]}), 2u);
  // Shards 0 and 2 tie for the most keys: the lowest id wins, whichever
  // key comes first.
  EXPECT_EQ(busiest_shard(ring, {of[2][0], of[2][1], of[1][0], of[0][0],
                                 of[0][1]}),
            0u);
  // Shards 1 and 2 tie, shard 0 owns none.
  EXPECT_EQ(busiest_shard(ring, {of[2][0], of[1][0]}), 1u);
}
