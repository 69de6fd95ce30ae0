// Chaos harness: server <-> client and leader <-> replica traffic routed
// through the in-process fault-injection proxy (src/net/faultproxy.h)
// under each fault scenario, asserting the resilience invariants:
//
//   * no acked insert is ever lost, whatever the connection fate;
//   * no client gets stuck — deadlines bound every failure mode;
//   * match results are byte-identical to a fault-free run (CRC framing
//     turns corruption into retries, never into wrong answers);
//   * a replica converges after a partition heals, and its circuit
//     breaker walks closed -> open -> half_open -> closed.
//
// Also unit-level coverage for the Deadline/Backoff primitives and the
// FaultSpec grammar the proxy CLI shares.

#include "src/net/faultproxy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/backoff.h"
#include "src/common/deadline.h"
#include "src/datagen/generators.h"
#include "src/io/journal.h"
#include "src/net/client.h"
#include "src/net/replication.h"
#include "src/net/server.h"
#include "src/service/linkage_service.h"
#include "tests/test_paths.h"

namespace cbvlink {
namespace net {
namespace {

using Clock = std::chrono::steady_clock;

int64_t MsSince(Clock::time_point begin) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               begin)
      .count();
}

// --- primitives -----------------------------------------------------------

TEST(DeadlineTest, InfiniteNeverExpiresAndDefaultIsInfinite) {
  Deadline d;
  EXPECT_TRUE(d.IsInfinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_GE(d.RemainingMs(), Deadline::kInfiniteMs);
  EXPECT_TRUE(Deadline::Infinite().IsInfinite());
}

TEST(DeadlineTest, AfterMsExpiresAndClampsRemaining) {
  Deadline d = Deadline::AfterMs(30);
  EXPECT_FALSE(d.IsInfinite());
  EXPECT_GT(d.RemainingMs(), 0);
  EXPECT_LE(d.RemainingMs(), 30);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(d.Expired());
  EXPECT_EQ(d.RemainingMs(), 0);  // clamped, never negative
}

TEST(DeadlineTest, MinPicksTheEarlierAndHandlesInfinite) {
  const Deadline a = Deadline::AfterMs(10);
  const Deadline b = Deadline::AfterMs(5000);
  EXPECT_EQ(Deadline::Min(a, b).when(), a.when());
  EXPECT_EQ(Deadline::Min(a, Deadline::Infinite()).when(), a.when());
  EXPECT_TRUE(Deadline::Min(Deadline::Infinite(), Deadline::Infinite())
                  .IsInfinite());
}

TEST(BackoffTest, FirstDelayIsBaseThenDecorrelatedJitterUpToCap) {
  BackoffOptions options;
  options.base_ms = 20;
  options.max_ms = 200;
  options.seed = 7;
  Backoff backoff(options);
  EXPECT_EQ(backoff.NextDelayMs(), 20);
  for (int i = 0; i < 100; ++i) {
    const int64_t delay = backoff.NextDelayMs();
    EXPECT_GE(delay, 20);
    EXPECT_LE(delay, 200);
  }
  EXPECT_EQ(backoff.failures(), 101);
  backoff.Reset();
  EXPECT_EQ(backoff.failures(), 0);
  EXPECT_EQ(backoff.NextDelayMs(), 20);  // reset restarts the ladder
}

TEST(BackoffTest, DeterministicForAFixedSeed) {
  BackoffOptions options;
  options.seed = 99;
  Backoff a(options), b(options);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a.NextDelayMs(), b.NextDelayMs());
}

TEST(FaultSpecTest, ParsesTheSharedGrammar) {
  FaultSpec spec;
  ASSERT_TRUE(spec.Parse("latency=5;jitter=2;bandwidth=65536;slice=1;"
                         "corrupt=1000;reset_after=4096;blackhole=1;seed=42")
                  .ok());
  EXPECT_EQ(spec.latency_ms.load(), 5);
  EXPECT_EQ(spec.jitter_ms.load(), 2);
  EXPECT_EQ(spec.bandwidth_bps.load(), 65536);
  EXPECT_EQ(spec.slice_bytes.load(), 1);
  EXPECT_EQ(spec.corrupt_ppm.load(), 1000);
  EXPECT_EQ(spec.reset_after_bytes.load(), 4096);
  EXPECT_TRUE(spec.blackhole.load());
  EXPECT_EQ(spec.seed.load(), 42u);

  EXPECT_FALSE(spec.Parse("latency").ok());       // no '='
  EXPECT_FALSE(spec.Parse("latency=abc").ok());   // not a number
  EXPECT_FALSE(spec.Parse("frobnicate=1").ok());  // unknown knob
  EXPECT_TRUE(spec.Parse("").ok());               // empty = no-op
}

// --- serving fixture ------------------------------------------------------

CbvHbConfig BaseConfig(const Schema& schema) {
  CbvHbConfig config;
  config.schema = schema;
  config.rule = Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4),
                           Rule::Pred(2, 4), Rule::Pred(3, 4)});
  config.record_K = 30;
  config.record_theta = 4;
  config.expected_qgrams = {5.1, 5.0, 20.0, 7.2};
  config.seed = 5;
  return config;
}

std::vector<Record> GenerateRecords(const NcvrGenerator& gen, size_t n,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<Record> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) records.push_back(gen.Generate(i, rng));
  return records;
}

std::vector<IdPair> Sorted(std::vector<IdPair> pairs) {
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

bool WaitUntil(const std::function<bool()>& pred, int timeout_ms = 10000) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

/// A serving stack with the fault proxy in front: clients talk to
/// proxy->port(), the proxy forwards to the real server.
struct ChaosFixture {
  std::unique_ptr<NcvrGenerator> gen;
  std::unique_ptr<LinkageService> service;
  std::unique_ptr<NetServer> server;
  std::unique_ptr<FaultProxy> proxy;
  std::vector<Record> records;

  static ChaosFixture Start(size_t n, NetServerOptions options = {}) {
    ChaosFixture f;
    Result<NcvrGenerator> gen = NcvrGenerator::Create();
    EXPECT_TRUE(gen.ok());
    f.gen = std::make_unique<NcvrGenerator>(std::move(gen.value()));
    Result<std::unique_ptr<LinkageService>> service =
        LinkageService::Create(BaseConfig(f.gen->schema()));
    EXPECT_TRUE(service.ok());
    f.service = std::move(service.value());
    f.records = GenerateRecords(*f.gen, n, 21);
    for (const Record& r : f.records) {
      EXPECT_TRUE(f.service->Insert(r).ok());
    }
    Result<std::unique_ptr<NetServer>> server =
        NetServer::Start(f.service.get(), options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    f.server = std::move(server.value());
    Result<std::unique_ptr<FaultProxy>> proxy =
        FaultProxy::Start("127.0.0.1", f.server->port());
    EXPECT_TRUE(proxy.ok()) << proxy.status().ToString();
    f.proxy = std::move(proxy.value());
    return f;
  }

  /// Ground-truth match results computed in-process (fault-free).
  std::vector<std::vector<IdPair>> Expected(const std::vector<Record>& queries) {
    std::vector<std::vector<IdPair>> expected(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_TRUE(service->Match(queries[i], &expected[i]).ok());
    }
    return expected;
  }

  std::vector<Record> Queries(size_t n, uint64_t first_id) {
    std::vector<Record> queries(records.begin(),
                                records.begin() +
                                    static_cast<ptrdiff_t>(
                                        std::min(n, records.size())));
    for (size_t i = 0; i < queries.size(); ++i) queries[i].id = first_id + i;
    return queries;
  }
};

// --- scenarios ------------------------------------------------------------

// Baseline sanity: a clean proxy is transparent.
TEST(ChaosTest, PassthroughProxyIsTransparent) {
  ChaosFixture f = ChaosFixture::Start(12);
  const std::vector<Record> queries = f.Queries(12, 2000);
  const std::vector<std::vector<IdPair>> expected = f.Expected(queries);

  Result<std::unique_ptr<NetClient>> client =
      NetClient::Connect("127.0.0.1", f.proxy->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (size_t i = 0; i < queries.size(); ++i) {
    std::vector<IdPair> got;
    ASSERT_TRUE(client.value()->Match(queries[i], &got).ok());
    EXPECT_EQ(Sorted(got), Sorted(expected[i])) << "query " << i;
  }
  EXPECT_GT(f.proxy->forwarded_bytes(), 0u);
}

// Latency + jitter + the 1-byte slicer + a bandwidth cap: slow and
// fragmented, but every answer byte-identical to the fault-free run.
TEST(ChaosTest, SlowSlicedThrottledLinkGivesIdenticalResults) {
  ChaosFixture f = ChaosFixture::Start(10);
  const std::vector<Record> queries = f.Queries(6, 2100);
  const std::vector<std::vector<IdPair>> expected = f.Expected(queries);

  ASSERT_TRUE(
      f.proxy->faults().Parse("latency=2;jitter=2;slice=64;bandwidth=262144")
          .ok());
  Result<std::unique_ptr<NetClient>> client =
      NetClient::Connect("127.0.0.1", f.proxy->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (size_t i = 0; i < queries.size(); ++i) {
    std::vector<IdPair> got;
    ASSERT_TRUE(client.value()->Match(queries[i], &got).ok()) << i;
    EXPECT_EQ(Sorted(got), Sorted(expected[i])) << "query " << i;
  }
}

// Byte corruption: the CRC framing must turn flipped bits into retried
// transport errors — never into a wrong (but well-formed) answer.
TEST(ChaosTest, CorruptionIsRetriedNeverReturnsWrongAnswers) {
  ChaosFixture f = ChaosFixture::Start(10);
  const std::vector<Record> queries = f.Queries(8, 2200);
  const std::vector<std::vector<IdPair>> expected = f.Expected(queries);

  ASSERT_TRUE(f.proxy->faults().Parse("corrupt=400;seed=11").ok());
  RetryPolicy policy;
  policy.max_attempts = 12;
  policy.per_attempt_timeout_ms = 2000;
  policy.backoff.base_ms = 5;
  policy.backoff.max_ms = 50;
  RetryingClient client("127.0.0.1", f.proxy->port(), policy);
  for (size_t i = 0; i < queries.size(); ++i) {
    std::vector<IdPair> got;
    const Status st = client.Match(queries[i], &got);
    ASSERT_TRUE(st.ok()) << st.ToString();
    // The invariant: success implies the exact fault-free answer.
    EXPECT_EQ(Sorted(got), Sorted(expected[i])) << "query " << i;
  }
}

// Connection resets mid-stream: retries reconnect and finish, and every
// acked insert is actually in the index (and survives journal replay).
TEST(ChaosTest, AckedInsertsSurviveConnectionResets) {
  const std::string journal_path = UniqueTempPath("chaos_resets.cbvj");
  ChaosFixture f = ChaosFixture::Start(10);
  {
    Result<std::unique_ptr<Journal>> journal = Journal::Open(journal_path);
    ASSERT_TRUE(journal.ok());
    f.service->AttachJournal(std::move(journal.value()));
  }
  // Low enough that a connection survives only a few inserts before the
  // proxy RSTs it: the run must weather several resets.
  ASSERT_TRUE(f.proxy->faults().Parse("reset_after=400").ok());

  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.per_attempt_timeout_ms = 2000;
  policy.backoff.base_ms = 5;
  policy.backoff.max_ms = 50;
  RetryingClient client("127.0.0.1", f.proxy->port(), policy);

  std::vector<uint64_t> acked;
  for (size_t i = 0; i < 30; ++i) {
    Record record = f.records[i % f.records.size()];
    record.id = 3000 + i;
    if (client.Insert(record).ok()) acked.push_back(record.id);
  }
  // The scenario must both actually reset connections and still land
  // most inserts.
  EXPECT_GT(client.counters().reconnects, 0u);
  EXPECT_GT(acked.size(), 0u);

  // Invariant: an acked insert is never lost.
  for (const uint64_t id : acked) {
    EXPECT_TRUE(f.service->Contains(id)) << "acked insert " << id << " lost";
  }

  // And each survives crash recovery exactly once: replaying the journal
  // into a fresh service applies every acked id.
  f.server->Shutdown();
  Result<std::unique_ptr<LinkageService>> restarted =
      LinkageService::Create(BaseConfig(f.gen->schema()));
  ASSERT_TRUE(restarted.ok());
  for (const Record& r : f.records) {
    ASSERT_TRUE(restarted.value()->Insert(r).ok());
  }
  Result<JournalReplayStats> stats =
      restarted.value()->ReplayJournalFile(journal_path);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  for (const uint64_t id : acked) {
    EXPECT_TRUE(restarted.value()->Contains(id))
        << "acked insert " << id << " lost across restart";
  }
}

// Retry safety of insert: a duplicate send (exactly what a retry after a
// lost ack produces) is absorbed by journal-replay id-dedupe, so insert
// and match_and_insert are idempotent and safe to retry.
TEST(ChaosTest, DuplicateInsertIsDedupedByJournalReplay) {
  const std::string journal_path = UniqueTempPath("chaos_dedupe.cbvj");
  ChaosFixture f = ChaosFixture::Start(4);
  {
    Result<std::unique_ptr<Journal>> journal = Journal::Open(journal_path);
    ASSERT_TRUE(journal.ok());
    f.service->AttachJournal(std::move(journal.value()));
  }
  Result<std::unique_ptr<NetClient>> client =
      NetClient::Connect("127.0.0.1", f.proxy->port());
  ASSERT_TRUE(client.ok());
  Record record = f.records[0];
  record.id = 4000;
  ASSERT_TRUE(client.value()->Insert(record).ok());
  ASSERT_TRUE(client.value()->Insert(record).ok());  // the "retry"

  f.server->Shutdown();
  Result<std::unique_ptr<LinkageService>> restarted =
      LinkageService::Create(BaseConfig(f.gen->schema()));
  ASSERT_TRUE(restarted.ok());
  Result<JournalReplayStats> stats =
      restarted.value()->ReplayJournalFile(journal_path);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // Both sends hit the journal; replay applies the id exactly once.
  EXPECT_EQ(stats.value().applied, 1u);
  EXPECT_TRUE(restarted.value()->Contains(4000));
}

// Blackhole: a partitioned client with a total deadline fails within a
// bounded time instead of hanging forever.
TEST(ChaosTest, BlackholedClientFailsWithinItsDeadline) {
  ChaosFixture f = ChaosFixture::Start(4);
  f.proxy->faults().blackhole.store(true);

  RetryPolicy policy;
  policy.max_attempts = 100;  // the total deadline is the only bound
  policy.per_attempt_timeout_ms = 400;
  policy.total_timeout_ms = 1500;
  policy.backoff.base_ms = 10;
  policy.backoff.max_ms = 50;
  RetryingClient client("127.0.0.1", f.proxy->port(), policy);

  Record q = f.records[0];
  q.id = 5000;
  std::vector<IdPair> pairs;
  const auto begin = Clock::now();
  const Status st = client.Match(q, &pairs);
  const int64_t elapsed = MsSince(begin);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
  EXPECT_LT(elapsed, 5000) << "client stuck for " << elapsed << "ms";
}

// Leader <-> replica through the proxy: a partition opens the circuit
// breaker; healing converges the replica (no acked insert lost) and
// closes the circuit again.
TEST(ChaosTest, ReplicaConvergesAfterPartitionHeals) {
  const std::string journal_path = UniqueTempPath("chaos_replica.cbvj");
  ChaosFixture f = ChaosFixture::Start(10);
  {
    Result<std::unique_ptr<Journal>> journal = Journal::Open(journal_path);
    ASSERT_TRUE(journal.ok());
    f.service->AttachJournal(std::move(journal.value()));
  }

  ReplicaOptions options;
  options.primary_port = f.proxy->port();  // follow THROUGH the proxy
  options.poll_interval_ms = 20;
  options.connect_timeout_ms = 300;
  options.io_timeout_ms = 300;
  options.failure_backoff.base_ms = 20;
  options.failure_backoff.max_ms = 100;
  Result<std::unique_ptr<Replica>> replica = Replica::Start(options);
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  EXPECT_EQ(replica.value()->service()->size(), 10u);
  EXPECT_EQ(replica.value()->progress().circuit, CircuitState::kClosed);

  // Live replication works through the clean proxy.
  Record before = f.records[0];
  before.id = 6000;
  ASSERT_TRUE(f.service->Insert(before).ok());
  ASSERT_TRUE(WaitUntil(
      [&] { return replica.value()->service()->Contains(6000); }))
      << "last error: " << replica.value()->progress().last_error;

  // Partition.  Fetches time out; enough consecutive failures must open
  // the circuit breaker.
  f.proxy->faults().blackhole.store(true);
  ASSERT_TRUE(WaitUntil([&] {
    return replica.value()->progress().circuit == CircuitState::kOpen;
  })) << "circuit never opened; last error: "
      << replica.value()->progress().last_error;

  // Writes that land during the partition...
  std::vector<uint64_t> partition_ids;
  for (size_t i = 0; i < 5; ++i) {
    Record record = f.records[i % f.records.size()];
    record.id = 6100 + i;
    ASSERT_TRUE(f.service->Insert(record).ok());
    partition_ids.push_back(record.id);
  }

  // Heal.  The follower must converge and close the circuit.
  f.proxy->faults().blackhole.store(false);
  for (const uint64_t id : partition_ids) {
    ASSERT_TRUE(WaitUntil(
        [&] { return replica.value()->service()->Contains(id); }, 20000))
        << "id " << id << " never replicated; last error: "
        << replica.value()->progress().last_error;
  }
  ASSERT_TRUE(WaitUntil([&] {
    const ReplicaProgress p = replica.value()->progress();
    return p.circuit == CircuitState::kClosed && p.lag_bytes == 0;
  })) << "circuit: " << static_cast<int>(replica.value()->progress().circuit)
      << " lag: " << replica.value()->progress().lag_bytes;
  EXPECT_TRUE(replica.value()->progress().last_error.empty());
  replica.value()->Stop();
}

// The harsher partition: the proxy DIES, so the replica's reconnects
// are refused outright instead of hanging.  The re-sync then fails
// before a connection exists — the follow loop must survive that
// (regression: it used to dereference the dropped client) and converge
// once a proxy returns on the same port.
TEST(ChaosTest, ReplicaSurvivesConnectionRefusedPartition) {
  ChaosFixture f = ChaosFixture::Start(10);
  const uint16_t proxy_port = f.proxy->port();

  ReplicaOptions options;
  options.primary_port = proxy_port;
  options.poll_interval_ms = 20;
  options.connect_timeout_ms = 300;
  options.io_timeout_ms = 300;
  options.failure_backoff.base_ms = 20;
  options.failure_backoff.max_ms = 100;
  Result<std::unique_ptr<Replica>> replica = Replica::Start(options);
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  EXPECT_EQ(replica.value()->service()->size(), 10u);

  // Kill the link completely: live connections reset, reconnects refused.
  f.proxy->Shutdown();
  ASSERT_TRUE(WaitUntil([&] {
    return replica.value()->progress().circuit == CircuitState::kOpen;
  })) << "circuit never opened; last error: "
      << replica.value()->progress().last_error;

  // Keep it down across several refused re-sync attempts; the follow
  // loop must still be reporting failures, not dead.
  const uint64_t failures_at_open =
      replica.value()->progress().consecutive_failures;
  ASSERT_TRUE(WaitUntil([&] {
    return replica.value()->progress().consecutive_failures >
           failures_at_open + 2;
  })) << "follow loop stopped making attempts";

  Record during = f.records[0];
  during.id = 6500;
  ASSERT_TRUE(f.service->Insert(during).ok());

  // Heal: a fresh proxy on the SAME port.
  Result<std::unique_ptr<FaultProxy>> healed =
      FaultProxy::Start("127.0.0.1", f.server->port(), proxy_port);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  f.proxy = std::move(healed.value());

  ASSERT_TRUE(WaitUntil(
      [&] { return replica.value()->service()->Contains(6500); }, 20000))
      << "never converged after heal; last error: "
      << replica.value()->progress().last_error;
  ASSERT_TRUE(WaitUntil([&] {
    return replica.value()->progress().circuit == CircuitState::kClosed;
  }));
  replica.value()->Stop();
}

}  // namespace
}  // namespace net
}  // namespace cbvlink
