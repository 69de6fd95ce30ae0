#include "src/service/linkage_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "src/blocking/matcher.h"
#include "src/blocking/record_blocker.h"
#include "src/common/failpoint.h"
#include "src/common/thread_pool.h"
#include "src/datagen/generators.h"
#include "src/datagen/perturbator.h"
#include "src/telemetry/metrics.h"
#include "tests/snapshot_image.h"
#include "tests/test_paths.h"

namespace cbvlink {
namespace {

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
  for (size_t i = 0; i < n; ++i) {
    records.push_back(gen.Generate(i, rng));
  }
  return records;
}

std::vector<IdPair> Sorted(std::vector<IdPair> pairs) {
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

TEST(ServiceTest, RejectsAttributeLevelBlocking) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  CbvHbConfig config = BaseConfig(gen.value().schema());
  config.attribute_level_blocking = true;
  config.attribute_K = {5, 5, 10, 5};
  EXPECT_FALSE(LinkageService::Create(std::move(config)).ok());
}

TEST(ServiceTest, NeedsCalibrationOrExplicitB) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  CbvHbConfig config = BaseConfig(gen.value().schema());
  config.expected_qgrams.clear();
  EXPECT_FALSE(LinkageService::Create(config).ok());
  const std::vector<Record> sample = GenerateRecords(gen.value(), 50, 1);
  EXPECT_TRUE(LinkageService::Create(config, {}, sample).ok());
}

TEST(ServiceTest, InsertThenMatchFindsDuplicates) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Result<std::unique_ptr<LinkageService>> service =
      LinkageService::Create(BaseConfig(gen.value().schema()));
  ASSERT_TRUE(service.ok());

  const std::vector<Record> records = GenerateRecords(gen.value(), 2, 1);
  for (const Record& r : records) {
    ASSERT_TRUE(service.value()->Insert(r).ok());
  }
  EXPECT_EQ(service.value()->size(), 2u);

  Record query = records[0];
  query.id = 100;
  std::vector<IdPair> out;
  ASSERT_TRUE(service.value()->Match(query, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].a_id, records[0].id);
  EXPECT_EQ(out[0].b_id, 100u);

  const ServiceMetrics metrics = service.value()->metrics();
  EXPECT_EQ(metrics.inserts, 2u);
  EXPECT_EQ(metrics.queries, 1u);
  EXPECT_EQ(metrics.matches, 1u);
  EXPECT_GT(metrics.comparisons, 0u);
  EXPECT_GT(metrics.query_seconds, 0.0);
  EXPECT_GT(metrics.QueriesPerSecond(), 0.0);
}

TEST(ServiceTest, PropagatesConfigValidation) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  CbvHbConfig config = BaseConfig(gen.value().schema());
  config.rule = Rule::Pred(9, 4);  // out of range
  Result<std::unique_ptr<LinkageService>> service =
      LinkageService::Create(std::move(config));
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kOutOfRange);
}

TEST(ServiceTest, MatchAndInsertChainsArrivals) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Result<std::unique_ptr<LinkageService>> created =
      LinkageService::Create(BaseConfig(gen.value().schema()));
  ASSERT_TRUE(created.ok());
  LinkageService& service = *created.value();
  // Theorem 1 sizes the four NCVR attributes to Table 3's 120 bits.
  EXPECT_EQ(service.encoder().total_bits(), 120u);

  const Record first = GenerateRecords(gen.value(), 1, 3)[0];
  std::vector<IdPair> out;
  ASSERT_TRUE(service.Match(first, &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(service.size(), 0u);  // Match alone never inserts.

  ASSERT_TRUE(service.MatchAndInsert(first, &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(service.size(), 1u);
  // The same record arriving again now matches the first arrival.
  Record again = first;
  again.id = 55;
  ASSERT_TRUE(service.MatchAndInsert(again, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (IdPair{first.id, 55}));
  EXPECT_EQ(service.size(), 2u);
}

TEST(ServiceTest, WallClockQpsUsesWallSpanNotCpuSeconds) {
  // With T batch workers, summed per-thread busy time is ~T times the
  // wall span; QueriesPerSecond() must divide by the latter.
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  LinkageServiceOptions options;
  options.execution = ExecutionOptions::WithThreads(4);
  Result<std::unique_ptr<LinkageService>> service =
      LinkageService::Create(BaseConfig(gen.value().schema()), options);
  ASSERT_TRUE(service.ok());

  const std::vector<Record> registry = GenerateRecords(gen.value(), 200, 12);
  ASSERT_TRUE(service.value()->InsertBatch(registry).ok());
  std::vector<IdPair> out;
  ASSERT_TRUE(service.value()->MatchBatch(registry, &out).ok());

  const ServiceMetrics metrics = service.value()->metrics();
  EXPECT_GT(metrics.query_wall_seconds, 0.0);
  EXPECT_GT(metrics.insert_wall_seconds, 0.0);
  EXPECT_GT(metrics.query_seconds, 0.0);
  // The two rates divide by different denominators: QueriesPerSecond()
  // by the wall span, PerThreadQueriesPerSecond() by summed busy time.
  // (The absolute values are timing-dependent; the definitions are not.)
  EXPECT_DOUBLE_EQ(
      metrics.QueriesPerSecond(),
      static_cast<double>(metrics.queries) / metrics.query_wall_seconds);
  EXPECT_DOUBLE_EQ(
      metrics.PerThreadQueriesPerSecond(),
      static_cast<double>(metrics.queries) / metrics.query_seconds);
}

TEST(ServiceTest, SkippedRowsCountedInMetrics) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Result<std::unique_ptr<LinkageService>> service =
      LinkageService::Create(BaseConfig(gen.value().schema()));
  ASSERT_TRUE(service.ok());
  service.value()->RecordSkippedRows(2);
  service.value()->RecordSkippedRows(1);
  EXPECT_EQ(service.value()->metrics().skipped_rows, 3u);
}

/// The value of the series `name` in `series` (a name-sorted Snapshot
/// list), or nullopt when it is absent.
template <typename T>
std::optional<T> SeriesValue(
    const std::vector<std::pair<std::string, T>>& series,
    const std::string& name) {
  for (const auto& [series_name, value] : series) {
    if (series_name == name) return value;
  }
  return std::nullopt;
}

TEST(ServiceTest, CollectTelemetryExportsGaugesAndFunnelCounters) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Result<std::unique_ptr<LinkageService>> service =
      LinkageService::Create(BaseConfig(gen.value().schema()));
  ASSERT_TRUE(service.ok());

  const std::vector<Record> records = GenerateRecords(gen.value(), 20, 13);
  ASSERT_TRUE(service.value()->InsertBatch(records).ok());
  std::vector<IdPair> out;
  ASSERT_TRUE(service.value()->Match(records[0], &out).ok());

  const telemetry::Registry::Snapshot snap =
      service.value()->CollectTelemetry();
  const auto gauge = [&](const std::string& name) {
    const std::optional<double> value = SeriesValue(snap.gauges, name);
    EXPECT_TRUE(value.has_value()) << name;
    return value.value_or(-1);
  };
  EXPECT_EQ(gauge("service_records"), 20.0);
  EXPECT_GT(gauge("lsh_tables"), 0.0);
  // Per-table gauges exist for table 0 and the occupancy histogram
  // covers every bucket exactly once.
  EXPECT_GT(gauge(telemetry::LabeledName("lsh_table_buckets", "table", "0")),
            0.0);
  double occupied = 0;
  double buckets = 0;
  for (size_t i = 0; i < 16; ++i) {
    occupied += gauge(telemetry::LabeledName("lsh_bucket_occupancy",
                                             "size_log2", std::to_string(i)));
  }
  const double tables = gauge("lsh_tables");
  for (size_t t = 0; t < static_cast<size_t>(tables); ++t) {
    buckets += gauge(telemetry::LabeledName("lsh_table_buckets", "table",
                                            std::to_string(t)));
  }
  EXPECT_EQ(occupied, buckets);

  // The match funnel and the latency histograms ride in the same view.
  const ServiceMetrics metrics = service.value()->metrics();
  EXPECT_GT(metrics.candidate_occurrences, 0u);
  EXPECT_GT(metrics.comparisons, 0u);
  EXPECT_GE(metrics.candidate_occurrences, metrics.matches);
  EXPECT_EQ(SeriesValue(snap.counters, "service_candidates_total"),
            metrics.candidate_occurrences);
  const std::optional<telemetry::Histogram::Snapshot> latency =
      SeriesValue(snap.histograms, "query_latency_us");
  ASSERT_TRUE(latency.has_value());
  EXPECT_EQ(latency->count, 1u);
  // Each kind stays sorted by name after the merge with Global().
  const auto by_name = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  EXPECT_TRUE(std::is_sorted(snap.counters.begin(), snap.counters.end(),
                             by_name));
  EXPECT_TRUE(std::is_sorted(snap.gauges.begin(), snap.gauges.end(), by_name));
  EXPECT_TRUE(std::is_sorted(snap.histograms.begin(), snap.histograms.end(),
                             by_name));
}

TEST(ServiceTest, TwoServicesInOneProcessExportTheirOwnCounters) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Result<std::unique_ptr<LinkageService>> first =
      LinkageService::Create(BaseConfig(gen.value().schema()));
  Result<std::unique_ptr<LinkageService>> second =
      LinkageService::Create(BaseConfig(gen.value().schema()));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());

  // Different traffic on each: the first service inserts, matches,
  // deletes, updates and compacts; the second only inserts and matches
  // a little, and skips a row.
  const std::vector<Record> records = GenerateRecords(gen.value(), 30, 21);
  LinkageService& a = *first.value();
  ASSERT_TRUE(a.InsertBatch(records).ok());
  std::vector<IdPair> out;
  for (size_t i = 0; i < 10; ++i) ASSERT_TRUE(a.Match(records[i], &out).ok());
  ASSERT_TRUE(a.Delete(records[0].id).ok());
  ASSERT_TRUE(a.Update(records[1]).ok());
  ASSERT_TRUE(a.Compact().ok());
  LinkageService& b = *second.value();
  ASSERT_TRUE(b.Insert(records[2]).ok());
  ASSERT_TRUE(b.MatchAndInsert(records[3], &out).ok());
  b.RecordSkippedRows(2);

  for (const LinkageService* service : {&a, &b}) {
    const ServiceMetrics m = service->metrics();
    const std::map<std::string, uint64_t> expected = {
        {"service_inserts_total", m.inserts},
        {"service_deletes_total", m.deletes},
        {"service_updates_total", m.updates},
        {"service_queries_total", m.queries},
        {"service_candidates_total", m.candidate_occurrences},
        {"service_comparisons_total", m.comparisons},
        {"service_matches_total", m.matches},
        {"service_restore_fallbacks_total", m.restore_fallbacks},
        {"service_skipped_rows_total", m.skipped_rows},
        {"compaction_runs_total", m.compactions},
        {"compaction_reclaimed_total", m.compaction_reclaimed},
    };
    const telemetry::Registry::Snapshot snap = service->CollectTelemetry();
    for (const auto& [name, value] : snap.counters) {
      if (name.starts_with("service_") || name.starts_with("compaction_")) {
        ASSERT_TRUE(expected.contains(name)) << name;
      }
    }
    for (const auto& [name, value] : expected) {
      EXPECT_EQ(SeriesValue(snap.counters, name), value) << name;
    }
  }
  EXPECT_EQ(a.metrics().inserts, records.size());
  EXPECT_EQ(a.metrics().queries, 10u);
  EXPECT_EQ(a.metrics().compactions, 1u);
  EXPECT_EQ(b.metrics().inserts, 2u);
  EXPECT_EQ(b.metrics().queries, 1u);
  EXPECT_EQ(b.metrics().skipped_rows, 2u);
}

TEST(ServiceTest, BatchMatchEqualsSerialMatch) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  LinkageServiceOptions options;
  options.execution = ExecutionOptions::WithThreads(4);
  Result<std::unique_ptr<LinkageService>> service =
      LinkageService::Create(BaseConfig(gen.value().schema()), options);
  ASSERT_TRUE(service.ok());

  const std::vector<Record> registry = GenerateRecords(gen.value(), 200, 2);
  ASSERT_TRUE(service.value()->InsertBatch(registry).ok());
  EXPECT_EQ(service.value()->size(), registry.size());

  std::vector<Record> queries;
  for (size_t i = 0; i < 50; ++i) {
    Record q = registry[i];
    q.id = 1000 + i;
    queries.push_back(std::move(q));
  }
  std::vector<IdPair> serial;
  for (const Record& q : queries) {
    ASSERT_TRUE(service.value()->Match(q, &serial).ok());
  }
  std::vector<IdPair> batch;
  ASSERT_TRUE(service.value()->MatchBatch(queries, &batch).ok());
  EXPECT_EQ(Sorted(std::move(batch)), Sorted(std::move(serial)));
}

TEST(ServiceTest, ConcurrentMatchBatchCallsShareThePool) {
  // Batch calls used to serialize on a service-level mutex because
  // ParallelFor could not take concurrent callers; with the per-call
  // completion latch they run the pool together.  Each caller must still
  // get exactly its own results.
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  LinkageServiceOptions options;
  options.execution = ExecutionOptions::WithThreads(4);
  Result<std::unique_ptr<LinkageService>> created =
      LinkageService::Create(BaseConfig(gen.value().schema()), options);
  ASSERT_TRUE(created.ok());
  LinkageService& service = *created.value();

  const std::vector<Record> registry = GenerateRecords(gen.value(), 120, 7);
  ASSERT_TRUE(service.InsertBatch(registry).ok());

  constexpr size_t kCallers = 4;
  const size_t per_caller = registry.size() / kCallers;
  std::vector<std::vector<IdPair>> results(kCallers);
  // vector<bool> packs bits; distinct int elements keep the per-thread
  // writes race-free.
  std::vector<int> ok(kCallers, 0);
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      std::vector<Record> queries;
      for (size_t i = c * per_caller; i < (c + 1) * per_caller; ++i) {
        Record q = registry[i];
        q.id = 5000 + i;
        queries.push_back(std::move(q));
      }
      ok[c] = service.MatchBatch(queries, &results[c]).ok() ? 1 : 0;
    });
  }
  for (std::thread& t : callers) t.join();

  for (size_t c = 0; c < kCallers; ++c) {
    EXPECT_TRUE(ok[c]);
    for (size_t i = c * per_caller; i < (c + 1) * per_caller; ++i) {
      const IdPair expected{registry[i].id, 5000 + i};
      EXPECT_TRUE(std::find(results[c].begin(), results[c].end(), expected) !=
                  results[c].end())
          << "caller " << c << " missed its query " << i;
    }
  }
}

TEST(ServiceTest, ConcurrentMatchAndInsertInterleaving) {
  // Eight threads stream duplicate arrivals of disjoint base entities
  // concurrently; every arrival must link back to its pre-inserted base.
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Result<std::unique_ptr<LinkageService>> created =
      LinkageService::Create(BaseConfig(gen.value().schema()));
  ASSERT_TRUE(created.ok());
  LinkageService& service = *created.value();

  const std::vector<Record> base = GenerateRecords(gen.value(), 80, 3);
  for (const Record& r : base) {
    ASSERT_TRUE(service.Insert(r).ok());
  }

  constexpr size_t kThreads = 8;
  const size_t per_thread = base.size() / kThreads;
  std::vector<std::vector<IdPair>> found(kThreads);
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t * per_thread; i < (t + 1) * per_thread; ++i) {
        Record arrival = base[i];
        arrival.id = 10000 + i;
        if (!service.MatchAndInsert(arrival, &found[t]).ok()) ++failures[t];
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(service.size(), base.size() * 2);
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0);
    for (size_t i = t * per_thread; i < (t + 1) * per_thread; ++i) {
      const IdPair expected{base[i].id, 10000 + i};
      EXPECT_TRUE(std::find(found[t].begin(), found[t].end(), expected) !=
                  found[t].end())
          << "arrival " << i << " did not link to its base record";
    }
  }
  const ServiceMetrics metrics = service.metrics();
  EXPECT_EQ(metrics.queries, base.size());
  EXPECT_EQ(metrics.inserts, base.size() * 2);
}

TEST(ServiceTest, SnapshotRestoreRoundTripIdenticalMatches) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Result<std::unique_ptr<LinkageService>> created =
      LinkageService::Create(BaseConfig(gen.value().schema()));
  ASSERT_TRUE(created.ok());
  LinkageService& service = *created.value();

  const std::vector<Record> registry = GenerateRecords(gen.value(), 150, 4);
  ASSERT_TRUE(service.InsertBatch(registry).ok());

  std::vector<Record> queries;
  for (size_t i = 0; i < 40; ++i) {
    Record q = registry[i * 3];
    q.id = 5000 + i;
    queries.push_back(std::move(q));
  }
  std::vector<IdPair> before;
  for (const Record& q : queries) {
    ASSERT_TRUE(service.Match(q, &before).ok());
  }

  std::stringstream buffer;
  ASSERT_TRUE(service.SaveSnapshot(buffer).ok());
  Result<ServiceSnapshot> snapshot = ReadServiceSnapshot(buffer);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot.value().records.size(), registry.size());
  Result<std::unique_ptr<LinkageService>> restored =
      LinkageService::Restore(snapshot.value());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value()->size(), registry.size());
  EXPECT_EQ(restored.value()->blocking_groups(), service.blocking_groups());

  std::vector<IdPair> after;
  for (const Record& q : queries) {
    ASSERT_TRUE(restored.value()->Match(q, &after).ok());
  }
  EXPECT_EQ(Sorted(std::move(after)), Sorted(std::move(before)));

  // The restored service keeps ingesting: a brand-new arrival links to
  // its duplicate inserted after the restore.
  Rng rng(77);
  Record fresh = gen.value().Generate(90000, rng);
  ASSERT_TRUE(restored.value()->Insert(fresh).ok());
  Record again = fresh;
  again.id = 90001;
  std::vector<IdPair> out;
  ASSERT_TRUE(restored.value()->Match(again, &out).ok());
  EXPECT_TRUE(std::find(out.begin(), out.end(),
                        IdPair{90000u, 90001u}) != out.end());
}

// An inconsistent snapshot must be rejected, not acted on: by Restore's
// semantic validation, or for the legacy slots (serialization.h) by the
// reader, on an image patched and resealed with a valid CRC.
class RestoreValidationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<NcvrGenerator> gen = NcvrGenerator::Create();
    ASSERT_TRUE(gen.ok());
    Result<std::unique_ptr<LinkageService>> service =
        LinkageService::Create(BaseConfig(gen.value().schema()));
    ASSERT_TRUE(service.ok());
    for (const Record& r : GenerateRecords(gen.value(), 10, 6)) {
      ASSERT_TRUE(service.value()->Insert(r).ok());
    }
    snapshot_ = service.value()->ExportSnapshot();
    ASSERT_TRUE(LinkageService::Restore(snapshot_).ok())
        << "baseline snapshot must restore before mutation";
    buckets_ = {{0, 0x1234, false, {snapshot_.records[0].id}},
                {1, 0x5678, true, {snapshot_.records[1].id}}};
    legacy_ = LegacyImage(snapshot_, buckets_);
    Result<ServiceSnapshot> baseline = ReadImage(legacy_);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    ASSERT_TRUE(LinkageService::Restore(baseline.value()).ok());
  }

  void ExpectRejected(const char* what) {
    const Status st = LinkageService::Restore(snapshot_).status();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << what;
  }

  /// Patches `bytes` little-endian bytes of the legacy image at `offset`,
  /// reseals its CRC, and expects the reader to reject it.
  void ExpectPatchRejected(size_t offset, uint64_t value, size_t bytes,
                           const char* what) {
    std::string image = legacy_;
    PatchLe(&image, offset, value, bytes);
    ResealCrc(&image);
    EXPECT_EQ(ReadImage(image).status().code(), StatusCode::kInvalidArgument)
        << what;
  }

  ServiceSnapshot snapshot_;
  std::vector<LegacyBucket> buckets_;
  /// snapshot_ as a legacy image: shards 8, cap 128, policy 1, buckets_.
  std::string legacy_;
};

TEST_F(RestoreValidationTest, DanglingBucketIdRejected) {
  buckets_[0].ids.push_back(999999);
  EXPECT_EQ(ReadImage(LegacyImage(snapshot_, buckets_)).status().code(),
            StatusCode::kInvalidArgument)
      << "bucket id not in stored records";
}

TEST_F(RestoreValidationTest, DuplicateRecordIdsRejected) {
  ASSERT_GE(snapshot_.records.size(), 2u);
  snapshot_.records[1].id = snapshot_.records[0].id;
  ExpectRejected("duplicate record ids");
}

TEST_F(RestoreValidationTest, ZeroShardsRejected) {
  ExpectPatchRejected(kSnapshotShardsOffset, 0, 8, "num_shards == 0");
}

TEST_F(RestoreValidationTest, NonPowerOfTwoShardsRejected) {
  ExpectPatchRejected(kSnapshotShardsOffset, 6, 8,
                      "num_shards not a power of two");
}

TEST_F(RestoreValidationTest, NonFiniteDeltaRejected) {
  snapshot_.delta = std::numeric_limits<double>::quiet_NaN();
  ExpectRejected("NaN delta");
  snapshot_.delta = std::numeric_limits<double>::infinity();
  ExpectRejected("infinite delta");
  snapshot_.delta = 1.5;
  ExpectRejected("delta outside (0, 1)");
}

TEST_F(RestoreValidationTest, BadExpectedQgramsRejected) {
  snapshot_.expected_qgrams.pop_back();
  ExpectRejected("qgram/attribute count mismatch");
  snapshot_.expected_qgrams.push_back(-3.0);
  ExpectRejected("negative expected qgrams");
}

TEST_F(RestoreValidationTest, UnknownOverflowPolicyRejected) {
  ExpectPatchRejected(kSnapshotPolicyOffset, 7, 4, "unknown overflow policy");
}

TEST_F(RestoreValidationTest, RecordWidthMismatchRejected) {
  // Records narrower than what the restored encoder produces cannot be
  // compared against fresh encodings; must fail, not silently mismatch.
  for (EncodedRecord& r : snapshot_.records) {
    r.bits = BitVector(8);
  }
  ExpectRejected("record width != encoder width");
}

TEST(ServiceFailpointTest, InjectedFaultsSurfaceAsStatus) {
  Failpoints::DeactivateAll();
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Result<std::unique_ptr<LinkageService>> service =
      LinkageService::Create(BaseConfig(gen.value().schema()));
  ASSERT_TRUE(service.ok());
  const std::vector<Record> records = GenerateRecords(gen.value(), 2, 9);
  ASSERT_TRUE(service.value()->Insert(records[0]).ok());

  Failpoints::Activate("service.insert", FailpointAction::kError);
  EXPECT_EQ(service.value()->Insert(records[1]).code(),
            StatusCode::kIOError);
  Failpoints::Deactivate("service.insert");
  // The failed insert must not have touched the store.
  EXPECT_EQ(service.value()->size(), 1u);

  std::vector<IdPair> out;
  Failpoints::Activate("service.match", FailpointAction::kError);
  EXPECT_EQ(service.value()->Match(records[0], &out).code(),
            StatusCode::kIOError);
  Failpoints::DeactivateAll();
  EXPECT_TRUE(service.value()->Match(records[0], &out).ok());
}

// --- Cross-path differential: the service against the offline engine.
//
// The service draws its encoder and then its LSH family from one seeded
// RNG, in the order RecordLevelBlocker::Create draws them offline, so an
// offline VectorStore + RecordLevelBlocker + Matcher built over the
// service's live records must return exactly the served pairs.

/// The NCVR attribute kept by the one-attribute config: the address,
/// whose ~20 q-grams give a record wide enough for K = 30.
constexpr size_t kAddressField = 2;

/// The NCVR schema reduced to the address attribute: a one-attribute rule
/// over it spans the whole record, which is the batch-kernel shape.
Schema AddressOnlySchema(const Schema& full) {
  Schema schema;
  schema.attributes.push_back(full.attributes[kAddressField]);
  return schema;
}

/// The service configs under test: the PL conjunction (per-pair compare
/// path) and a one-attribute threshold rule (batch-kernel path).
std::vector<CbvHbConfig> DifferentialConfigs(const Schema& full) {
  CbvHbConfig pl = BaseConfig(full);
  CbvHbConfig one = BaseConfig(full);
  one.schema = AddressOnlySchema(full);
  one.rule = Rule::Pred(0, 4);
  one.expected_qgrams = {20.0};
  return {pl, one};
}

/// Projects `records` onto `schema`: unchanged for the full schema, the
/// address field alone for the address-only one.
std::vector<Record> Project(const std::vector<Record>& records,
                            const Schema& schema) {
  if (schema.attributes.size() != 1) return records;
  std::vector<Record> out;
  for (const Record& r : records) {
    out.push_back(Record{r.id, {r.fields[kAddressField]}});
  }
  return out;
}

/// Offline Algorithm 2 over `live`, with the blocker drawn from the
/// service's seed in the service's order (encoder, then LSH family).
std::vector<IdPair> OfflinePairs(const CbvHbConfig& config,
                                 const std::vector<Record>& live,
                                 const std::vector<Record>& queries,
                                 ThreadPool* pool) {
  Rng rng(config.seed);
  Result<CVectorRecordEncoder> encoder = CVectorRecordEncoder::Create(
      config.schema, config.expected_qgrams, rng, config.sizing);
  EXPECT_TRUE(encoder.ok());
  Result<RecordLevelBlocker> blocker = RecordLevelBlocker::Create(
      encoder.value().total_bits(), config.record_K, config.record_theta,
      config.delta, rng);
  EXPECT_TRUE(blocker.ok());
  Result<std::vector<EncodedRecord>> a = encoder.value().EncodeAll(live);
  Result<std::vector<EncodedRecord>> b = encoder.value().EncodeAll(queries);
  EXPECT_TRUE(a.ok() && b.ok());
  blocker.value().BulkInsert(a.value(), pool);
  VectorStore store;
  EXPECT_TRUE(store.AddAll(a.value()).ok());
  const Matcher matcher(&blocker.value(), &store);
  return Sorted(matcher.MatchAll(
      b.value(), MakeRuleClassifier(config.rule, encoder.value().layout()),
      nullptr, pool));
}

std::vector<IdPair> ServedPairs(LinkageService& service,
                                const std::vector<Record>& queries) {
  std::vector<IdPair> out;
  EXPECT_TRUE(service.MatchBatch(queries, &out).ok());
  return Sorted(std::move(out));
}

/// Queries with planted matches: light perturbations of every fourth
/// registry record, plus unrelated records.
std::vector<Record> DifferentialQueries(const NcvrGenerator& gen,
                                        const std::vector<Record>& registry) {
  Rng rng(99);
  std::vector<Record> queries;
  for (size_t i = 0; i < registry.size(); i += 4) {
    Result<Record> perturbed = Perturbator::Apply(
        registry[i], PerturbationScheme::Light(), rng, nullptr);
    EXPECT_TRUE(perturbed.ok());
    queries.push_back(std::move(perturbed).value());
    queries.back().id = 100000 + i;
  }
  for (size_t i = 0; i < 40; ++i) {
    queries.push_back(gen.Generate(200000 + i, rng));
  }
  return queries;
}

/// FNV-1a over the pair sequence, to pin a pair list to a digest.
uint64_t PairsDigest(const std::vector<IdPair>& pairs) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const IdPair& pair : pairs) {
    for (const uint64_t value : {uint64_t{pair.a_id}, uint64_t{pair.b_id}}) {
      for (int byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (8 * byte)) & 0xff;
        hash *= 0x100000001b3ULL;
      }
    }
  }
  return hash;
}

/// Expects every pair to satisfy the rule on the current vectors: the
/// live record under a_id and the query under b_id, both encoded by the
/// service's encoder.
void ExpectPairsSatisfyRule(const LinkageService& service,
                            const CbvHbConfig& config,
                            const std::map<RecordId, Record>& live,
                            const std::vector<Record>& queries,
                            const std::vector<IdPair>& pairs) {
  const CVectorRecordEncoder& encoder = service.encoder();
  const PairClassifier classifier =
      MakeRuleClassifier(config.rule, encoder.layout());
  std::map<RecordId, const Record*> query_by_id;
  for (const Record& q : queries) query_by_id[q.id] = &q;
  for (const IdPair& pair : pairs) {
    ASSERT_TRUE(live.contains(pair.a_id)) << "dead record " << pair.a_id;
    ASSERT_TRUE(query_by_id.contains(pair.b_id));
    Result<EncodedRecord> a = encoder.Encode(live.at(pair.a_id));
    Result<EncodedRecord> b = encoder.Encode(*query_by_id.at(pair.b_id));
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_TRUE(classifier(a.value().bits, b.value().bits))
        << "pair (" << pair.a_id << ", " << pair.b_id << ")";
  }
}

std::vector<Record> Values(const std::map<RecordId, Record>& live) {
  std::vector<Record> out;
  for (const auto& [id, record] : live) out.push_back(record);
  return out;
}

TEST(ServiceDifferentialTest, ConfigsCoverBothComparePaths) {
  // The PL conjunction takes the per-pair path; the one-attribute rule
  // reduces to a whole-record threshold and takes the batch kernel.
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  const std::vector<CbvHbConfig> configs =
      DifferentialConfigs(gen.value().schema());
  for (size_t c = 0; c < configs.size(); ++c) {
    Result<std::unique_ptr<LinkageService>> service =
        LinkageService::Create(configs[c]);
    ASSERT_TRUE(service.ok());
    const CVectorRecordEncoder& encoder = service.value()->encoder();
    const PairClassifier classifier =
        MakeRuleClassifier(configs[c].rule, encoder.layout());
    size_t theta = 0;
    EXPECT_EQ(classifier.AsWholeRecordThreshold(encoder.total_bits(), &theta),
              c == 1);
  }
}

TEST(ServiceDifferentialTest, ServedPairsEqualOfflineMatcher) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  const std::vector<Record> full_registry =
      GenerateRecords(gen.value(), 240, 21);
  const std::vector<Record> full_queries =
      DifferentialQueries(gen.value(), full_registry);
  // The served pairs after the Delete/Update mix and before Compact(),
  // per config, captured at commit 467772e, whose tables held RecordIds.
  const uint64_t kMixedDigests[] = {0x54a366c90ca7b746ULL,
                                    0xef986af97933213aULL};
  const std::vector<CbvHbConfig> configs =
      DifferentialConfigs(gen.value().schema());
  for (size_t c = 0; c < configs.size(); ++c) {
    const CbvHbConfig& config = configs[c];
    const std::vector<Record> registry = Project(full_registry, config.schema);
    const std::vector<Record> queries = Project(full_queries, config.schema);
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      SCOPED_TRACE(testing::Message() << "rule " << config.rule.ToString()
                                      << ", threads " << threads);
      ThreadPool pool(threads);
      LinkageServiceOptions options;
      options.execution = ExecutionOptions::WithThreads(threads);
      Result<std::unique_ptr<LinkageService>> created =
          LinkageService::Create(config, options);
      ASSERT_TRUE(created.ok());
      LinkageService& service = *created.value();
      ASSERT_TRUE(service.InsertBatch(registry).ok());
      std::map<RecordId, Record> live;
      for (const Record& r : registry) live[r.id] = r;

      // Fresh.
      const std::vector<IdPair> fresh = ServedPairs(service, queries);
      EXPECT_FALSE(fresh.empty());
      EXPECT_EQ(fresh, OfflinePairs(config, Values(live), queries, &pool));

      // A Delete/Update mix, then Compact(): the compacted epoch is a
      // fresh build of the live set.
      for (size_t i = 0; i < registry.size(); i += 5) {
        ASSERT_TRUE(service.Delete(registry[i].id).ok());
        live.erase(registry[i].id);
      }
      for (size_t i = 2; i < registry.size(); i += 7) {
        if (!live.contains(registry[i].id)) continue;
        Record updated = registry[(i * 3) % registry.size()];
        updated.id = registry[i].id;
        ASSERT_TRUE(service.Update(updated).ok());
        live[updated.id] = updated;
      }
      // Before Compact(): each update re-indexed its record under the
      // store slot it resurrected in place, and the old buckets still name
      // that slot.  So the served pairs hold every offline pair, may hold
      // more (old buckets), and each satisfies the rule on live vectors.
      const std::vector<IdPair> mixed = ServedPairs(service, queries);
      const std::vector<IdPair> offline =
          OfflinePairs(config, Values(live), queries, &pool);
      EXPECT_TRUE(std::includes(mixed.begin(), mixed.end(), offline.begin(),
                                offline.end()));
      ExpectPairsSatisfyRule(service, config, live, queries, mixed);
      EXPECT_EQ(PairsDigest(mixed), kMixedDigests[c])
          << std::hex << PairsDigest(mixed);
      ASSERT_TRUE(service.Compact().ok());
      const std::vector<IdPair> compacted = ServedPairs(service, queries);
      EXPECT_EQ(compacted,
                OfflinePairs(config, Values(live), queries, &pool));

      // Snapshot to disk and back.
      const std::string path = UniqueTempPath("differential.cbvs");
      ASSERT_TRUE(service.SaveSnapshotToFile(path).ok());
      Result<std::unique_ptr<LinkageService>> restored =
          LinkageService::RestoreFromFile(path);
      ASSERT_TRUE(restored.ok()) << restored.status().ToString();
      EXPECT_EQ(ServedPairs(*restored.value(), queries), compacted);
    }
  }
}

// Concurrent Insert and Match, with Compact() publishing epochs under
// both (the TSan drill for the epoch engine): every inserted record must
// be findable afterwards, and the final state must equal the offline
// engine over the same records.
TEST(ServiceDifferentialTest, ConcurrentInsertMatchCompact) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  const CbvHbConfig config = BaseConfig(gen.value().schema());
  LinkageServiceOptions options;
  options.execution = ExecutionOptions::WithThreads(2);
  Result<std::unique_ptr<LinkageService>> created =
      LinkageService::Create(config, options);
  ASSERT_TRUE(created.ok());
  LinkageService& service = *created.value();
  const std::vector<Record> records = GenerateRecords(gen.value(), 200, 23);

  constexpr size_t kWriters = 4;
  std::atomic<bool> writing{true};
  std::atomic<size_t> writers_left{kWriters};
  std::atomic<uint64_t> observed{0};
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (size_t i = w; i < records.size(); i += kWriters) {
        EXPECT_TRUE(service.Insert(records[i]).ok());
      }
      if (--writers_left == 0) writing = false;
    });
  }
  for (size_t r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      size_t probe = r;
      while (writing) {
        Record query = records[probe % records.size()];
        query.id = 50000 + probe;
        std::vector<IdPair> out;
        EXPECT_TRUE(service.Match(query, &out).ok());
        observed += out.size();
        ++probe;
      }
    });
  }
  threads.emplace_back([&] {
    while (writing) EXPECT_TRUE(service.Compact().ok());
  });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(service.size(), records.size());
  for (const Record& r : records) {
    Record query = r;
    query.id = 90000 + r.id;
    std::vector<IdPair> out;
    ASSERT_TRUE(service.Match(query, &out).ok());
    EXPECT_TRUE(std::find(out.begin(), out.end(), IdPair{r.id, query.id}) !=
                out.end())
        << "record " << r.id << " not findable by its own fields";
  }
  ASSERT_TRUE(service.Compact().ok());
  const std::vector<Record> queries =
      DifferentialQueries(gen.value(), records);
  EXPECT_EQ(ServedPairs(service, queries),
            OfflinePairs(config, records, queries, nullptr));
}

}  // namespace
}  // namespace cbvlink
