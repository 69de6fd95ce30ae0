// Tests for the telemetry subsystem: histogram bucket boundaries and
// quantile extraction against known distributions, exact totals under
// concurrent recording, registry handle stability, and golden output
// for the Prometheus / JSON exporters.

#include "src/telemetry/metrics.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/telemetry/exporters.h"
#include "tests/test_paths.h"

namespace cbvlink {
namespace telemetry {
namespace {

// ---------------------------------------------------------------------
// Histogram buckets and quantiles.

TEST(HistogramTest, BucketBoundariesArePowersOfTwo) {
  // Bucket i counts values in (2^(i-1), 2^i]; bucket 0 takes 0 and 1.
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 0u);
  EXPECT_EQ(Histogram::BucketIndex(2), 1u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 2u);
  EXPECT_EQ(Histogram::BucketIndex(5), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 3u);
  EXPECT_EQ(Histogram::BucketIndex(9), 4u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1025), 11u);
  // The last finite bucket and the overflow bucket.
  const uint64_t last = Histogram::UpperBound(Histogram::kFiniteBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(last), Histogram::kFiniteBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(last + 1), Histogram::kFiniteBuckets);
  EXPECT_EQ(Histogram::BucketIndex(UINT64_MAX), Histogram::kFiniteBuckets);
}

TEST(HistogramTest, SnapshotCountSumMaxMean) {
  Registry registry;
  Histogram* h = registry.GetHistogram("h");
  for (const uint64_t v : {3u, 5u, 7u, 9u}) h->Record(v);
  const Histogram::Snapshot snap = h->Snap();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.sum, 24u);
  EXPECT_EQ(snap.max, 9u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 6.0);
}

TEST(HistogramTest, QuantilesOnUniformDistribution) {
  // 1..1000 each once.  Within a bucket the samples are uniform, which
  // is exactly the linear-interpolation model, and the exact max
  // tightens the last bucket's upper bound from 1024 to 1000 — so the
  // extracted quantiles land on the true order statistics.
  Registry registry;
  Histogram* h = registry.GetHistogram("uniform");
  for (uint64_t v = 1; v <= 1000; ++v) h->Record(v);
  const Histogram::Snapshot snap = h->Snap();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_NEAR(snap.Quantile(0.50), 500.0, 5.0);
  EXPECT_NEAR(snap.Quantile(0.90), 900.0, 5.0);
  EXPECT_NEAR(snap.Quantile(0.99), 990.0, 5.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 1000.0);  // q=1 is the exact max
}

TEST(HistogramTest, QuantileBoundedByBucketOfConstantSamples) {
  Registry registry;
  Histogram* h = registry.GetHistogram("constant");
  for (int i = 0; i < 100; ++i) h->Record(100);
  const Histogram::Snapshot snap = h->Snap();
  // 100 lands in bucket (64, 128]; the upper bound is clamped to the
  // exact max, so every quantile stays within [64, 100].
  for (const double q : {0.5, 0.9, 0.99}) {
    EXPECT_GE(snap.Quantile(q), 64.0);
    EXPECT_LE(snap.Quantile(q), 100.0);
  }
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 100.0);
}

TEST(HistogramTest, EmptyHistogramQuantilesAreZero) {
  Registry registry;
  const Histogram::Snapshot snap = registry.GetHistogram("empty")->Snap();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), 0.0);
}

TEST(HistogramTest, OverflowSamplesLandInOverflowBucket) {
  Registry registry;
  Histogram* h = registry.GetHistogram("overflow");
  const uint64_t huge =
      Histogram::UpperBound(Histogram::kFiniteBuckets - 1) * 4;
  h->Record(huge);
  const Histogram::Snapshot snap = h->Snap();
  EXPECT_EQ(snap.buckets[Histogram::kFiniteBuckets], 1u);
  EXPECT_EQ(snap.max, huge);
  // The overflow bucket spans [2^27, max]; quantiles interpolate inside
  // it, with q=1 pinned to the exact max.
  const double lower =
      static_cast<double>(Histogram::UpperBound(Histogram::kFiniteBuckets - 1));
  EXPECT_GE(snap.Quantile(0.5), lower);
  EXPECT_LE(snap.Quantile(0.5), static_cast<double>(huge));
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), static_cast<double>(huge));
}

// ---------------------------------------------------------------------
// Concurrency: totals must be exact once writers join.

TEST(ConcurrencyTest, CounterTotalsExactAcrossThreads) {
  Registry registry;
  Counter* counter = registry.GetCounter("hits");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter->Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
}

TEST(ConcurrencyTest, HistogramTotalsExactAcrossThreads) {
  Registry registry;
  Histogram* h = registry.GetHistogram("latency");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h->Record(static_cast<uint64_t>(t) + 1);  // thread t records t+1
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const Histogram::Snapshot snap = h->Snap();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  // sum = sum_t (t+1) * kPerThread = kPerThread * kThreads*(kThreads+1)/2.
  EXPECT_EQ(snap.sum, kPerThread * kThreads * (kThreads + 1) / 2);
  EXPECT_EQ(snap.max, static_cast<uint64_t>(kThreads));
}

TEST(ConcurrencyTest, RegistryGetRacesYieldOnePointer) {
  Registry registry;
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &seen, t] {
      seen[t] = registry.GetCounter("raced");
      seen[t]->Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(seen[0]->Value(), static_cast<uint64_t>(kThreads));
}

// ---------------------------------------------------------------------
// Registry semantics.

TEST(RegistryTest, HandlesAreStableAndResetZeroesInPlace) {
  Registry registry;
  Counter* counter = registry.GetCounter("c");
  Gauge* gauge = registry.GetGauge("g");
  Histogram* histogram = registry.GetHistogram("h");
  counter->Add(5);
  gauge->Set(2.5);
  histogram->Record(7);

  registry.ResetForTest();
  EXPECT_EQ(registry.GetCounter("c"), counter);  // same object, zeroed
  EXPECT_EQ(counter->Value(), 0u);
  EXPECT_DOUBLE_EQ(gauge->Value(), 0.0);
  EXPECT_EQ(histogram->Snap().count, 0u);
  counter->Add(1);  // old handle still records
  EXPECT_EQ(registry.GetCounter("c")->Value(), 1u);
}

TEST(RegistryTest, CollectIsSortedByName) {
  Registry registry;
  registry.GetCounter("zebra")->Add(1);
  registry.GetCounter("alpha")->Add(2);
  registry.GetGauge("mid")->Set(3);
  const Registry::Snapshot snap = registry.Collect();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "alpha");
  EXPECT_EQ(snap.counters[1].first, "zebra");
  EXPECT_EQ(snap.counters[0].second, 2u);
}

TEST(RegistryTest, MergeSnapshotsInterleavesByNameAndScopedWins) {
  Registry process;
  process.GetCounter("b")->Add(1);
  process.GetCounter("d")->Add(4);
  process.GetGauge("g")->Set(1);
  Registry scoped;
  scoped.GetCounter("a")->Add(10);
  scoped.GetCounter("c")->Add(30);
  scoped.GetCounter("d")->Add(40);
  scoped.GetHistogram("h")->Record(5);
  const Registry::Snapshot merged =
      MergeSnapshots(process.Collect(), scoped.Collect());
  const std::vector<std::pair<std::string, uint64_t>> counters = {
      {"a", 10}, {"b", 1}, {"c", 30}, {"d", 40}};
  EXPECT_EQ(merged.counters, counters);
  ASSERT_EQ(merged.gauges.size(), 1u);
  EXPECT_EQ(merged.gauges[0].first, "g");
  ASSERT_EQ(merged.histograms.size(), 1u);
  EXPECT_EQ(merged.histograms[0].second.count, 1u);
}

TEST(RegistryTest, LabeledNameFormat) {
  EXPECT_EQ(LabeledName("lsh_table_buckets", "table", "3"),
            "lsh_table_buckets{table=\"3\"}");
}

TEST(RegistryTest, ScopedTimerRecordsOneSample) {
  Registry registry;
  Histogram* h = registry.GetHistogram("span_us");
  { ScopedTimer timer(h); }
  EXPECT_EQ(h->Snap().count, 1u);
  { ScopedTimer null_timer(nullptr); }  // must not crash
}

// ---------------------------------------------------------------------
// Exporters.

Registry* GoldenRegistry() {
  auto* registry = new Registry();
  registry->GetCounter("requests_total")->Add(3);
  registry->GetCounter(LabeledName("requests_total", "kind", "insert"))
      ->Add(2);
  registry->GetGauge("records")->Set(42);
  Histogram* h = registry->GetHistogram("latency_us");
  h->Record(1);
  h->Record(3);
  h->Record(3);
  h->Record(100);
  return registry;
}

TEST(ExporterTest, PrometheusTextGolden) {
  std::unique_ptr<Registry> registry(GoldenRegistry());
  const std::string text = ToPrometheusText(registry->Collect());

  // One TYPE line per base name even with labeled variants present.
  EXPECT_NE(text.find("# TYPE requests_total counter\n"), std::string::npos);
  EXPECT_EQ(text.find("# TYPE requests_total counter\n"),
            text.rfind("# TYPE requests_total counter\n"));
  EXPECT_NE(text.find("requests_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("requests_total{kind=\"insert\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE records gauge\nrecords 42\n"),
            std::string::npos);

  // Histogram buckets are cumulative: le=1 has the sample at 1, le=2
  // still 1, le=4 picks up both 3s, +Inf has all four.
  EXPECT_NE(text.find("# TYPE latency_us histogram\n"), std::string::npos);
  EXPECT_NE(text.find("latency_us_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("latency_us_bucket{le=\"2\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("latency_us_bucket{le=\"4\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("latency_us_bucket{le=\"128\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("latency_us_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("latency_us_sum 107\n"), std::string::npos);
  EXPECT_NE(text.find("latency_us_count 4\n"), std::string::npos);
}

TEST(ExporterTest, JsonGolden) {
  std::unique_ptr<Registry> registry(GoldenRegistry());
  const std::string json = ToJson(registry->Collect());

  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"requests_total\": 3"), std::string::npos);
  // The embedded label's quotes must be escaped in the JSON key.
  EXPECT_NE(json.find("\"requests_total{kind=\\\"insert\\\"}\": 2"),
            std::string::npos);
  EXPECT_NE(json.find("\"records\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"latency_us\": {\"count\": 4, \"sum\": 107, "
                      "\"max\": 100"),
            std::string::npos);
  // Zero buckets are omitted; the three occupied ones survive.
  EXPECT_NE(json.find("{\"le\": 1, \"count\": 1}"), std::string::npos);
  EXPECT_NE(json.find("{\"le\": 4, \"count\": 2}"), std::string::npos);
  EXPECT_NE(json.find("{\"le\": 128, \"count\": 1}"), std::string::npos);
  EXPECT_EQ(json.find("{\"le\": 2, \"count\""), std::string::npos);
}

TEST(ExporterTest, EmptyRegistryJsonIsStillAnObject) {
  Registry registry;
  const std::string json = ToJson(registry.Collect());
  EXPECT_NE(json.find("\"counters\": {}"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\": {}"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\": {}"), std::string::npos);
}

TEST(ExporterTest, DumpJsonWritesAtomically) {
  std::unique_ptr<Registry> registry(GoldenRegistry());
  const std::string path =
      UniqueTempPath("telemetry_dump_test.json");
  ASSERT_TRUE(DumpJson(registry->Collect(), path).ok());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str(), ToJson(registry->Collect()));
  // The tmp staging file must not survive the rename commit.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace telemetry
}  // namespace cbvlink
