#include "cbvbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <span>
#include <thread>

#include "src/common/str.h"
#include "src/datagen/generators.h"
#include "src/io/serialization.h"
#include "src/text/normalize.h"
#include "src/text/qgram.h"

namespace cbvbench {

using cbvlink::Rule;
using cbvlink::Status;

uint64_t NowNs() {
  static const auto origin = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin)
          .count());
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::Percentile(double q) {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double rank = std::ceil(q * static_cast<double>(values_.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values_[std::min(index, values_.size() - 1)];
}

void MetricTable::Set(const std::string& name, double value,
                      const std::string& unit, uint64_t samples) {
  for (auto& [key, metric] : entries_) {
    if (key == name) {
      metric = Metric{value, unit, samples};
      return;
    }
  }
  entries_.emplace_back(name, Metric{value, unit, samples});
}

const Metric* MetricTable::Find(const std::string& name) const {
  for (const auto& [key, metric] : entries_) {
    if (key == name) return &metric;
  }
  return nullptr;
}

uint64_t SpanRecorder::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanRecorder::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

Status SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const Span& span : spans_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += cbvlink::StrFormat(
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
        "\"request\":%llu}}",
        span.name.c_str(), span.thread,
        static_cast<double>(span.start_ns) / 1e3,
        static_cast<double>(span.end_ns - span.start_ns) / 1e3,
        static_cast<unsigned long long>(span.id),
        static_cast<unsigned long long>(span.parent),
        static_cast<unsigned long long>(span.request));
  }
  out += "\n],\"displayTimeUnit\":\"ns\"}\n";
  return cbvlink::WriteFileAtomically(path, out);
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const char* name,
                       uint64_t parent, uint64_t request)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  span_.name = name;
  span_.id = recorder_->NextId();
  span_.parent = parent;
  span_.request = request;
  span_.thread = static_cast<uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffff);
  span_.start_ns = NowNs();
}

void ScopedSpan::End() {
  if (recorder_ == nullptr || !open_) return;
  open_ = false;
  span_.end_ns = NowNs();
  recorder_->Record(std::move(span_));
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},          {"peak_rss_mb", "MiB"},
      {"throughput_per_s", "1/s"}, {"op_p50_us", "us"},
      {"op_p99_us", "us"},       {"recall", "ratio"},
      {"precision", "ratio"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"text.qgram_ns_per_record", "ns"},
      {"embedding.encode_ns_per_record", "ns"},
      {"embedding.encode_us", "us"},
      {"blocking.build_s", "s"},
      {"blocking.collect_s", "s"},
      {"blocking.match_s", "s"},
      {"blocking.candidates_per_query", "count"},
      {"blocking.comparisons_per_query", "count"},
      {"blocking.dedup_ratio", "ratio"},
      {"blocking.match_yield", "ratio"},
      {"lsh.groups", "count"},
      {"lsh.max_bucket", "count"},
      {"hamming.comparisons", "count"},
      {"hamming.bytes_compared", "B"},
      {"linkage.wall_s", "s"},
      {"linkage.embed_s", "s"},
      {"linkage.index_s", "s"},
      {"linkage.match_s", "s"},
      {"linkage.unattributed_s", "s"},
      {"service.match_p50_us", "us"},
      {"service.match_p99_us", "us"},
      {"service.insert_us", "us"},
      {"service.update_us", "us"},
      {"service.delete_us", "us"},
      {"service.insert_batch_s", "s"},
      {"service.candidates_per_query", "count"},
      {"service.comparisons_per_query", "count"},
      {"service.match_yield", "ratio"},
      {"service.scan_fallbacks", "count"},
      {"service.compactions", "count"},
      {"service.compact_ms", "ms"},
      {"net.wire_us", "us"},
      {"net.queue_us", "us"},
      {"net.server_total_us", "us"},
      {"net.client_gap_us", "us"},
      {"net.shed", "count"},
      {"net.deadline_exceeded", "count"},
      {"net.reconnects", "count"},
      {"io.journal_append_us", "us"},
      {"io.journal_bytes_per_op", "B"},
      {"io.snapshot_load_s", "s"},
      {"io.replay_s", "s"},
      {"telemetry.trace_overhead", "ratio"},
  };
  return kMetrics;
}

void DeclarePerLayer(MetricTable* table) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    table->Set(name, 0, unit, 0);
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t PairDigest(std::vector<IdPair> pairs) {
  std::sort(pairs.begin(), pairs.end());
  uint64_t hash = 0xcbf29ce484222325ULL;
  auto mix = [&hash](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  mix(pairs.size());
  for (const IdPair& pair : pairs) {
    mix(pair.a_id);
    mix(pair.b_id);
  }
  return hash;
}

std::string Hex(uint64_t value) {
  return cbvlink::StrFormat("%016llx", static_cast<unsigned long long>(value));
}

namespace {

/// Table 3's average bigram counts b^(f_i) for NCVR, which the generator
/// is calibrated to.  Fixing them (instead of estimating them from a
/// sample of each seed's data) keeps vector sizes and L identical across
/// workload seeds, so a seed changes the data and not the configuration.
std::vector<double> NcvrTable3QGrams() {
  const cbvlink::NcvrTargets targets;
  return {targets.first_name_b, targets.last_name_b, targets.address_b,
          targets.town_b};
}

}  // namespace

cbvlink::CbvHbConfig PlConfig(const cbvlink::Schema& schema) {
  cbvlink::CbvHbConfig config;
  config.schema = schema;
  config.seed = kPipelineSeed;
  config.expected_qgrams = NcvrTable3QGrams();
  config.rule = Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4),
                           Rule::Pred(2, 4), Rule::Pred(3, 4)});
  config.attribute_level_blocking = false;
  config.record_K = 30;
  config.record_theta = 4;
  config.delta = 0.1;
  return config;
}

cbvlink::CbvHbConfig PhConfig(const cbvlink::Schema& schema) {
  cbvlink::CbvHbConfig config;
  config.schema = schema;
  config.seed = kPipelineSeed;
  config.expected_qgrams = NcvrTable3QGrams();
  config.rule =
      Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4), Rule::Pred(2, 8)});
  config.attribute_level_blocking = true;
  config.attribute_K = {5, 5, 10, 5};
  config.delta = 0.1;
  return config;
}

size_t ScalarRangeDistance(const cbvlink::BitVector& a,
                           const cbvlink::BitVector& b, size_t offset,
                           size_t length) {
  size_t distance = 0;
  for (size_t i = offset; i < offset + length; ++i) {
    distance += a.Test(i) != b.Test(i) ? 1 : 0;
  }
  return distance;
}

bool RuleHoldsScalar(const Rule& rule, const cbvlink::RecordLayout& layout,
                     const cbvlink::BitVector& a,
                     const cbvlink::BitVector& b) {
  return rule.Evaluate([&](size_t attribute) {
    const cbvlink::RecordLayout::Segment& segment = layout.segment(attribute);
    return ScalarRangeDistance(a, b, segment.offset, segment.size);
  });
}

void ProbeCollectAndMatch(const cbvlink::CandidateSource& source,
                          const cbvlink::VectorStore& store_a,
                          const std::vector<cbvlink::EncodedRecord>& probes,
                          const cbvlink::PairClassifier& classifier,
                          cbvlink::ThreadPool* pool, SpanRecorder* spans,
                          BlockingLayer* layer) {
  {
    ScopedSpan span(spans, "blocking.collect");
    std::mutex mu;
    const uint64_t start = NowNs();
    pool->ParallelFor(probes.size(), [&](size_t, size_t begin, size_t end) {
      uint64_t widest = 0;
      for (size_t i = begin; i < end; ++i) {
        uint64_t count = 0;
        source.ForEachCandidateSpan(
            probes[i].bits,
            [&count](std::span<const RecordId> ids) { count += ids.size(); });
        widest = std::max(widest, count);
      }
      std::lock_guard<std::mutex> lock(mu);
      layer->max_probe_candidates =
          std::max(layer->max_probe_candidates, widest);
    });
    layer->collect_s = SecondsSince(start);
  }
  ScopedSpan span(spans, "blocking.match");
  const uint64_t start = NowNs();
  cbvlink::Matcher matcher(&source, &store_a);
  layer->stats = cbvlink::MatchStats{};
  layer->pairs = matcher.MatchAll(probes, classifier, &layer->stats, pool);
  layer->match_s = SecondsSince(start);
}

void SetBlockingMetrics(const BlockingLayer& layer, size_t num_probes,
                        size_t groups, size_t max_bucket,
                        size_t words_per_record, MetricTable* table) {
  const cbvlink::MatchStats& stats = layer.stats;
  const double probes = static_cast<double>(num_probes);
  auto ratio = [](uint64_t num, uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  table->Set("blocking.build_s", layer.build_s, "s", 1);
  table->Set("blocking.collect_s", layer.collect_s, "s", 1);
  table->Set("blocking.match_s", layer.match_s, "s", 1);
  table->Set("blocking.candidates_per_query",
             static_cast<double>(stats.candidate_occurrences) / probes,
             "count", num_probes);
  table->Set("blocking.comparisons_per_query",
             static_cast<double>(stats.comparisons) / probes, "count",
             num_probes);
  table->Set("blocking.dedup_ratio",
             ratio(stats.dedup_skipped, stats.candidate_occurrences), "ratio",
             stats.candidate_occurrences);
  table->Set("blocking.match_yield", ratio(stats.matches, stats.comparisons),
             "ratio", stats.comparisons);
  table->Set("lsh.groups", static_cast<double>(groups), "count", 1);
  table->Set("lsh.max_bucket", static_cast<double>(max_bucket), "count", 1);
  table->Set("hamming.comparisons", static_cast<double>(stats.comparisons),
             "count", 1);
  table->Set("hamming.bytes_compared",
             static_cast<double>(stats.comparisons) *
                 static_cast<double>(words_per_record) * 8.0,
             "B", 1);
}

std::vector<cbvlink::EncodedRecord> MeasureTextAndEmbedding(
    const cbvlink::CVectorRecordEncoder& encoder,
    const std::vector<Record>& records, size_t encode_samples,
    cbvlink::ThreadPool* pool, SpanRecorder* spans, MetricTable* table) {
  const cbvlink::Schema& schema = encoder.schema();
  std::vector<cbvlink::QGramExtractor> extractors;
  for (const cbvlink::AttributeSpec& spec : schema.attributes) {
    cbvlink::Result<cbvlink::QGramExtractor> extractor =
        cbvlink::QGramExtractor::Create(*spec.alphabet, spec.qgram);
    if (!extractor.ok()) return {};
    extractors.push_back(std::move(extractor).value());
  }
  const double n = static_cast<double>(records.size());
  {
    ScopedSpan span(spans, "text.normalize_qgram");
    std::atomic<uint64_t> grams{0};
    const uint64_t start = NowNs();
    pool->ParallelFor(records.size(), [&](size_t, size_t begin, size_t end) {
      uint64_t local = 0;
      for (size_t i = begin; i < end; ++i) {
        for (size_t f = 0; f < extractors.size(); ++f) {
          const std::string normalized = cbvlink::Normalize(
              records[i].fields[f], *schema.attributes[f].alphabet);
          local += extractors[f].IndexSet(normalized).size();
        }
      }
      grams += local;
    });
    table->Set("text.qgram_ns_per_record",
               static_cast<double>(NowNs() - start) / n, "ns",
               records.size());
    if (grams.load() == 0) return {};
  }
  std::vector<cbvlink::EncodedRecord> encoded;
  {
    ScopedSpan span(spans, "embedding.encode_all");
    const uint64_t start = NowNs();
    cbvlink::Result<std::vector<cbvlink::EncodedRecord>> all =
        encoder.EncodeAll(records, pool);
    if (!all.ok()) return {};
    encoded = std::move(all).value();
    table->Set("embedding.encode_ns_per_record",
               static_cast<double>(NowNs() - start) / n, "ns",
               records.size());
  }
  Samples encode_us;
  const size_t count = std::min(encode_samples, records.size());
  for (size_t i = 0; i < count; ++i) {
    ScopedSpan span(spans, "embedding.encode", 0, i + 1);
    const uint64_t start = NowNs();
    cbvlink::Result<cbvlink::EncodedRecord> one = encoder.Encode(records[i]);
    encode_us.Add(static_cast<double>(NowNs() - start) / 1e3);
    if (!one.ok()) return {};
  }
  table->Set("embedding.encode_us", encode_us.Median(), "us",
             encode_us.size());
  return encoded;
}

}  // namespace cbvbench
