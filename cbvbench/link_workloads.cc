// link_pl and link_ph: the paper's offline pipelines through
// CbvHbLinker::Link on a pool.
//
// link_pl is record-level HB under the PL perturbation (embed, build and
// match each take a fifth to a half of a Link() call; the index outgrows
// L2).  link_ph is the Section 5.4 attribute-level rule-aware blocking
// under PH (collection and classification dominate; embedding is a few
// percent).  An embedding change should move link_pl and leave link_ph
// flat; a blocking change shows most on link_ph.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "cbvbench/harness.h"
#include "src/blocking/attribute_blocker.h"
#include "src/blocking/record_blocker.h"
#include "src/common/random.h"
#include "src/common/str.h"
#include "src/datagen/dataset.h"
#include "src/datagen/generators.h"

namespace cbvbench {
namespace {

using cbvlink::CbvHbConfig;
using cbvlink::CbvHbLinker;
using cbvlink::EncodedRecord;
using cbvlink::ExecutionOptions;
using cbvlink::LinkageResult;
using cbvlink::Result;
using cbvlink::StrFormat;
using cbvlink::ThreadPool;

constexpr size_t kPlRecordsPerSide = 200000;
constexpr size_t kPhRecordsPerSide = 20000;
/// Set-up is microseconds here, so it is repeated to get a stable median.
constexpr size_t kSetupReps = 200;
/// Fewest timed Link() calls per run, however long each takes.
constexpr size_t kMinLinkReps = 3;

uint64_t PairKey(const IdPair& pair) { return (pair.a_id << 32) | pair.b_id; }

/// Re-verifies every reported pair with scalar per-attribute distances,
/// and that no pair repeats.  Returns the number of bad pairs.
size_t CountBadPairs(const LinkageResult& result, const CbvHbConfig& config,
                     const cbvlink::CVectorRecordEncoder& encoder,
                     const std::vector<Record>& a,
                     const std::vector<Record>& b, ThreadPool* pool) {
  Result<std::vector<EncodedRecord>> ea = encoder.EncodeAll(a, pool);
  Result<std::vector<EncodedRecord>> eb = encoder.EncodeAll(b, pool);
  if (!ea.ok() || !eb.ok()) return result.matches.size() + 1;
  std::unordered_map<RecordId, size_t> a_index;
  std::unordered_map<RecordId, size_t> b_index;
  for (size_t i = 0; i < a.size(); ++i) a_index[a[i].id] = i;
  for (size_t i = 0; i < b.size(); ++i) b_index[b[i].id] = i;
  std::unordered_set<uint64_t> seen;
  size_t bad = 0;
  for (const IdPair& pair : result.matches) {
    auto ai = a_index.find(pair.a_id);
    auto bi = b_index.find(pair.b_id);
    if (ai == a_index.end() || bi == b_index.end() ||
        !seen.insert(PairKey(pair)).second ||
        !RuleHoldsScalar(config.rule, encoder.layout(),
                         ea.value()[ai->second].bits,
                         eb.value()[bi->second].bits)) {
      ++bad;
    }
  }
  return bad;
}

/// The traced pass: one Link() call under a span, then the same
/// pipeline rebuilt from outside through public functions with the same
/// RNG sequence Link() draws (sample, encoder, blocker), so each layer is
/// timed on its own and its output can be compared with Link()'s.
void TraceLayers(const RunConfig& run, const CbvHbConfig& config,
                 CbvHbLinker* linker, const cbvlink::LinkagePair& data,
                 ThreadPool* pool, double untraced_wall_s,
                 uint64_t link_digest, RunResult* out) {
  SpanRecorder* spans = run.spans;
  MetricTable& layers = out->per_layer;
  const std::vector<Record>& a = data.a;
  const std::vector<Record>& b = data.b;

  double wall = 0;
  LinkageResult link;
  {
    ScopedSpan span(spans, "linkage.Link", 0, 1);
    const uint64_t start = NowNs();
    Result<LinkageResult> result =
        linker->Link(a, b, ExecutionOptions::WithPool(pool));
    wall = SecondsSince(start);
    if (result.ok()) link = std::move(result).value();
    out->checks.push_back({"traced Link() succeeds", result.ok(),
                           result.ok() ? "" : result.status().ToString()});
  }
  layers.Set("linkage.wall_s", wall, "s", 1);
  layers.Set("linkage.embed_s", link.embed_seconds, "s", 1);
  layers.Set("linkage.index_s", link.index_seconds, "s", 1);
  layers.Set("linkage.match_s", link.match_seconds, "s", 1);
  layers.Set("linkage.unattributed_s", wall - link.total_seconds(), "s", 1);
  layers.Set("telemetry.trace_overhead", wall / untraced_wall_s - 1.0, "ratio",
             1);

  // Same draws as CbvHbLinker::Link: (estimation sample,) encoder,
  // blocker.
  cbvlink::Rng rng(config.seed);
  std::vector<double> expected = config.expected_qgrams;
  if (expected.empty()) {
    std::vector<Record> sample;
    const size_t n = std::min(config.estimation_sample, a.size());
    for (size_t i = 0; i < n; ++i) {
      sample.push_back(
          a[a.size() <= config.estimation_sample ? i : rng.Below(a.size())]);
    }
    expected = cbvlink::EstimateExpectedQGrams(config.schema, sample);
  }
  Result<cbvlink::CVectorRecordEncoder> encoder =
      cbvlink::CVectorRecordEncoder::Create(config.schema, expected, rng,
                                            config.sizing);
  if (!encoder.ok()) {
    out->checks.push_back({"external encoder", false,
                           encoder.status().ToString()});
    return;
  }
  std::vector<Record> both = a;
  both.insert(both.end(), b.begin(), b.end());
  std::vector<EncodedRecord> encoded = MeasureTextAndEmbedding(
      encoder.value(), both, kEncodeLatencySamples, pool, spans, &layers);
  if (encoded.size() != both.size()) {
    out->checks.push_back({"external embedding", false, "encode failed"});
    return;
  }
  const std::vector<EncodedRecord> ea(encoded.begin(),
                                      encoded.begin() + a.size());
  const std::vector<EncodedRecord> eb(encoded.begin() + a.size(),
                                      encoded.end());

  BlockingLayer layer;
  std::optional<cbvlink::RecordLevelBlocker> record_blocker;
  std::optional<cbvlink::AttributeLevelBlocker> attribute_blocker;
  const cbvlink::CandidateSource* source = nullptr;
  cbvlink::VectorStore store_a;
  size_t groups = 0;
  size_t max_bucket = 0;
  {
    ScopedSpan span(spans, "blocking.build");
    const uint64_t start = NowNs();
    if (config.attribute_level_blocking) {
      cbvlink::AttributeBlockerOptions options;
      options.attribute_K = config.attribute_K;
      options.delta = config.delta;
      Result<cbvlink::AttributeLevelBlocker> blocker =
          cbvlink::AttributeLevelBlocker::Create(
              config.rule, encoder.value().layout(), options, rng);
      if (!blocker.ok()) return;
      attribute_blocker.emplace(std::move(blocker).value());
      attribute_blocker->BulkInsert(ea, pool);
      for (size_t s = 0; s < attribute_blocker->num_structures(); ++s) {
        groups += attribute_blocker->structure_L(s);
      }
      source = &*attribute_blocker;
    } else {
      Result<cbvlink::RecordLevelBlocker> blocker =
          cbvlink::RecordLevelBlocker::Create(
              encoder.value().total_bits(), config.record_K,
              config.record_theta, config.delta, rng);
      if (!blocker.ok()) return;
      record_blocker.emplace(std::move(blocker).value());
      record_blocker->BulkInsert(ea, pool);
      groups = record_blocker->L();
      max_bucket = record_blocker->MaxBucketSize();
      source = &*record_blocker;
    }
    store_a.AddAll(ea);
    layer.build_s = SecondsSince(start);
  }
  const cbvlink::PairClassifier classifier =
      cbvlink::MakeRuleClassifier(config.rule, encoder.value().layout());
  ProbeCollectAndMatch(*source, store_a, eb, classifier, pool, spans, &layer);
  // Attribute-level tables expose no bucket sizes; there the largest
  // candidate list one probe received stands in for the largest bucket.
  if (config.attribute_level_blocking) max_bucket = layer.max_probe_candidates;
  SetBlockingMetrics(layer, eb.size(), groups, max_bucket,
                     store_a.words_per_record(), &layers);

  // The service cannot host attribute-level blocking, so only the
  // record-level configuration also measures the served layers.
  if (!config.attribute_level_blocking) {
    MeasureServedLayers(config, a, b, run, out);
  }

  const uint64_t external_digest = PairDigest(layer.pairs);
  out->checks.push_back(
      {"layer-by-layer pipeline reproduces Link() pairs",
       external_digest == link_digest && groups == link.blocking_groups &&
           layer.stats.comparisons == link.stats.comparisons,
       StrFormat("external %s vs Link %s", Hex(external_digest).c_str(),
                 Hex(link_digest).c_str())});
}

}  // namespace

RunResult RunLinkWorkload(const RunConfig& run, bool heavy) {
  RunResult out;
  const size_t per_side = heavy ? kPhRecordsPerSide : kPlRecordsPerSide;

  // --- Inputs (generated before any timing) -----------------------------
  Result<cbvlink::NcvrGenerator> generator = cbvlink::NcvrGenerator::Create();
  if (!generator.ok()) {
    out.checks.push_back({"generator", false, generator.status().ToString()});
    return out;
  }
  cbvlink::LinkagePairOptions data_options;
  data_options.num_records = per_side;
  data_options.seed = run.seed;
  Result<cbvlink::LinkagePair> data = cbvlink::BuildLinkagePair(
      generator.value(),
      heavy ? cbvlink::PerturbationScheme::Heavy(4)
            : cbvlink::PerturbationScheme::Light(),
      data_options);
  if (!data.ok()) {
    out.checks.push_back({"dataset", false, data.status().ToString()});
    return out;
  }
  const std::vector<Record>& a = data.value().a;
  const std::vector<Record>& b = data.value().b;
  const CbvHbConfig config = heavy ? PhConfig(generator.value().schema())
                                   : PlConfig(generator.value().schema());

  out.provenance.emplace_back("records_per_side", std::to_string(per_side));
  out.provenance.emplace_back("perturbation", heavy ? "PH" : "PL");
  out.provenance.emplace_back(
      "blocking", heavy ? "attribute-level rule C1 (Sec. 5.4)"
                        : "record-level HB K=30 theta=4 delta=0.1");
  out.provenance.emplace_back("pool_threads",
                              std::to_string(run.pool_threads));

  // --- Set-up: the pool and the linker, repeated for a stable median ----
  Samples setup_s;
  std::unique_ptr<ThreadPool> pool;
  std::optional<CbvHbLinker> linker;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    pool.reset();
    linker.reset();
    const uint64_t start = NowNs();
    pool = std::make_unique<ThreadPool>(run.pool_threads);
    Result<CbvHbLinker> created = CbvHbLinker::Create(config);
    setup_s.Add(SecondsSince(start));
    if (!created.ok()) {
      out.checks.push_back({"linker", false, created.status().ToString()});
      return out;
    }
    linker.emplace(std::move(created).value());
  }

  // --- Warm-up call, whose output the correctness checks inspect -------
  Result<LinkageResult> first =
      linker->Link(a, b, ExecutionOptions::WithPool(pool.get()));
  if (!first.ok()) {
    out.checks.push_back({"Link()", false, first.status().ToString()});
    return out;
  }
  const uint64_t digest = PairDigest(first.value().matches);

  // --- Timed loop --------------------------------------------------------
  Samples wall_s;
  size_t divergent = 0;
  const uint64_t loop_start = NowNs();
  while (wall_s.size() < kMinLinkReps ||
         SecondsSince(loop_start) < run.seconds) {
    const uint64_t start = NowNs();
    Result<LinkageResult> result =
        linker->Link(a, b, ExecutionOptions::WithPool(pool.get()));
    wall_s.Add(SecondsSince(start));
    std::fprintf(stderr, "cbvbench: Link() %llu took %.3f s\n",
                 static_cast<unsigned long long>(out.attempted),
                 SecondsSince(start));
    ++out.attempted;
    if (!result.ok()) {
      ++out.failed;
    } else if (PairDigest(std::move(result).value().matches) != digest) {
      ++divergent;
    }
  }

  // --- Correctness -------------------------------------------------------
  const LinkageResult& reference = first.value();
  Result<const cbvlink::CVectorRecordEncoder*> encoder = linker->encoder();
  const size_t bad =
      encoder.ok() ? CountBadPairs(reference, config, *encoder.value(), a, b,
                                   pool.get())
                   : reference.matches.size() + 1;
  out.checks.push_back(
      {"every reported pair satisfies the rule (scalar re-verification)",
       bad == 0 && !reference.matches.empty(),
       StrFormat("%zu of %zu pairs fail", bad, reference.matches.size())});
  out.checks.push_back({"every timed Link() returns the same pair set",
                        divergent == 0,
                        StrFormat("%zu divergent calls", divergent)});
  out.provenance.emplace_back("pair_digest", Hex(digest));

  std::unordered_set<uint64_t> truth;
  for (const cbvlink::GroundTruthEntry& entry : data.value().truth) {
    truth.insert(PairKey(entry.pair));
  }
  size_t true_pairs = 0;
  for (const IdPair& pair : reference.matches) {
    true_pairs += truth.count(PairKey(pair));
  }
  const double recall =
      static_cast<double>(true_pairs) / static_cast<double>(truth.size());
  const double precision = static_cast<double>(true_pairs) /
                           static_cast<double>(reference.matches.size());

  // --- End-to-end metrics ------------------------------------------------
  const double records = static_cast<double>(a.size() + b.size());
  const double median_wall = wall_s.Median();
  out.end_to_end.Set("setup_s", setup_s.Median(), "s", setup_s.size());
  out.end_to_end.Set("peak_rss_mb", PeakRssMb(), "MiB", 1);
  out.end_to_end.Set("throughput_per_s", records / median_wall, "1/s",
                     wall_s.size());
  out.end_to_end.Set("op_p50_us", median_wall * 1e6, "us", wall_s.size());
  out.end_to_end.Set("op_p99_us", wall_s.Percentile(0.99) * 1e6, "us",
                     wall_s.size());
  out.end_to_end.Set("recall", recall, "ratio", truth.size());
  out.end_to_end.Set("precision", precision, "ratio",
                     reference.matches.size());
  out.detail.Set("link_rps", records / median_wall, "records/s",
                 wall_s.size());
  out.detail.Set("link_recall", recall, "ratio", truth.size());
  out.detail.Set("link_precision", precision, "ratio",
                 reference.matches.size());
  out.detail.Set("link_wall_s", median_wall, "s", wall_s.size());

  DeclarePerLayer(&out.per_layer);
  if (run.trace) {
    TraceLayers(run, config, &*linker, data.value(), pool.get(), median_wall,
                digest, &out);
  }
  return out;
}

}  // namespace cbvbench
