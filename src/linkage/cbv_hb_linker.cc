#include "src/linkage/cbv_hb_linker.h"

#include <algorithm>

#include "src/common/stopwatch.h"
#include "src/common/str.h"
#include "src/common/thread_pool.h"

namespace cbvlink {

Status ValidateCbvHbConfig(const CbvHbConfig& config) {
  if (config.schema.num_attributes() == 0) {
    return Status::InvalidArgument("schema has no attributes");
  }
  CBVLINK_RETURN_NOT_OK(config.rule.Validate(config.schema.num_attributes()));
  if (config.attribute_level_blocking &&
      config.attribute_K.size() != config.schema.num_attributes()) {
    return Status::InvalidArgument(
        StrFormat("attribute-level blocking needs %zu K values, got %zu",
                  config.schema.num_attributes(),
                  config.attribute_K.size()));
  }
  if (!config.expected_qgrams.empty() &&
      config.expected_qgrams.size() != config.schema.num_attributes()) {
    return Status::InvalidArgument("expected_qgrams size mismatch");
  }
  return Status::OK();
}

const CandidateSource& CbvHbParts::source() const {
  return std::visit(
      [](const auto& b) -> const CandidateSource& { return b; }, blocker);
}

size_t CbvHbParts::blocking_groups() const {
  if (const auto* record = std::get_if<RecordLevelBlocker>(&blocker)) {
    return record->L();
  }
  const auto& attribute = std::get<AttributeLevelBlocker>(blocker);
  size_t groups = 0;
  for (size_t s = 0; s < attribute.num_structures(); ++s) {
    groups += attribute.structure_L(s);
  }
  return groups;
}

void CbvHbParts::Insert(const EncodedRecord& record, uint32_t slot) {
  std::visit([&](auto& b) { b.Insert(record, slot); }, blocker);
}

void CbvHbParts::BulkInsert(std::span<const EncodedRecord> records,
                            ThreadPool* pool, size_t min_chunk) {
  std::visit([&](auto& b) { b.BulkInsert(records, pool, min_chunk); },
             blocker);
}

Result<CbvHbParts> BuildCbvHbParts(const CbvHbConfig& config,
                                   const std::vector<double>& expected_qgrams,
                                   Rng& rng) {
  CBVLINK_RETURN_NOT_OK(ValidateCbvHbConfig(config));
  // The draw order — encoder, then the blocker's LSH families — is part
  // of what a seed means: LinkageService::Restore rebuilds a service's
  // encoder and blocking keys from the persisted seed alone.
  Result<CVectorRecordEncoder> encoder = CVectorRecordEncoder::Create(
      config.schema, expected_qgrams, rng, config.sizing);
  if (!encoder.ok()) return encoder.status();
  const RecordLayout& layout = encoder.value().layout();
  PairClassifier classifier = MakeRuleClassifier(config.rule, layout);
  if (config.attribute_level_blocking) {
    AttributeBlockerOptions options;
    options.attribute_K = config.attribute_K;
    options.delta = config.delta;
    Result<AttributeLevelBlocker> blocker =
        AttributeLevelBlocker::Create(config.rule, layout, options, rng);
    if (!blocker.ok()) return blocker.status();
    return CbvHbParts{std::move(encoder).value(), std::move(blocker).value(),
                      std::move(classifier)};
  }
  Result<RecordLevelBlocker> blocker =
      RecordLevelBlocker::Create(encoder.value().total_bits(), config.record_K,
                                 config.record_theta, config.delta, rng);
  if (!blocker.ok()) return blocker.status();
  return CbvHbParts{std::move(encoder).value(), std::move(blocker).value(),
                    std::move(classifier)};
}

Result<CbvHbLinker> CbvHbLinker::Create(CbvHbConfig config) {
  CBVLINK_RETURN_NOT_OK(ValidateCbvHbConfig(config));
  return CbvHbLinker(std::move(config));
}

Result<LinkageResult> CbvHbLinker::Link(const std::vector<Record>& a,
                                        const std::vector<Record>& b,
                                        const ExecutionOptions& options) {
  Rng rng(config_.seed);
  LinkageResult result;
  Stopwatch watch;

  // One execution context for every parallel stage (embedding, index
  // build, matching); pool() is null when the run resolves serial.
  ExecutionContext ctx(options);
  result.threads_used = ctx.threads_used();

  // --- Embedding ---------------------------------------------------------
  std::vector<double> expected = config_.expected_qgrams;
  if (expected.empty()) {
    if (a.empty()) {
      // The sizing estimate has nothing to sample from; an empty sample
      // would silently produce degenerate vector sizes.
      return Status::InvalidArgument(
          "data set A is empty; provide expected_qgrams");
    }
    // Charlie samples the records to estimate b^(f_i) (Section 5.2).
    std::vector<Record> sample;
    const size_t n = std::min(config_.estimation_sample, a.size());
    sample.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      sample.push_back(a[a.size() <= config_.estimation_sample
                             ? i
                             : rng.Below(a.size())]);
    }
    expected = EstimateExpectedQGrams(config_.schema, sample);
  }

  Result<CbvHbParts> built = BuildCbvHbParts(config_, expected, rng);
  if (!built.ok()) return built.status();
  CbvHbParts& parts = built.value();
  // The linker keeps the encoder for encoder() introspection.
  encoder_.emplace(std::move(parts.encoder));

  // Embedding is embarrassingly parallel over records; EncodeAll shards
  // both data sets over the context's pool (byte-identical to serial).
  Result<std::vector<EncodedRecord>> encoded_a_result =
      encoder_->EncodeAll(a, ctx.pool(), ctx.chunk_size_hint());
  if (!encoded_a_result.ok()) return encoded_a_result.status();
  std::vector<EncodedRecord> encoded_a = std::move(encoded_a_result).value();
  Result<std::vector<EncodedRecord>> encoded_b_result =
      encoder_->EncodeAll(b, ctx.pool(), ctx.chunk_size_hint());
  if (!encoded_b_result.ok()) return encoded_b_result.status();
  std::vector<EncodedRecord> encoded_b = std::move(encoded_b_result).value();
  result.embed_seconds = watch.ElapsedSeconds();

  // --- Blocking ----------------------------------------------------------
  watch.Restart();
  // The blocker numbers A's records by position, so a repeated id (which
  // the store keeps once) would point a slot at the wrong vector.
  VectorStore store_a;
  CBVLINK_RETURN_NOT_OK(store_a.AddAll(encoded_a));
  parts.BulkInsert(encoded_a, ctx.pool(), ctx.chunk_size_hint());
  result.blocking_groups = parts.blocking_groups();
  result.index_seconds = watch.ElapsedSeconds();

  // --- Matching (Algorithm 2) --------------------------------------------
  watch.Restart();
  Matcher matcher(&parts.source(), &store_a);
  result.matches =
      matcher.MatchAll(encoded_b, parts.classifier, &result.stats, ctx.pool());
  result.match_seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace cbvlink
