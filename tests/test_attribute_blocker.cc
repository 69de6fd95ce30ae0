#include "src/blocking/attribute_blocker.h"

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <vector>

#include "src/blocking/matcher.h"
#include "src/common/thread_pool.h"
#include "tests/span_stream.h"

namespace cbvlink {
namespace {

/// NCVR-shaped layout: 15 + 15 + 68 + 22 = 120 bits.
RecordLayout NcvrLayout() {
  RecordLayout layout;
  layout.Add(15);
  layout.Add(15);
  layout.Add(68);
  layout.Add(22);
  return layout;
}

AttributeBlockerOptions DefaultOptions() {
  AttributeBlockerOptions options;
  options.attribute_K = {5, 5, 10, 5};
  options.delta = 0.1;
  return options;
}

EncodedRecord MakeRecord(RecordId id, const BitVector& bits) {
  return EncodedRecord{id, bits};
}

/// A dense deterministic base vector.
BitVector BaseVector() {
  BitVector bv(120);
  for (size_t i = 0; i < 120; i += 3) bv.Set(i);
  return bv;
}

/// Flips `n` bits of `bv` inside [offset, offset+size).
BitVector FlipInSegment(BitVector bv, size_t offset, size_t size, size_t n,
                        Rng& rng) {
  for (size_t i = 0; i < n; ++i) {
    const size_t pos = offset + rng.Below(size);
    if (bv.Test(pos)) {
      bv.Clear(pos);
    } else {
      bv.Set(pos);
    }
  }
  return bv;
}

std::set<RecordId> Candidates(const AttributeLevelBlocker& blocker,
                              const BitVector& probe) {
  std::set<RecordId> out;
  blocker.ForEachCandidate(probe, [&](RecordId id) { out.insert(id); });
  return out;
}

TEST(AttributeLevelBlockerTest, CreateValidatesInputs) {
  Rng rng(1);
  const RecordLayout layout = NcvrLayout();
  AttributeBlockerOptions options = DefaultOptions();
  // Rule referencing attribute 9 of 4.
  EXPECT_FALSE(
      AttributeLevelBlocker::Create(Rule::Pred(9, 4), layout, options, rng)
          .ok());
  // K vector of wrong length.
  options.attribute_K = {5, 5};
  EXPECT_FALSE(
      AttributeLevelBlocker::Create(Rule::Pred(0, 4), layout, options, rng)
          .ok());
  // Bare NOT has no positive component.
  options = DefaultOptions();
  EXPECT_FALSE(AttributeLevelBlocker::Create(Rule::Not(Rule::Pred(0, 4)),
                                             layout, options, rng)
                   .ok());
}

TEST(AttributeLevelBlockerTest, PurelyNegativeOrBranchRejected) {
  // f1 OR NOT f2 is non-blockable: pairs satisfying only the NOT branch
  // can never be generated.
  Rng rng(20);
  const Rule rule = Rule::Or({Rule::Pred(0, 4), Rule::Not(Rule::Pred(1, 4))});
  Result<AttributeLevelBlocker> blocker = AttributeLevelBlocker::Create(
      rule, NcvrLayout(), DefaultOptions(), rng);
  EXPECT_FALSE(blocker.ok());
  EXPECT_EQ(blocker.status().code(), StatusCode::kInvalidArgument);

  // Nested inside an AND, the same OR must still be rejected.
  const Rule nested = Rule::And(
      {Rule::Pred(2, 8),
       Rule::Or({Rule::Pred(0, 4), Rule::Not(Rule::Pred(1, 4))})});
  EXPECT_FALSE(AttributeLevelBlocker::Create(nested, NcvrLayout(),
                                             DefaultOptions(), rng)
                   .ok());

  // An OR branch that is an AND containing a NOT plus a positive
  // predicate IS blockable (the positive conjunct generates).
  const Rule fine = Rule::Or(
      {Rule::Pred(2, 8),
       Rule::And({Rule::Pred(0, 4), Rule::Not(Rule::Pred(1, 4))})});
  EXPECT_TRUE(AttributeLevelBlocker::Create(fine, NcvrLayout(),
                                            DefaultOptions(), rng)
                  .ok());
}

TEST(AttributeLevelBlockerTest, AndRuleBuildsOneStructure) {
  Rng rng(2);
  const Rule c1 =
      Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4), Rule::Pred(2, 8)});
  Result<AttributeLevelBlocker> blocker =
      AttributeLevelBlocker::Create(c1, NcvrLayout(), DefaultOptions(), rng);
  ASSERT_TRUE(blocker.ok()) << blocker.status().ToString();
  EXPECT_EQ(blocker.value().num_structures(), 1u);
  // Paper PH on NCVR: L ~ 178.
  EXPECT_NEAR(static_cast<double>(blocker.value().structure_L(0)), 178.0, 1.0);
  EXPECT_EQ(blocker.value().TotalTables(), blocker.value().structure_L(0));
}

TEST(AttributeLevelBlockerTest, OrOfPredicatesBuildsOneOrStructure) {
  Rng rng(3);
  const Rule rule = Rule::Or({Rule::Pred(0, 4), Rule::Pred(1, 4)});
  Result<AttributeLevelBlocker> blocker = AttributeLevelBlocker::Create(
      rule, NcvrLayout(), DefaultOptions(), rng);
  ASSERT_TRUE(blocker.ok());
  EXPECT_EQ(blocker.value().num_structures(), 1u);
  // OR structure: n_c tables per group (Definition 5 space accounting).
  EXPECT_EQ(blocker.value().TotalTables(),
            2 * blocker.value().structure_L(0));
}

TEST(AttributeLevelBlockerTest, CompoundRuleBuildsMultipleStructures) {
  Rng rng(4);
  // C2 of Section 6.2: (f1 AND f2) OR f3.
  const Rule c2 = Rule::Or(
      {Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4)}), Rule::Pred(2, 8)});
  Result<AttributeLevelBlocker> blocker = AttributeLevelBlocker::Create(
      c2, NcvrLayout(), DefaultOptions(), rng);
  ASSERT_TRUE(blocker.ok());
  EXPECT_EQ(blocker.value().num_structures(), 2u);
}

TEST(AttributeLevelBlockerTest, IdenticalVectorsAlwaysFormulated) {
  Rng rng(5);
  const Rule c1 = Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4)});
  AttributeLevelBlocker blocker =
      AttributeLevelBlocker::Create(c1, NcvrLayout(), DefaultOptions(), rng)
          .value();
  const BitVector base = BaseVector();
  blocker.Insert(MakeRecord(7, base), 0);
  EXPECT_TRUE(Candidates(blocker, base).contains(7));
  EXPECT_TRUE(blocker.FormulatedByRule(base, base));
}

TEST(AttributeLevelBlockerTest, WithinThresholdPairsFoundReliably) {
  // A pair within every attribute threshold must be formulated with
  // frequency >= 1 - delta (Eq. 2 with the Eq. 10 composite).
  Rng data_rng(6);
  size_t found = 0;
  constexpr size_t kRounds = 120;
  for (size_t round = 0; round < kRounds; ++round) {
    Rng rng(100 + round);
    const Rule c1 = Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4)});
    AttributeLevelBlocker blocker =
        AttributeLevelBlocker::Create(c1, NcvrLayout(), DefaultOptions(), rng)
            .value();
    const BitVector a = BaseVector();
    BitVector b = FlipInSegment(a, 0, 15, 2, data_rng);     // u^(f1) = 2
    b = FlipInSegment(std::move(b), 15, 15, 2, data_rng);   // u^(f2) = 2
    blocker.Insert(MakeRecord(1, a), 0);
    if (Candidates(blocker, b).contains(1)) ++found;
  }
  EXPECT_GE(static_cast<double>(found) / kRounds, 0.88);
}

TEST(AttributeLevelBlockerTest, NotRulePrunesMatchingSecondAttribute) {
  // C3 = f1 AND NOT f2: a pair whose f2 segments are identical collides
  // in f2's structure in every group, so it must never be emitted.
  Rng rng(7);
  const Rule c3 = Rule::And({Rule::Pred(0, 4), Rule::Not(Rule::Pred(1, 4))});
  AttributeLevelBlocker blocker =
      AttributeLevelBlocker::Create(c3, NcvrLayout(), DefaultOptions(), rng)
          .value();
  const BitVector a = BaseVector();
  blocker.Insert(MakeRecord(1, a), 0);
  // Probe identical in f2 (and f1): excluded by the NOT.
  EXPECT_FALSE(Candidates(blocker, a).contains(1));
  EXPECT_FALSE(blocker.FormulatedByRule(a, a));

  // Probe with f2 far away but f1 identical: should be emitted.
  Rng flip(8);
  const BitVector probe = FlipInSegment(a, 15, 15, 14, flip);
  EXPECT_TRUE(Candidates(blocker, probe).contains(1));
}

TEST(AttributeLevelBlockerTest, OrRuleFindsPairsMatchingEitherSide) {
  Rng rng(9);
  const Rule rule = Rule::Or({Rule::Pred(0, 2), Rule::Pred(2, 4)});
  AttributeLevelBlocker blocker =
      AttributeLevelBlocker::Create(rule, NcvrLayout(), DefaultOptions(), rng)
          .value();
  const BitVector a = BaseVector();
  blocker.Insert(MakeRecord(1, a), 0);

  // Destroy f1 entirely but keep f3 identical: the OR should still fire.
  Rng flip(10);
  const BitVector probe = FlipInSegment(a, 0, 15, 15, flip);
  EXPECT_TRUE(Candidates(blocker, probe).contains(1));
}

TEST(AttributeLevelBlockerTest, CompoundAndOfStructuresRequiresBoth) {
  Rng rng(11);
  // (f1 OR f2) AND (f3 OR f4) — the paper's Section 5.4 C2 shape.
  const Rule rule = Rule::And(
      {Rule::Or({Rule::Pred(0, 2), Rule::Pred(1, 2)}),
       Rule::Or({Rule::Pred(2, 4), Rule::Pred(3, 2)})});
  AttributeLevelBlocker blocker =
      AttributeLevelBlocker::Create(rule, NcvrLayout(), DefaultOptions(), rng)
          .value();
  EXPECT_EQ(blocker.num_structures(), 2u);
  const BitVector a = BaseVector();
  blocker.Insert(MakeRecord(1, a), 0);

  // Identical probe satisfies both OR structures.
  EXPECT_TRUE(blocker.FormulatedByRule(a, a));
  EXPECT_TRUE(Candidates(blocker, a).contains(1));

  // Destroy f3 AND f4: second structure cannot collide reliably; pair
  // should mostly disappear.  (f1, f2 intact.)
  Rng flip(12);
  BitVector probe = FlipInSegment(a, 30, 68, 60, flip);
  probe = FlipInSegment(std::move(probe), 98, 22, 20, flip);
  EXPECT_FALSE(blocker.FormulatedByRule(a, probe));
  EXPECT_FALSE(Candidates(blocker, probe).contains(1));
}

TEST(AttributeLevelBlockerTest, IndexRetainsVectorsForMembership) {
  Rng rng(13);
  const Rule rule = Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4)});
  AttributeLevelBlocker blocker =
      AttributeLevelBlocker::Create(rule, NcvrLayout(), DefaultOptions(), rng)
          .value();
  std::vector<EncodedRecord> records;
  records.push_back(MakeRecord(1, BaseVector()));
  records.push_back(MakeRecord(2, BaseVector()));
  blocker.Index(records);
  EXPECT_TRUE(Candidates(blocker, BaseVector()).contains(1));
  EXPECT_TRUE(Candidates(blocker, BaseVector()).contains(2));
}

// --- Span path: a single-structure rule hands its buckets to the matcher
// as spans; a multi-structure rule keeps the filtered per-Id path.

/// Serves `inner`'s slots one per span, each once per probe — the matcher
/// input before the span path existed.
class PerIdSource : public CandidateSource {
 public:
  explicit PerIdSource(const CandidateSource* inner) : inner_(inner) {}
  void ForEachSlotSpan(
      const BitVector& probe,
      FunctionRef<void(std::span<const uint32_t>)> cb) const override {
    std::set<uint32_t> seen;
    inner_->ForEachSlotSpan(probe, [&](std::span<const uint32_t> slots) {
      for (const uint32_t slot : slots) {
        if (seen.insert(slot).second) cb(std::span<const uint32_t>(&slot, 1));
      }
    });
  }
  std::span<const RecordId> slot_ids() const override {
    return inner_->slot_ids();
  }

 private:
  const CandidateSource* inner_;
};

struct SpanRun {
  std::vector<IdPair> pairs;
  MatchStats stats;
};

/// Clustered A records around the base vector, and B probes perturbing
/// them, so buckets hold several Ids and probes collide in many groups.
void ClusteredData(std::vector<EncodedRecord>* a,
                   std::vector<EncodedRecord>* b) {
  Rng data_rng(51);
  for (RecordId id = 0; id < 80; ++id) {
    a->push_back(MakeRecord(
        id, FlipInSegment(BaseVector(), 0, 120, id % 6, data_rng)));
  }
  for (RecordId id = 0; id < 30; ++id) {
    b->push_back(MakeRecord(
        1000 + id, FlipInSegment(BaseVector(), 0, 120, id % 5, data_rng)));
  }
}

SpanRun MatchThrough(const CandidateSource& source, const Rule& rule,
                     const std::vector<EncodedRecord>& a,
                     const std::vector<EncodedRecord>& b) {
  VectorStore store;
  EXPECT_TRUE(store.AddAll(a).ok());
  const Matcher matcher(&source, &store);
  SpanRun run;
  run.pairs = matcher.MatchAll(b, MakeRuleClassifier(rule, NcvrLayout()),
                               &run.stats);
  return run;
}

TEST(AttributeLevelBlockerSpanTest, SingleStructureSpansMatchPerIdPath) {
  // C1: one AND structure.
  const Rule rule =
      Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4), Rule::Pred(2, 8)});
  Rng rng(52);
  AttributeLevelBlocker blocker =
      AttributeLevelBlocker::Create(rule, NcvrLayout(), DefaultOptions(), rng)
          .value();
  ASSERT_EQ(blocker.num_structures(), 1u);
  std::vector<EncodedRecord> a;
  std::vector<EncodedRecord> b;
  ClusteredData(&a, &b);
  blocker.Index(a);

  const SpanRun spans = MatchThrough(blocker, rule, a, b);
  const SpanRun per_id = MatchThrough(PerIdSource(&blocker), rule, a, b);
  EXPECT_FALSE(spans.pairs.empty());
  EXPECT_EQ(spans.pairs, per_id.pairs);
  EXPECT_EQ(spans.stats.comparisons, per_id.stats.comparisons);
  EXPECT_EQ(spans.stats.matches, per_id.stats.matches);
  // The span path delivers repeats across groups; the per-Id path had
  // already removed them.
  EXPECT_GT(spans.stats.dedup_skipped, 0u);
  EXPECT_EQ(per_id.stats.dedup_skipped, 0u);
  EXPECT_EQ(spans.stats.candidate_occurrences,
            spans.stats.comparisons + spans.stats.dedup_skipped);
}

TEST(AttributeLevelBlockerSpanTest, MultiStructureRuleKeepsFilteredPath) {
  // C3: f1 AND NOT f2 — two structures joined by a membership expression.
  const Rule rule = Rule::And({Rule::Pred(0, 4), Rule::Not(Rule::Pred(1, 4))});
  Rng rng(53);
  AttributeLevelBlocker blocker =
      AttributeLevelBlocker::Create(rule, NcvrLayout(), DefaultOptions(), rng)
          .value();
  ASSERT_EQ(blocker.num_structures(), 2u);
  std::vector<EncodedRecord> a;
  std::vector<EncodedRecord> b;
  ClusteredData(&a, &b);
  blocker.Index(a);

  // Every span is one filtered, de-duplicated Id.
  for (const EncodedRecord& probe : b) {
    std::vector<RecordId> from_spans;
    blocker.ForEachCandidateSpan(
        probe.bits, [&](std::span<const RecordId> ids) {
          ASSERT_EQ(ids.size(), 1u);
          from_spans.push_back(ids[0]);
        });
    std::vector<RecordId> per_id;
    blocker.ForEachCandidate(probe.bits,
                             [&](RecordId id) { per_id.push_back(id); });
    EXPECT_EQ(from_spans, per_id);
  }
  const SpanRun spans = MatchThrough(blocker, rule, a, b);
  const SpanRun per_id = MatchThrough(PerIdSource(&blocker), rule, a, b);
  EXPECT_GT(spans.stats.comparisons, 0u);
  EXPECT_EQ(spans.pairs, per_id.pairs);
  EXPECT_EQ(spans.stats.candidate_occurrences,
            per_id.stats.candidate_occurrences);
  EXPECT_EQ(spans.stats.comparisons, per_id.stats.comparisons);
  EXPECT_EQ(spans.stats.dedup_skipped, 0u);
}

TEST(AttributeLevelBlockerSpanTest, SpanStreamPinned) {
  // The full span stream (Ids and bucket boundaries) of each
  // single-structure shape, empty and indexed, pinned to digests captured
  // at commit 96191af, before the bucket walk was phased into chunks of
  // 64 probes.  Emission order is group l, then predicate i for an OR
  // structure (tables[i * L + l]); any reordering changes the digest, and
  // with it the matcher's funnel counters and pair order.
  std::vector<EncodedRecord> a;
  std::vector<EncodedRecord> b;
  ClusteredData(&a, &b);
  std::vector<BitVector> probes;
  for (const EncodedRecord& r : b) probes.push_back(r.bits);

  // A long key on the 68-bit segment: that predicate alone needs L > 64.
  AttributeBlockerOptions long_key = DefaultOptions();
  long_key.attribute_K[2] = 30;
  struct Case {
    const char* name;
    Rule rule;
    AttributeBlockerOptions options;
    bool crosses_chunk;
    uint64_t digest;
  };
  const Case cases[] = {
      {"C1 AND",
       Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4), Rule::Pred(2, 8)}),
       DefaultOptions(), true, 0xb82fbd754b9023bfULL},
      {"OR of predicates", Rule::Or({Rule::Pred(0, 4), Rule::Pred(1, 4)}),
       DefaultOptions(), false, 0xcd8e593a6a293793ULL},
      {"L > 64", Rule::Pred(2, 8), long_key, true, 0xa4bd142b42ce4ac4ULL},
  };
  // 30 probes, each with no span: every table of an empty blocker has no
  // slot array, and the probe path must not hash into it.
  constexpr uint64_t kEmptyStream = 0xe7f6c4b09523c5e5ULL;
  for (const Case& c : cases) {
    Rng rng(54);
    AttributeLevelBlocker blocker =
        AttributeLevelBlocker::Create(c.rule, NcvrLayout(), c.options, rng)
            .value();
    ASSERT_EQ(blocker.num_structures(), 1u) << c.name;
    if (c.crosses_chunk) {
      EXPECT_GT(blocker.structure_L(0), kProbeChunk) << c.name;
    }
    EXPECT_EQ(SpanStreamDigest(blocker, probes), kEmptyStream) << c.name;
    blocker.Index(a);
    EXPECT_EQ(SpanStreamDigest(blocker, probes), c.digest) << c.name;
  }
}

// --- BulkInsert determinism: tables and retained vectors identical to
// Index() at any thread count.  The structures' tables are private, so
// equivalence is asserted through the full candidate-emission sequence
// (which exposes bucket contents *and* per-bucket id order) plus
// FormulatedByRule (which exposes the retained vector map).

TEST(AttributeLevelBlockerBulkInsertTest, IdenticalToIndexAtAnyThreadCount) {
  // C2 shape: one AND structure and one plain predicate structure, so
  // both compound-key and single-attribute phase-1 paths run.
  const Rule rule = Rule::Or(
      {Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4)}), Rule::Pred(2, 8)});
  const auto make_blocker = [&] {
    Rng rng(41);
    return AttributeLevelBlocker::Create(rule, NcvrLayout(), DefaultOptions(),
                                         rng)
        .value();
  };

  // Clustered records: perturbations of a few base vectors, so buckets
  // hold several ids and id order inside a bucket matters.
  Rng data_rng(42);
  std::vector<EncodedRecord> records;
  for (RecordId id = 0; id < 120; ++id) {
    BitVector bv = BaseVector();
    bv = FlipInSegment(std::move(bv), 0, 15, id % 3, data_rng);
    bv = FlipInSegment(std::move(bv), 30, 68, id % 5, data_rng);
    records.push_back(MakeRecord(id, bv));
  }
  std::vector<BitVector> probes;
  for (size_t i = 0; i < 40; ++i) {
    probes.push_back(FlipInSegment(BaseVector(), 0, 120, i % 4, data_rng));
  }

  AttributeLevelBlocker serial = make_blocker();
  serial.Index(records);
  const auto emission = [&](const AttributeLevelBlocker& blocker) {
    std::vector<RecordId> out;
    for (const BitVector& probe : probes) {
      blocker.ForEachCandidate(probe, [&](RecordId id) { out.push_back(id); });
    }
    return out;
  };
  const std::vector<RecordId> serial_emission = emission(serial);
  EXPECT_FALSE(serial_emission.empty());

  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    AttributeLevelBlocker parallel = make_blocker();
    parallel.BulkInsert(records, &pool);
    EXPECT_EQ(emission(parallel), serial_emission)
        << "candidate stream diverges at " << threads << " threads";
    for (const EncodedRecord& r : records) {
      ASSERT_EQ(parallel.FormulatedByRule(records[0].bits, r.bits),
                serial.FormulatedByRule(records[0].bits, r.bits));
    }
  }
}

TEST(AttributeLevelBlockerBulkInsertTest, EmptyAndAppendInputs) {
  const Rule rule = Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4)});
  const auto make_blocker = [&] {
    Rng rng(43);
    return AttributeLevelBlocker::Create(rule, NcvrLayout(), DefaultOptions(),
                                         rng)
        .value();
  };
  ThreadPool pool(4);

  AttributeLevelBlocker empty = make_blocker();
  empty.BulkInsert(std::span<const EncodedRecord>{}, &pool);
  EXPECT_TRUE(Candidates(empty, BaseVector()).empty());

  // Two bulk batches behave like one Index over the concatenation.
  std::vector<EncodedRecord> all;
  Rng data_rng(44);
  for (RecordId id = 0; id < 60; ++id) {
    all.push_back(
        MakeRecord(id, FlipInSegment(BaseVector(), 0, 120, id % 3, data_rng)));
  }
  AttributeLevelBlocker serial = make_blocker();
  serial.Index(all);

  AttributeLevelBlocker parallel = make_blocker();
  const std::span<const EncodedRecord> span(all);
  parallel.BulkInsert(span.subspan(0, 25), &pool);
  parallel.BulkInsert(span.subspan(25), &pool);
  for (const EncodedRecord& r : all) {
    ASSERT_EQ(Candidates(parallel, r.bits), Candidates(serial, r.bits));
  }
}

}  // namespace
}  // namespace cbvlink
