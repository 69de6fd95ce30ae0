// Equivalence gate for the runtime-dispatched Hamming kernels: every
// implementation (scalar, AVX2, AVX-512) must return results
// byte-identical to a naive bit-by-bit oracle — and therefore to each
// other — on any input, including word-boundary edge cases, multi-word
// ranges, and the paper's 120-bit two-word cBV shape (Table 3).  SIMD
// sets the host CPU cannot execute are skipped with a notice instead of
// faulting.

#include "src/common/hamming_kernels.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/blocking/matcher.h"
#include "src/common/bitvector.h"
#include "src/common/random.h"
#include "src/common/thread_pool.h"

namespace cbvlink {
namespace {

/// Restores automatic kernel resolution when a test that forced a set
/// exits (including via an assertion failure).
class ScopedForcedKernels {
 public:
  explicit ScopedForcedKernels(const KernelSet* kernels) {
    ForceKernelsForTest(kernels);
  }
  ~ScopedForcedKernels() { ForceKernelsForTest(nullptr); }
};

/// The kernel sets this build *and* this CPU can execute.  Scalar is
/// always present; unavailable SIMD sets are reported once.
std::vector<const KernelSet*> RunnableKernelSets() {
  std::vector<const KernelSet*> sets;
  sets.push_back(&ScalarKernels());
  if (Avx2Kernels() != nullptr && CpuSupportsAvx2()) {
    sets.push_back(Avx2Kernels());
  } else {
    std::fprintf(stderr,
                 "NOTICE: avx2 kernels not runnable on this host "
                 "(build=%d cpu=%d); skipping\n",
                 Avx2Kernels() != nullptr ? 1 : 0, CpuSupportsAvx2() ? 1 : 0);
  }
  if (Avx512Kernels() != nullptr && CpuSupportsAvx512Popcnt()) {
    sets.push_back(Avx512Kernels());
  } else {
    std::fprintf(stderr,
                 "NOTICE: avx512 kernels not runnable on this host "
                 "(build=%d cpu=%d); skipping\n",
                 Avx512Kernels() != nullptr ? 1 : 0,
                 CpuSupportsAvx512Popcnt() ? 1 : 0);
  }
  return sets;
}

/// Naive oracle: bit-by-bit comparison over [offset, offset + length).
size_t OracleRangeDistance(const std::vector<uint64_t>& a,
                           const std::vector<uint64_t>& b, size_t offset,
                           size_t length) {
  size_t dist = 0;
  for (size_t i = offset; i < offset + length; ++i) {
    const uint64_t abit = (a[i >> 6] >> (i & 63)) & 1;
    const uint64_t bbit = (b[i >> 6] >> (i & 63)) & 1;
    dist += static_cast<size_t>(abit != bbit);
  }
  return dist;
}

/// Random zero-padded word vector of `num_bits` logical bits.
std::vector<uint64_t> RandomWords(size_t num_bits, Rng& rng) {
  std::vector<uint64_t> words((num_bits + 63) / 64, 0);
  for (uint64_t& w : words) w = rng();
  const size_t tail = num_bits & 63;
  if (tail != 0 && !words.empty()) {
    words.back() &= (uint64_t{1} << tail) - 1;
  }
  return words;
}

// The widths the equivalence sweep covers: around every word boundary,
// the paper's 120-bit cBV shape, and wide Bloom-filter shapes that
// exercise the vector main loops and their tails.
const size_t kWidths[] = {1,   63,  64,  65,  120, 127, 128,  129,
                          191, 192, 256, 500, 831, 960, 1000, 2048};

TEST(HammingKernelsTest, DistanceMatchesOracleAcrossWidths) {
  Rng rng(1);
  for (const KernelSet* kernels : RunnableKernelSets()) {
    for (const size_t bits : kWidths) {
      for (int trial = 0; trial < 8; ++trial) {
        const std::vector<uint64_t> a = RandomWords(bits, rng);
        const std::vector<uint64_t> b = RandomWords(bits, rng);
        const size_t expected = OracleRangeDistance(a, b, 0, bits);
        EXPECT_EQ(kernels->distance(a.data(), b.data(), a.size()), expected)
            << kernels->name << " width " << bits << " trial " << trial;
      }
    }
  }
}

TEST(HammingKernelsTest, DistanceEdgeCases) {
  for (const KernelSet* kernels : RunnableKernelSets()) {
    EXPECT_EQ(kernels->distance(nullptr, nullptr, 0), 0u) << kernels->name;
    const uint64_t a = ~uint64_t{0};
    const uint64_t b = 0;
    EXPECT_EQ(kernels->distance(&a, &b, 1), 64u) << kernels->name;
    EXPECT_EQ(kernels->distance(&a, &a, 1), 0u) << kernels->name;
  }
}

TEST(HammingKernelsTest, RangeDistanceMatchesOracle) {
  Rng rng(2);
  for (const KernelSet* kernels : RunnableKernelSets()) {
    for (const size_t bits : kWidths) {
      const std::vector<uint64_t> a = RandomWords(bits, rng);
      const std::vector<uint64_t> b = RandomWords(bits, rng);
      for (int trial = 0; trial < 32; ++trial) {
        const size_t offset = rng.Below(bits);
        const size_t length = rng.Below(bits - offset + 1);
        EXPECT_EQ(kernels->range_distance(a.data(), b.data(), offset, length),
                  OracleRangeDistance(a, b, offset, length))
            << kernels->name << " width " << bits << " range [" << offset
            << ", " << offset + length << ")";
      }
    }
  }
}

TEST(HammingKernelsTest, RangeDistanceWordBoundaryEdges) {
  Rng rng(3);
  constexpr size_t kBits = 1024;
  const std::vector<uint64_t> a = RandomWords(kBits, rng);
  const std::vector<uint64_t> b = RandomWords(kBits, rng);
  // Deliberate edges: empty range, single bit at both word edges,
  // word-aligned ranges, ranges spanning >= 3 words, and ranges whose
  // last bit lands exactly on bit 63 of a word (the trail == 63 branch).
  const struct {
    size_t offset, length;
  } kCases[] = {{0, 0},    {63, 0},   {0, 1},    {63, 1},   {64, 1},
                {0, 64},   {64, 64},  {64, 128}, {1, 63},   {1, 64},
                {63, 2},   {63, 66},  {0, 192},  {1, 190},  {65, 300},
                {127, 513}, {0, kBits}, {1, kBits - 1}, {960, 64}};
  for (const KernelSet* kernels : RunnableKernelSets()) {
    for (const auto& c : kCases) {
      EXPECT_EQ(
          kernels->range_distance(a.data(), b.data(), c.offset, c.length),
          OracleRangeDistance(a, b, c.offset, c.length))
          << kernels->name << " range [" << c.offset << ", "
          << c.offset + c.length << ")";
    }
  }
}

/// Builds a strided arena of `n` random rows, zero-padded to `num_bits`.
std::vector<uint64_t> RandomArena(size_t n, size_t num_bits, Rng& rng) {
  const size_t stride = (num_bits + 63) / 64;
  std::vector<uint64_t> arena;
  arena.reserve(n * stride);
  for (size_t i = 0; i < n; ++i) {
    const std::vector<uint64_t> row = RandomWords(num_bits, rng);
    arena.insert(arena.end(), row.begin(), row.end());
  }
  return arena;
}

TEST(HammingKernelsTest, BatchLeqMatchesOracleGatheredAndContiguous) {
  Rng rng(4);
  for (const size_t bits : {64u, 120u, 120u, 500u, 831u}) {
    const size_t stride = (bits + 63) / 64;
    constexpr size_t kRows = 153;  // not a multiple of the unroll widths
    const std::vector<uint64_t> arena = RandomArena(kRows, bits, rng);
    const std::vector<uint64_t> probe = RandomWords(bits, rng);
    // A gathered (shuffled, duplicated) dense list plus the contiguous
    // nullptr form.
    std::vector<uint32_t> dense;
    for (size_t i = 0; i < kRows; ++i) {
      dense.push_back(static_cast<uint32_t>(rng.Below(kRows)));
    }
    for (const size_t theta : {0ul, 3ul, bits / 4, bits / 2, bits}) {
      std::vector<uint8_t> expected(kRows);
      for (size_t i = 0; i < kRows; ++i) {
        const size_t dist = OracleRangeDistance(
            std::vector<uint64_t>(arena.begin() + dense[i] * stride,
                                  arena.begin() + (dense[i] + 1) * stride),
            probe, 0, bits);
        expected[i] = dist <= theta ? 1 : 0;
      }
      for (const KernelSet* kernels : RunnableKernelSets()) {
        std::vector<uint8_t> out(kRows, 0xee);
        KernelBatchLeq(*kernels, probe.data(), arena.data(), stride,
                       dense.data(), kRows, stride, theta, out.data());
        EXPECT_EQ(out, expected) << kernels->name << " gathered, width "
                                 << bits << " theta " << theta;
        // Contiguous form: dense == nullptr means row i at i * stride.
        std::vector<uint8_t> expected_seq(kRows);
        for (size_t i = 0; i < kRows; ++i) {
          const size_t dist = OracleRangeDistance(
              std::vector<uint64_t>(arena.begin() + i * stride,
                                    arena.begin() + (i + 1) * stride),
              probe, 0, bits);
          expected_seq[i] = dist <= theta ? 1 : 0;
        }
        std::vector<uint8_t> out_seq(kRows, 0xee);
        KernelBatchLeq(*kernels, probe.data(), arena.data(), stride, nullptr,
                       kRows, stride, theta, out_seq.data());
        EXPECT_EQ(out_seq, expected_seq)
            << kernels->name << " contiguous, width " << bits << " theta "
            << theta;
      }
    }
  }
}

TEST(HammingKernelsTest, BatchLeq2SmallCounts) {
  // The 4-per-register cBV kernel must handle every tail shape: n in
  // [0, 9] covers full blocks plus 1-3 leftover rows.
  Rng rng(5);
  constexpr size_t kBits = 120;
  const std::vector<uint64_t> arena = RandomArena(9, kBits, rng);
  const std::vector<uint64_t> probe = RandomWords(kBits, rng);
  for (const KernelSet* kernels : RunnableKernelSets()) {
    for (size_t n = 0; n <= 9; ++n) {
      std::vector<uint8_t> out(n > 0 ? n : 1, 0xee);
      kernels->batch_leq2(probe.data(), arena.data(), 2, nullptr, n, 30,
                          out.data());
      for (size_t i = 0; i < n; ++i) {
        const size_t dist = OracleRangeDistance(
            std::vector<uint64_t>(arena.begin() + i * 2,
                                  arena.begin() + (i + 1) * 2),
            probe, 0, kBits);
        EXPECT_EQ(out[i], dist <= 30 ? 1 : 0)
            << kernels->name << " n=" << n << " row " << i;
      }
    }
  }
}

TEST(HammingKernelsTest, ResolveKernelsSelection) {
  const bool have_avx2 = Avx2Kernels() != nullptr;
  const bool have_avx512 = Avx512Kernels() != nullptr;
  const char* notice = nullptr;

  // Auto: best available set wins, no notice.
  const KernelSet& autoset =
      ResolveKernels(nullptr, have_avx2, have_avx512, &notice);
  EXPECT_EQ(notice, nullptr);
  if (have_avx512) {
    EXPECT_STREQ(autoset.name, "avx512");
  } else if (have_avx2) {
    EXPECT_STREQ(autoset.name, "avx2");
  } else {
    EXPECT_STREQ(autoset.name, "scalar");
  }
  EXPECT_STREQ(ResolveKernels("", have_avx2, have_avx512, &notice).name,
               autoset.name);

  // Explicit scalar always honoured.
  EXPECT_STREQ(ResolveKernels("scalar", true, true, &notice).name, "scalar");
  EXPECT_EQ(notice, nullptr);

  // An unsupported explicit request falls back *down*, never up, with a
  // notice — the dispatcher must not execute an ISA the CPU lacks.
  notice = nullptr;
  const KernelSet& no2 = ResolveKernels("avx2", false, false, &notice);
  EXPECT_STREQ(no2.name, "scalar");
  EXPECT_NE(notice, nullptr);
  notice = nullptr;
  const KernelSet& no512 = ResolveKernels("avx512", have_avx2, false, &notice);
  EXPECT_STREQ(no512.name, have_avx2 ? "avx2" : "scalar");
  EXPECT_NE(notice, nullptr);

  // Supported explicit requests are honoured exactly.
  if (have_avx2) {
    notice = nullptr;
    EXPECT_STREQ(ResolveKernels("avx2", true, true, &notice).name, "avx2");
    EXPECT_EQ(notice, nullptr);
  }
  if (have_avx512) {
    notice = nullptr;
    EXPECT_STREQ(ResolveKernels("avx512", true, true, &notice).name,
                 "avx512");
    EXPECT_EQ(notice, nullptr);
  }

  // Unknown value: best available, with a notice.
  notice = nullptr;
  EXPECT_STREQ(ResolveKernels("sse9", have_avx2, have_avx512, &notice).name,
               autoset.name);
  EXPECT_NE(notice, nullptr);
}

TEST(HammingKernelsTest, ForceKernelsOverridesActive) {
  {
    ScopedForcedKernels force(&ScalarKernels());
    EXPECT_STREQ(ActiveKernels().name, "scalar");
  }
  // After the override is lifted, resolution follows the environment and
  // CPU again (whatever that is, it must be a runnable set).
  const KernelSet& active = ActiveKernels();
  if (std::string(active.name) == "avx2") {
    EXPECT_TRUE(CpuSupportsAvx2());
  } else if (std::string(active.name) == "avx512") {
    EXPECT_TRUE(CpuSupportsAvx512Popcnt());
  }
}

// ---------------------------------------------------------------------
// End-to-end byte-equivalence: the full matcher must produce identical
// pairs and stats under every runnable kernel set, at 1, 2, and 8
// threads — the acceptance gate for the dispatch layer.

/// Probe-dependent bucket spans with cross-bucket duplicates; slot s
/// carries RecordId s, as for records with ids 0 .. num_a - 1 stored in
/// order.
class SpanSource : public CandidateSource {
 public:
  SpanSource(size_t num_a, size_t num_buckets) {
    for (size_t s = 0; s < num_a; ++s) ids_.push_back(s);
    buckets_.resize(num_buckets);
    for (size_t b = 0; b < num_buckets; ++b) {
      const size_t len = 1 + (b * 7) % 13;
      for (size_t k = 0; k < len; ++k) {
        buckets_[b].push_back(static_cast<uint32_t>((b * 31 + k * 17) % num_a));
      }
    }
  }

  void ForEachSlotSpan(
      const BitVector& probe,
      FunctionRef<void(std::span<const uint32_t>)> cb) const override {
    const uint64_t h = probe.words().empty() ? 0 : probe.words()[0];
    const size_t groups = 1 + h % 5;
    for (size_t g = 0; g < groups; ++g) {
      cb(buckets_[(h + g * 13) % buckets_.size()]);
    }
  }

  std::span<const RecordId> slot_ids() const override { return ids_; }

 private:
  std::vector<RecordId> ids_;
  std::vector<std::vector<uint32_t>> buckets_;
};

std::vector<EncodedRecord> RandomRecords(size_t n, size_t bits,
                                         RecordId first_id, Rng& rng) {
  std::vector<EncodedRecord> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    EncodedRecord r;
    r.id = first_id + i;
    r.bits = BitVector(bits);
    for (size_t b = 0; b < bits; ++b) {
      if (rng.Below(3) == 0) r.bits.Set(b);
    }
    out.push_back(std::move(r));
  }
  return out;
}

void ExpectMatcherEquivalence(size_t bits, size_t theta) {
  Rng rng(97);
  const size_t kNumA = 64;
  std::vector<EncodedRecord> a = RandomRecords(kNumA, bits, 0, rng);
  std::vector<EncodedRecord> b = RandomRecords(211, bits, 1000, rng);
  SpanSource source(kNumA, 19);
  VectorStore store;
  EXPECT_TRUE(store.AddAll(a).ok());
  Matcher matcher(&source, &store);
  const PairClassifier classifier = MakeRecordThresholdClassifier(theta);

  MatchStats ref_stats;
  std::vector<IdPair> reference;
  {
    ScopedForcedKernels force(&ScalarKernels());
    reference = matcher.MatchAll(b, classifier, &ref_stats);
  }
  ASSERT_GT(ref_stats.matches, 0u) << "test needs a non-trivial workload";
  ASSERT_LT(ref_stats.matches, ref_stats.comparisons)
      << "test needs non-matches too";

  for (const KernelSet* kernels : RunnableKernelSets()) {
    ScopedForcedKernels force(kernels);
    for (const size_t threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      MatchStats stats;
      const std::vector<IdPair> pairs =
          matcher.MatchAll(b, classifier, &stats, &pool);
      EXPECT_EQ(pairs, reference)
          << kernels->name << " diverges at " << threads << " threads, "
          << bits << " bits";
      EXPECT_EQ(stats.comparisons, ref_stats.comparisons) << kernels->name;
      EXPECT_EQ(stats.matches, ref_stats.matches) << kernels->name;
      EXPECT_EQ(stats.dedup_skipped, ref_stats.dedup_skipped)
          << kernels->name;
    }
  }
}

TEST(HammingKernelsMatcherTest, ByteIdentical120BitCbv) {
  // The paper's Table 3 shape: 2-word records through batch_leq2.
  ExpectMatcherEquivalence(120, 40);
}

TEST(HammingKernelsMatcherTest, ByteIdenticalWideRecords) {
  // Bloom-filter-width records through the general batch kernel.  With
  // density-1/3 random records the pairwise distance concentrates near
  // 2 * (1/3) * (2/3) * 500 ~ 222, so theta 225 splits the workload into
  // real matches and real non-matches.
  ExpectMatcherEquivalence(500, 225);
}

TEST(HammingKernelsMatcherTest, ByteIdenticalOddWidth) {
  // A width straddling word boundaries (3 words, 65 used bits in word 2).
  ExpectMatcherEquivalence(129, 44);
}

}  // namespace
}  // namespace cbvlink
