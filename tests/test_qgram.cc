#include "src/text/qgram.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace cbvlink {
namespace {

QGramExtractor MakeExtractor(const Alphabet& alphabet, size_t q, bool pad) {
  Result<QGramExtractor> extractor =
      QGramExtractor::Create(alphabet, {.q = q, .pad = pad});
  EXPECT_TRUE(extractor.ok()) << extractor.status().ToString();
  return std::move(extractor).value();
}

TEST(QGramExtractorTest, CreateRejectsZeroQ) {
  Result<QGramExtractor> r =
      QGramExtractor::Create(Alphabet::Uppercase(), {.q = 0, .pad = false});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(QGramExtractorTest, CreateRejectsPaddingWithoutPadSymbol) {
  Result<QGramExtractor> r =
      QGramExtractor::Create(Alphabet::Uppercase(), {.q = 2, .pad = true});
  EXPECT_FALSE(r.ok());
}

TEST(QGramExtractorTest, PaperFigure1Indexes) {
  // Figure 1: for s = 'JOHN', F('JO') = 248, F('OH') = 371, F('HN') = 195.
  const QGramExtractor e = MakeExtractor(Alphabet::Uppercase(), 2, false);
  EXPECT_EQ(e.GramIndex("JO").value(), 248u);
  EXPECT_EQ(e.GramIndex("OH").value(), 371u);
  EXPECT_EQ(e.GramIndex("HN").value(), 195u);
  std::vector<uint64_t> expected{195, 248, 371};
  EXPECT_EQ(e.IndexSet("JOHN"), expected);
}

TEST(QGramExtractorTest, IndexSpaceSizeIs676ForBigrams) {
  const QGramExtractor e = MakeExtractor(Alphabet::Uppercase(), 2, false);
  EXPECT_EQ(e.IndexSpaceSize(), 676u);
}

TEST(QGramExtractorTest, GramsUnpadded) {
  const QGramExtractor e = MakeExtractor(Alphabet::Uppercase(), 2, false);
  EXPECT_EQ(e.Grams("JONES"),
            (std::vector<std::string>{"JO", "ON", "NE", "ES"}));
  EXPECT_TRUE(e.Grams("J").empty());
  EXPECT_TRUE(e.Grams("").empty());
}

TEST(QGramExtractorTest, GramsPadded) {
  const QGramExtractor e = MakeExtractor(Alphabet::UppercasePadded(), 2, true);
  EXPECT_EQ(e.Grams("JONES"),
            (std::vector<std::string>{"_J", "JO", "ON", "NE", "ES", "S_"}));
  EXPECT_EQ(e.Grams("J"), (std::vector<std::string>{"_J", "J_"}));
  EXPECT_TRUE(e.Grams("").empty());
}

TEST(QGramExtractorTest, GramIndexRejectsWrongLengthAndForeignSymbols) {
  const QGramExtractor e = MakeExtractor(Alphabet::Uppercase(), 2, false);
  EXPECT_FALSE(e.GramIndex("JON").ok());
  EXPECT_FALSE(e.GramIndex("J").ok());
  EXPECT_FALSE(e.GramIndex("J9").ok());
}

TEST(QGramExtractorTest, IndexSetSortedUniqueBelowSpace) {
  const QGramExtractor e = MakeExtractor(Alphabet::Uppercase(), 2, false);
  // 'AAAA' has three occurrences of 'AA' but one index.
  EXPECT_EQ(e.IndexSet("AAAA"), (std::vector<uint64_t>{0}));
  const std::vector<uint64_t> set = e.IndexSet("WASHINGTON");
  EXPECT_TRUE(std::is_sorted(set.begin(), set.end()));
  EXPECT_EQ(std::adjacent_find(set.begin(), set.end()), set.end());
  for (uint64_t ind : set) EXPECT_LT(ind, e.IndexSpaceSize());
}

TEST(QGramExtractorTest, CountGramsMatchesGramsSize) {
  for (const bool pad : {false, true}) {
    const QGramExtractor e = MakeExtractor(
        pad ? Alphabet::UppercasePadded() : Alphabet::Uppercase(), 2, pad);
    for (const char* s : {"", "J", "JO", "JONES", "WASHINGTON"}) {
      EXPECT_EQ(e.CountGrams(s), e.Grams(s).size())
          << "pad=" << pad << " s=" << s;
    }
  }
}

TEST(QGramExtractorTest, UnpaddedCountIsLenMinusOne) {
  // The convention Table 3's b values follow: 'JOHN' -> 3 bigrams,
  // '2003' -> 3 bigrams.
  const QGramExtractor e = MakeExtractor(Alphabet::Alphanumeric(), 2, false);
  EXPECT_EQ(e.CountGrams("JOHN"), 3u);
  EXPECT_EQ(e.CountGrams("2003"), 3u);
  EXPECT_EQ(e.CountGrams("AB"), 1u);
  EXPECT_EQ(e.CountGrams("A"), 0u);
}

TEST(QGramExtractorTest, TrigramsWork) {
  const QGramExtractor e = MakeExtractor(Alphabet::Uppercase(), 3, false);
  EXPECT_EQ(e.IndexSpaceSize(), 26u * 26u * 26u);
  EXPECT_EQ(e.Grams("JONES"), (std::vector<std::string>{"JON", "ONE", "NES"}));
  // 'JON' = 9*676 + 14*26 + 13 = 6461.
  EXPECT_EQ(e.GramIndex("JON").value(), 6461u);
}

TEST(QGramExtractorTest, CreateRejectsOverflowingSpace) {
  // 39 symbols ^ 13 overflows 64 bits.
  Result<QGramExtractor> r = QGramExtractor::Create(Alphabet::Alphanumeric(),
                                                    {.q = 13, .pad = false});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(QGramExtractorTest, CreateRejectsEmptyAlphabet) {
  const Alphabet empty("");
  Result<QGramExtractor> r =
      QGramExtractor::Create(empty, {.q = 2, .pad = false});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

std::vector<uint64_t> WalkedIndexes(const QGramExtractor& e,
                                    std::string_view text) {
  std::vector<uint64_t> indexes;
  e.ForEachIndex(text, [&](uint64_t ind) { indexes.push_back(ind); });
  return indexes;
}

TEST(QGramExtractorTest, ForEachIndexVisitsEveryGramInOrderWithRepeats) {
  const QGramExtractor e = MakeExtractor(Alphabet::UppercasePadded(), 2, true);
  std::vector<uint64_t> expected;
  for (const std::string& gram : e.Grams("JOHNJOHN")) {
    expected.push_back(e.GramIndex(gram).value());
  }
  ASSERT_EQ(expected.size(), 9u);  // _J JO OH HN NJ JO OH HN N_
  EXPECT_EQ(WalkedIndexes(e, "JOHNJOHN"), expected);
  // Raw text normalizes on the fly: case folds, '_' and '-' drop.
  EXPECT_EQ(WalkedIndexes(e, "Jo_hN-john"), expected);
  EXPECT_EQ(WalkedIndexes(e, "JOHNJOHN").size(), e.CountGrams("JOHNJOHN"));
}

TEST(QGramExtractorTest, ForEachIndexSlidesPastDroppedBytes) {
  const QGramExtractor e = MakeExtractor(Alphabet::Uppercase(), 3, false);
  EXPECT_EQ(WalkedIndexes(e, "a-b_c d!"),
            (std::vector<uint64_t>{e.GramIndex("ABC").value(),
                                   e.GramIndex("BCD").value()}));
  EXPECT_TRUE(WalkedIndexes(e, "a.b").empty());  // shorter than q
  EXPECT_TRUE(WalkedIndexes(e, "").empty());
  EXPECT_TRUE(WalkedIndexes(e, "\x80\xff 123").empty());
}

TEST(QGramExtractorTest, ForEachIndexLongQOverOneSymbol) {
  const Alphabet one("A");
  const QGramExtractor e = MakeExtractor(one, 5, false);
  EXPECT_EQ(WalkedIndexes(e, "aAa.aaAa"), (std::vector<uint64_t>{0, 0, 0}));
}

TEST(QGramExtractorTest, SubstituteChangesAtMost2qGrams) {
  // Property behind Section 5.1: one interior substitution changes at
  // most q bigrams in each string, so at most 2q differing indexes.
  const QGramExtractor e = MakeExtractor(Alphabet::Uppercase(), 2, false);
  const std::string s1 = "JONES";
  const std::string s2 = "JONAS";  // substitute E->A
  const std::vector<uint64_t> u1 = e.IndexSet(s1);
  const std::vector<uint64_t> u2 = e.IndexSet(s2);
  std::vector<uint64_t> sym_diff;
  std::set_symmetric_difference(u1.begin(), u1.end(), u2.begin(), u2.end(),
                                std::back_inserter(sym_diff));
  EXPECT_LE(sym_diff.size(), 4u);
  EXPECT_EQ(sym_diff.size(), 4u);  // 'NE','ES' vs 'NA','AS'
}

}  // namespace
}  // namespace cbvlink
