// q-gram extraction and Algorithm 1 index mapping.
//
// A q-gram is a group of q consecutive characters of a (padded) string.
// The bijection F of Section 4.1 maps each q-gram to the integer obtained
// by reading its characters as base-|S| digits (Algorithm 1):
//
//   ind = sum_{i=1..q} ord(gr[i]) * |S|^(q-i)
//
// The set of indexes U_s of a string s tells which positions of a q-gram
// vector are set, and is the input to every embedding in the library.
// ForEachIndex() is the one text -> index walker: it normalizes and pads
// on the fly and hands each index to a callback, so an encoder that only
// sets bits needs no string, no index vector and no sort.

#ifndef CBVLINK_TEXT_QGRAM_H_
#define CBVLINK_TEXT_QGRAM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/text/alphabet.h"

namespace cbvlink {

/// Options controlling q-gram extraction.
struct QGramOptions {
  /// The q of q-grams; 2 (bigrams) everywhere in the paper's evaluation.
  size_t q = 2;
  /// Pad the string with kPadChar on both ends so every character appears
  /// in exactly q q-grams (footnote 4: 'JONES' -> '_JONES_').
  bool pad = true;
};

/// Extracts q-grams from normalized strings and maps them to indexes.
class QGramExtractor {
 public:
  /// Creates an extractor.  If `options.pad` is set, `alphabet` must
  /// contain kPadChar.  Returns InvalidArgument for q == 0 or a missing
  /// padding symbol.
  static Result<QGramExtractor> Create(const Alphabet& alphabet,
                                       QGramOptions options);

  /// The q-grams of `normalized`, in order of occurrence (may repeat).
  /// A string shorter than q without padding yields no q-grams.
  std::vector<std::string> Grams(std::string_view normalized) const;

  /// Algorithm 1: the index of a single q-gram.  Returns OutOfRange if the
  /// gram's length differs from q or it contains a symbol outside the
  /// alphabet.
  Result<uint64_t> GramIndex(std::string_view gram) const;

  /// Calls `f(index)` with the Algorithm 1 index of every q-gram of
  /// `text`, in order of occurrence, repeats included.  Each byte is
  /// normalized on the fly by Normalize()'s rule and the pad symbols are
  /// added virtually, so raw text and its Normalize() give the same calls.
  /// A text that normalizes to "" has no q-grams.  Allocates nothing.
  template <typename F>
  void ForEachIndex(std::string_view text, F&& f) const;

  /// The set U_s: sorted, de-duplicated indexes of all q-grams of `text`
  /// (raw or normalized; see ForEachIndex).
  std::vector<uint64_t> IndexSet(std::string_view text) const;

  /// Number of q-grams of `normalized` counted with multiplicity — the
  /// quantity averaged into b^(f_i) in Table 3.
  size_t CountGrams(std::string_view normalized) const;

  /// Index-space size |S|^q (the m of full q-gram vectors).
  uint64_t IndexSpaceSize() const { return index_space_; }

  size_t q() const { return options_.q; }
  bool pad() const { return options_.pad; }
  const Alphabet& alphabet() const { return *alphabet_; }

 private:
  QGramExtractor(const Alphabet& alphabet, QGramOptions options,
                 uint64_t index_space, uint64_t lead_weight)
      : alphabet_(&alphabet),
        options_(options),
        index_space_(index_space),
        lead_weight_(lead_weight) {}

  /// The padded working copy of `normalized`.
  std::string Padded(std::string_view normalized) const;

  const Alphabet* alphabet_;
  QGramOptions options_;
  uint64_t index_space_;
  /// |S|^(q-1): the weight of a gram's first symbol in its index.
  uint64_t lead_weight_;
};

template <typename F>
void QGramExtractor::ForEachIndex(std::string_view text, F&& f) const {
  const Alphabet& alphabet = *alphabet_;
  const uint64_t radix = alphabet.size();
  const size_t q = options_.q;
  const bool pad = options_.pad;
  const uint64_t pad_order =
      pad ? static_cast<uint64_t>(alphabet.Order(kPadChar)) : 0;

  // The window is the last q symbols of  [pad] normalized(text) [pad].
  // Sliding drops its oldest symbol: the leading pad while it is still
  // held, then the in-alphabet bytes of `text` in order, re-read through
  // `oldest` so no copy of the window is kept.
  uint64_t index = 0;
  size_t held = 0;
  bool holds_lead_pad = false;
  const char* oldest = text.data();
  const auto push = [&](uint64_t order) {
    if (held < q) {
      ++held;
    } else if (holds_lead_pad) {
      index -= pad_order * lead_weight_;
      holds_lead_pad = false;
    } else {
      int lead = alphabet.NormalizedOrder(*oldest++);
      while (lead < 0) lead = alphabet.NormalizedOrder(*oldest++);
      index -= static_cast<uint64_t>(lead) * lead_weight_;
    }
    index = index * radix + order;
    if (held == q) f(index);
  };

  bool empty = true;
  for (char c : text) {
    const int order = alphabet.NormalizedOrder(c);
    if (order < 0) continue;
    if (empty) {
      empty = false;
      if (pad) {
        push(pad_order);
        holds_lead_pad = true;
      }
    }
    push(static_cast<uint64_t>(order));
  }
  if (pad && !empty) push(pad_order);
}

}  // namespace cbvlink

#endif  // CBVLINK_TEXT_QGRAM_H_
