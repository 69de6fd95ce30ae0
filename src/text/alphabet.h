// Symbol alphabets for q-gram indexing.
//
// Algorithm 1 of the paper maps a q-gram to an integer index by treating
// its characters as base-|S| digits, where S is the q-gram alphabet.  The
// paper's running examples use S = {A..Z} (|S| = 26, so bigram vectors have
// 676 positions), while its padding convention ('_JONES_') introduces a
// 27th symbol.  Alphabet makes the symbol set explicit and configurable so
// both conventions — and richer sets with digits for address-like
// attributes — are supported.

#ifndef CBVLINK_TEXT_ALPHABET_H_
#define CBVLINK_TEXT_ALPHABET_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace cbvlink {

/// The padding character prepended/appended to strings before q-gram
/// extraction (footnote 4 of the paper).
inline constexpr char kPadChar = '_';

/// An ordered set of symbols; gives each symbol a zero-based order used as
/// a base-|S| digit by the q-gram index mapping.
class Alphabet {
 public:
  /// Builds an alphabet from an ordered list of distinct symbols.
  /// Duplicate symbols keep their first position.
  explicit Alphabet(std::string_view symbols);

  /// A..Z — the paper's illustrative alphabet (|S| = 26).
  static const Alphabet& Uppercase();

  /// A..Z plus the padding character (|S| = 27).  The default used by the
  /// encoders, since padded q-grams must be representable.
  static const Alphabet& UppercasePadded();

  /// A..Z, 0..9, space, and the padding character (|S| = 38).  Suitable
  /// for address-like attributes that mix letters and digits.
  static const Alphabet& Alphanumeric();

  /// Number of symbols.
  size_t size() const { return symbols_.size(); }

  /// Zero-based order of `c`, or -1 if `c` is not in the alphabet.
  int Order(char c) const {
    return order_[static_cast<unsigned char>(c)];
  }

  /// True iff `c` is a symbol of this alphabet.
  bool Contains(char c) const { return Order(c) >= 0; }

  /// The order of `c` after Normalize()'s rule — ASCII letters fold to
  /// upper case, the padding character and out-of-alphabet bytes are
  /// dropped — or -1 if Normalize() drops `c`.
  int NormalizedOrder(char c) const {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
    return c == kPadChar ? -1 : Order(c);
  }

  /// The symbols, in order.
  const std::string& symbols() const { return symbols_; }

  /// Number of distinct q-grams over this alphabet: |S|^q.
  /// Requires the result to fit in 64 bits.
  uint64_t NumQGrams(size_t q) const;

 private:
  std::string symbols_;
  std::array<int, 256> order_;
};

}  // namespace cbvlink

#endif  // CBVLINK_TEXT_ALPHABET_H_
