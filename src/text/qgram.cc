#include "src/text/qgram.h"

#include <algorithm>

#include "src/common/str.h"

namespace cbvlink {

Result<QGramExtractor> QGramExtractor::Create(const Alphabet& alphabet,
                                              QGramOptions options) {
  if (options.q == 0) {
    return Status::InvalidArgument("q must be positive");
  }
  if (options.pad && !alphabet.Contains(kPadChar)) {
    return Status::InvalidArgument(
        "padding requested but alphabet lacks the padding symbol '_'");
  }
  if (alphabet.size() == 0) {
    return Status::InvalidArgument("alphabet has no symbols");
  }
  // Guard |S|^q against overflow: 64 bits comfortably hold every practical
  // configuration (q <= 12 even for the 39-symbol alphabet).
  uint64_t space = 1;
  uint64_t lead_weight = 1;
  for (size_t i = 0; i < options.q; ++i) {
    if (space > UINT64_MAX / alphabet.size()) {
      return Status::OutOfRange("|S|^q does not fit in 64 bits");
    }
    lead_weight = space;
    space *= alphabet.size();
  }
  return QGramExtractor(alphabet, options, space, lead_weight);
}

std::string QGramExtractor::Padded(std::string_view normalized) const {
  if (!options_.pad) return std::string(normalized);
  std::string padded;
  padded.reserve(normalized.size() + 2);
  padded.push_back(kPadChar);
  padded.append(normalized);
  padded.push_back(kPadChar);
  return padded;
}

std::vector<std::string> QGramExtractor::Grams(
    std::string_view normalized) const {
  std::vector<std::string> grams;
  if (normalized.empty()) return grams;
  const std::string padded = Padded(normalized);
  if (padded.size() < options_.q) return grams;
  grams.reserve(padded.size() - options_.q + 1);
  for (size_t i = 0; i + options_.q <= padded.size(); ++i) {
    grams.emplace_back(padded.substr(i, options_.q));
  }
  return grams;
}

Result<uint64_t> QGramExtractor::GramIndex(std::string_view gram) const {
  if (gram.size() != options_.q) {
    return Status::OutOfRange(
        StrFormat("gram length %zu != q=%zu", gram.size(), options_.q));
  }
  uint64_t ind = 0;
  for (char c : gram) {
    const int order = alphabet_->Order(c);
    if (order < 0) {
      return Status::OutOfRange(
          StrFormat("character 0x%02x outside alphabet",
                    static_cast<unsigned char>(c)));
    }
    ind = ind * alphabet_->size() + static_cast<uint64_t>(order);
  }
  return ind;
}

std::vector<uint64_t> QGramExtractor::IndexSet(std::string_view text) const {
  std::vector<uint64_t> indexes;
  indexes.reserve(text.size() + 2);  // >= the gram count, pads included
  ForEachIndex(text, [&](uint64_t ind) { indexes.push_back(ind); });
  std::sort(indexes.begin(), indexes.end());
  indexes.erase(std::unique(indexes.begin(), indexes.end()), indexes.end());
  return indexes;
}

size_t QGramExtractor::CountGrams(std::string_view normalized) const {
  if (normalized.empty()) return 0;
  const size_t padded_len = normalized.size() + (options_.pad ? 2 : 0);
  return padded_len < options_.q ? 0 : padded_len - options_.q + 1;
}

}  // namespace cbvlink
