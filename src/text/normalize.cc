#include "src/text/normalize.h"

namespace cbvlink {

std::string Normalize(std::string_view raw, const Alphabet& alphabet) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    const int order = alphabet.NormalizedOrder(c);
    if (order >= 0) out.push_back(alphabet.symbols()[order]);
  }
  return out;
}

}  // namespace cbvlink
