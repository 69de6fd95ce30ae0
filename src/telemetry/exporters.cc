#include "src/telemetry/exporters.h"

#include <cinttypes>
#include <cmath>
#include <string>

#include "src/common/str.h"
#include "src/io/serialization.h"

namespace cbvlink {
namespace telemetry {

namespace {

/// Splits 'base{labels}' into base and '{labels}' ("" when unlabeled).
void SplitName(const std::string& name, std::string* base,
               std::string* labels) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos) {
    *base = name;
    labels->clear();
  } else {
    *base = name.substr(0, brace);
    *labels = name.substr(brace);
  }
}

/// Numbers render as integers when they are integers (counter-like
/// gauges stay grep-able), as shortest-ish decimals otherwise.
std::string FormatNumber(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) < 1e15) {
    return StrFormat("%lld", static_cast<long long>(value));
  }
  return StrFormat("%.9g", value);
}

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out->append(StrFormat("\\u%04x", c));
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

std::string ToPrometheusText(const Registry::Snapshot& snapshot) {
  std::string out;
  std::string base, labels, last_typed;

  for (const auto& [name, value] : snapshot.counters) {
    SplitName(name, &base, &labels);
    if (base != last_typed) {
      out += StrFormat("# TYPE %s counter\n", base.c_str());
      last_typed = base;
    }
    out += StrFormat("%s%s %" PRIu64 "\n", base.c_str(), labels.c_str(),
                     value);
  }
  last_typed.clear();
  for (const auto& [name, value] : snapshot.gauges) {
    SplitName(name, &base, &labels);
    if (base != last_typed) {
      out += StrFormat("# TYPE %s gauge\n", base.c_str());
      last_typed = base;
    }
    out += StrFormat("%s%s %s\n", base.c_str(), labels.c_str(),
                     FormatNumber(value).c_str());
  }
  for (const auto& [name, snap] : snapshot.histograms) {
    out += StrFormat("# TYPE %s histogram\n", name.c_str());
    uint64_t cumulative = 0;
    for (size_t i = 0; i < Histogram::kBuckets; ++i) {
      cumulative += snap.buckets[i];
      // Empty trailing buckets still need their cumulative sample, but
      // interior all-zero prefixes are kept too: Prometheus requires
      // every le series to be present on every scrape.
      if (i < Histogram::kFiniteBuckets) {
        out += StrFormat("%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n",
                         name.c_str(), Histogram::UpperBound(i), cumulative);
      } else {
        out += StrFormat("%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", name.c_str(),
                         cumulative);
      }
    }
    out += StrFormat("%s_sum %" PRIu64 "\n", name.c_str(), snap.sum);
    out += StrFormat("%s_count %" PRIu64 "\n", name.c_str(), snap.count);
  }
  return out;
}

std::string ToJson(const Registry::Snapshot& snapshot) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(name, &out);
    out += StrFormat(": %" PRIu64, value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(name, &out);
    out += ": " + FormatNumber(value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, snap] : snapshot.histograms) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(name, &out);
    out += StrFormat(
        ": {\"count\": %" PRIu64 ", \"sum\": %" PRIu64 ", \"max\": %" PRIu64
        ", \"mean\": %s, \"p50\": %s, \"p90\": %s, \"p99\": %s, "
        "\"buckets\": [",
        snap.count, snap.sum, snap.max, FormatNumber(snap.Mean()).c_str(),
        FormatNumber(snap.Quantile(0.50)).c_str(),
        FormatNumber(snap.Quantile(0.90)).c_str(),
        FormatNumber(snap.Quantile(0.99)).c_str());
    bool first_bucket = true;
    for (size_t i = 0; i < Histogram::kBuckets; ++i) {
      if (snap.buckets[i] == 0) continue;  // zero buckets omitted
      if (!first_bucket) out += ", ";
      first_bucket = false;
      if (i < Histogram::kFiniteBuckets) {
        out += StrFormat("{\"le\": %" PRIu64 ", \"count\": %" PRIu64 "}",
                         Histogram::UpperBound(i), snap.buckets[i]);
      } else {
        out += StrFormat("{\"le\": \"+Inf\", \"count\": %" PRIu64 "}",
                         snap.buckets[i]);
      }
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

Status DumpJson(const Registry::Snapshot& snapshot, const std::string& path) {
  return WriteFileAtomically(path, ToJson(snapshot));
}

}  // namespace telemetry
}  // namespace cbvlink
