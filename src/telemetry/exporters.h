// Exposition formats for a telemetry Registry.
//
// Two consumers, two formats:
//  * ToPrometheusText — the Prometheus text exposition format, for a
//    scrape endpoint or a textfile-collector drop (node_exporter).
//    Histograms are rendered as cumulative `_bucket{le=...}` series
//    plus `_sum` / `_count`, counters/gauges as single samples.
//  * ToJson / DumpJson — a self-contained JSON document carrying raw
//    bucket counts AND extracted quantiles (p50/p90/p99/max), so a
//    consumer does not have to re-derive them.  DumpJson writes through
//    the same atomic tmp + fsync + rename path as the snapshot writer
//    (src/io/serialization.h), so a scraper never reads a torn file.
//
// Both formats render a Registry::Snapshot sorted by name, so output is
// deterministic for a deterministic metric population (golden-tested in
// tests/test_telemetry.cc).

#ifndef CBVLINK_TELEMETRY_EXPORTERS_H_
#define CBVLINK_TELEMETRY_EXPORTERS_H_

#include <string>

#include "src/common/status.h"
#include "src/telemetry/metrics.h"

namespace cbvlink {
namespace telemetry {

/// Renders `snapshot` in the Prometheus text exposition format.
/// Embedded labels in metric names ('name{key="v"}') are preserved; the
/// `# TYPE` header is emitted once per base name.  Histogram names must
/// not carry embedded labels (the `le` label could not be merged).
std::string ToPrometheusText(const Registry::Snapshot& snapshot);

/// Renders `snapshot` as a JSON object:
///   {"counters": {name: value, ...},
///    "gauges": {name: value, ...},
///    "histograms": {name: {"count": c, "sum": s, "max": m, "mean": x,
///                          "p50": q, "p90": q, "p99": q,
///                          "buckets": [{"le": bound, "count": c}, ...]}}}
/// Bucket entries are non-cumulative and zero buckets are omitted; the
/// overflow bucket's "le" is the string "+Inf".
std::string ToJson(const Registry::Snapshot& snapshot);

/// Writes ToJson(snapshot) to `path` atomically (tmp + fsync + rename —
/// the io/serialization write path), so concurrent readers see either
/// the previous complete dump or the new one, never a prefix.
Status DumpJson(const Registry::Snapshot& snapshot, const std::string& path);

}  // namespace telemetry
}  // namespace cbvlink

#endif  // CBVLINK_TELEMETRY_EXPORTERS_H_
