// cbvbench: one workload of the cbvlink benchmark per invocation.
//
//   cbvbench --workload <link_pl|link_ph|serve_query|serve_churn>
//            --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//            [--source-id <id>]
//
// Prints one JSON line on stdout: provenance, correctness checks,
// attempted/failed op counts, and three metric tables (end_to_end,
// per_layer, detail), each metric with value, unit and sample count.
// Progress goes to stderr.  Exit code 0 when every check passed, 1 when a
// check failed, 2 on a usage error.  cbvbench/run.py builds this binary
// and turns its output into the benchmark's report.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "cbvbench/harness.h"
#include "src/common/hamming_kernels.h"
#include "src/common/str.h"

namespace cbvbench {
namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += cbvlink::StrFormat("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  return cbvlink::StrFormat("%.17g", value);
}

std::string JsonTable(const MetricTable& table) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : table.entries()) {
    out += first ? "" : ",";
    first = false;
    out += JsonString(name) + ":{\"value\":" + JsonNumber(metric.value) +
           ",\"unit\":" + JsonString(metric.unit) +
           ",\"samples\":" + std::to_string(metric.samples) + "}";
  }
  return out + "}";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return std::string(cbvlink::StripAsciiWhitespace(
            std::string_view(line).substr(colon + 1)));
      }
    }
  }
  return "unknown";
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "cbvbench: %s\nusage: cbvbench --workload <link_pl|link_ph|"
               "serve_query|serve_churn> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir> [--source-id <id>]\n",
               message);
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--source-id") {
      config.source_id = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (config.work_dir.empty()) return Usage("--work-dir is required");
  if (!(config.seconds > 0)) return Usage("--seconds must be positive");

  const size_t nproc =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  config.pool_threads = std::min<size_t>(4, nproc);
  config.connections = std::min<size_t>(2, nproc);
  SpanRecorder spans;
  if (config.trace) config.spans = &spans;

  RunResult result;
  if (config.workload == "link_pl") {
    result = RunLinkWorkload(config, /*heavy=*/false);
  } else if (config.workload == "link_ph") {
    result = RunLinkWorkload(config, /*heavy=*/true);
  } else if (config.workload == "serve_query") {
    result = RunServeQuery(config);
  } else if (config.workload == "serve_churn") {
    result = RunServeChurn(config);
  } else {
    return Usage(("unknown workload '" + config.workload + "'").c_str());
  }

  // Every gated metric must be present and finite on every workload.
  for (const auto& [name, unit] : EndToEndMetrics()) {
    const Metric* metric = result.end_to_end.Find(name);
    if (metric == nullptr || !std::isfinite(metric->value) ||
        metric->value <= 0) {
      result.checks.push_back(
          {"end-to-end metric " + name + " measured", false,
           metric == nullptr ? "missing" : "not a positive number"});
    }
  }
  if (result.attempted == 0) {
    result.checks.push_back({"at least one op attempted", false, ""});
  }

  if (config.trace) {
    const std::string path = config.work_dir + "/trace_" + config.workload +
                             "_" + std::to_string(config.seed) + ".json";
    const cbvlink::Status written = spans.WriteChromeTrace(path);
    result.checks.push_back({"trace written", written.ok(),
                             written.ok() ? path : written.ToString()});
    result.provenance.emplace_back("trace_file", path);
    result.provenance.emplace_back("trace_spans",
                                   std::to_string(spans.size()));
  }

  std::vector<std::pair<std::string, std::string>> provenance = {
      {"workload", config.workload},
      {"source_id", config.source_id.empty() ? "unknown" : config.source_id},
      {"compiler", CBVBENCH_COMPILER},
      {"build_type", CBVBENCH_BUILD_TYPE},
      {"cpu_model", CpuModel()},
      {"hamming_kernel", cbvlink::ActiveKernels().name},
      {"nproc", std::to_string(nproc)},
      {"seed", std::to_string(config.seed)},
      {"seconds", JsonNumber(config.seconds)},
      {"traced", config.trace ? "1" : "0"},
  };
  provenance.insert(provenance.end(), result.provenance.begin(),
                    result.provenance.end());

  bool correct = true;
  std::string checks = "[";
  for (size_t i = 0; i < result.checks.size(); ++i) {
    const Check& check = result.checks[i];
    correct = correct && check.ok;
    checks += i == 0 ? "{\"name\":" : ",{\"name\":";
    checks += JsonString(check.name);
    checks += check.ok ? ",\"ok\":true" : ",\"ok\":false";
    checks += ",\"detail\":";
    checks += JsonString(check.detail);
    checks += "}";
  }
  checks += "]";
  std::string prov = "{";
  for (size_t i = 0; i < provenance.size(); ++i) {
    prov += i == 0 ? "" : ",";
    prov += JsonString(provenance[i].first);
    prov += ":";
    prov += JsonString(provenance[i].second);
  }
  prov += "}";

  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"provenance\":%s,"
      "\"checks\":%s,\"end_to_end\":%s,\"per_layer\":%s,\"detail\":%s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), prov.c_str(),
      checks.c_str(), JsonTable(result.end_to_end).c_str(),
      JsonTable(result.per_layer).c_str(), JsonTable(result.detail).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace cbvbench

int main(int argc, char** argv) { return cbvbench::Main(argc, argv); }
