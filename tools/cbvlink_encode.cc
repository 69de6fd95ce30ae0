// cbvlink_encode: embed a CSV data set into compact c-vectors and write
// them in the binary wire format — what a data custodian would ship to
// Charlie in the paper's protocol (Section 3).
//
// Usage:
//   cbvlink_encode --in records.csv --out records.cbv [options]
//
// Options:
//   --in FILE           input CSV (header row; see --id-column)
//   --out FILE          output encoded-record file
//   --id-column NAME    id column (default "id")
//   --alphanumeric      alphanumeric alphabet (default: uppercase letters)
//   --rho X             Theorem 1 max expected collisions (default 1.0)
//   --r X               Theorem 1 confidence ratio (default 1/3)
//   --seed N            hash-family seed; custodians must share it
//                       (default 7)

#include <cstdio>
#include <cstring>
#include <string>

#include "src/embedding/record_encoder.h"
#include "src/io/csv_reader.h"
#include "src/io/serialization.h"

namespace cbvlink {
namespace {

int RunMain(int argc, char** argv) {
  std::string in_path;
  std::string out_path;
  std::string id_column = "id";
  bool alphanumeric = false;
  OptimalSizeOptions sizing;
  uint64_t seed = 7;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (flag == "--in") {
      const char* v = next();
      if (!v) return 2;
      in_path = v;
    } else if (flag == "--out") {
      const char* v = next();
      if (!v) return 2;
      out_path = v;
    } else if (flag == "--id-column") {
      const char* v = next();
      if (!v) return 2;
      id_column = v;
    } else if (flag == "--alphanumeric") {
      alphanumeric = true;
    } else if (flag == "--rho") {
      const char* v = next();
      if (!v) return 2;
      sizing.max_collisions = std::strtod(v, nullptr);
    } else if (flag == "--r") {
      const char* v = next();
      if (!v) return 2;
      sizing.confidence_ratio = std::strtod(v, nullptr);
    } else if (flag == "--seed") {
      const char* v = next();
      if (!v) return 2;
      seed = std::strtoull(v, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return 2;
    }
  }
  if (in_path.empty() || out_path.empty()) {
    std::fprintf(stderr,
                 "usage: cbvlink_encode --in records.csv --out records.cbv "
                 "[--id-column NAME]\n"
                 "  [--alphanumeric] [--rho X] [--r X] [--seed N]\n");
    return 2;
  }

  CsvReadOptions read_options;
  read_options.id_column = id_column;
  Result<CsvDataset> dataset = ReadCsvDataset(in_path, read_options);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }

  Schema schema;
  const Alphabet& alphabet =
      alphanumeric ? Alphabet::Alphanumeric() : Alphabet::Uppercase();
  for (const std::string& name : dataset.value().attribute_names) {
    schema.attributes.push_back(
        {name, &alphabet, QGramOptions{.q = 2, .pad = false}});
  }

  Rng rng(seed);
  Result<CVectorRecordEncoder> encoder = CVectorRecordEncoder::Create(
      schema, EstimateExpectedQGrams(schema, dataset.value().records), rng,
      sizing);
  if (!encoder.ok()) {
    std::fprintf(stderr, "%s\n", encoder.status().ToString().c_str());
    return 1;
  }

  Result<std::vector<EncodedRecord>> encoded =
      encoder.value().EncodeAll(dataset.value().records);
  if (!encoded.ok()) {
    std::fprintf(stderr, "%s\n", encoded.status().ToString().c_str());
    return 1;
  }
  const Status write_status =
      WriteEncodedRecordsToFile(encoded.value(), out_path);
  if (!write_status.ok()) {
    std::fprintf(stderr, "%s\n", write_status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "encoded %zu records at %zu bits each into %s "
               "(attribute sizes:",
               encoded.value().size(), encoder.value().total_bits(),
               out_path.c_str());
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    std::fprintf(stderr, " %zu", encoder.value().layout().segment(i).size);
  }
  std::fprintf(stderr, ")\n");
  return 0;
}

}  // namespace
}  // namespace cbvlink

int main(int argc, char** argv) { return cbvlink::RunMain(argc, argv); }
