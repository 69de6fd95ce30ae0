#include "src/io/csv_reader.h"
#include "tests/test_paths.h"

#include <gtest/gtest.h>

#include <fstream>

namespace cbvlink {
namespace {

std::string WriteTempCsv(const std::string& name, const std::string& body) {
  const std::string path = UniqueTempPath(name);
  std::ofstream out(path);
  out << body;
  return path;
}

TEST(ParseCsvLineTest, PlainFields) {
  Result<std::vector<std::string>> fields = ParseCsvLine("a,b,c");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(fields.value(), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(ParseCsvLineTest, EmptyFieldsPreserved) {
  EXPECT_EQ(ParseCsvLine("a,,c").value(),
            (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(ParseCsvLine(",").value(), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(ParseCsvLine("").value(), (std::vector<std::string>{""}));
}

TEST(ParseCsvLineTest, QuotedFields) {
  EXPECT_EQ(ParseCsvLine("\"a,b\",c").value(),
            (std::vector<std::string>{"a,b", "c"}));
  EXPECT_EQ(ParseCsvLine("\"he said \"\"hi\"\"\",x").value(),
            (std::vector<std::string>{"he said \"hi\"", "x"}));
  EXPECT_EQ(ParseCsvLine("\"\"").value(), (std::vector<std::string>{""}));
}

TEST(ParseCsvLineTest, Malformed) {
  EXPECT_FALSE(ParseCsvLine("\"unterminated").ok());
  EXPECT_FALSE(ParseCsvLine("ab\"cd\"").ok());  // quote mid-field
}

TEST(ReadCsvDatasetTest, BasicWithIdColumn) {
  const std::string path = WriteTempCsv(
      "basic.csv",
      "id,first,last\n1,JOHN,SMITH\n2,MARY,JONES\n");
  Result<CsvDataset> dataset = ReadCsvDataset(path);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  EXPECT_EQ(dataset.value().attribute_names,
            (std::vector<std::string>{"first", "last"}));
  ASSERT_EQ(dataset.value().records.size(), 2u);
  EXPECT_EQ(dataset.value().records[0].id, 1u);
  EXPECT_EQ(dataset.value().records[0].fields,
            (std::vector<std::string>{"JOHN", "SMITH"}));
  EXPECT_EQ(dataset.value().records[1].id, 2u);
}

TEST(ReadCsvDatasetTest, AutoIdsWhenColumnAbsent) {
  const std::string path =
      WriteTempCsv("noid.csv", "first,last\nJOHN,SMITH\nMARY,JONES\n");
  CsvReadOptions options;
  options.first_auto_id = 100;
  Result<CsvDataset> dataset = ReadCsvDataset(path, options);
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset.value().records[0].id, 100u);
  EXPECT_EQ(dataset.value().records[1].id, 101u);
  EXPECT_EQ(dataset.value().attribute_names.size(), 2u);
}

TEST(ReadCsvDatasetTest, SelectedColumnsInRequestedOrder) {
  const std::string path = WriteTempCsv(
      "cols.csv", "id,first,last,town\n7,JOHN,SMITH,CARY\n");
  CsvReadOptions options;
  options.attribute_columns = {"town", "first"};
  Result<CsvDataset> dataset = ReadCsvDataset(path, options);
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset.value().records[0].fields,
            (std::vector<std::string>{"CARY", "JOHN"}));
}

TEST(ReadCsvDatasetTest, MissingRequestedColumn) {
  const std::string path = WriteTempCsv("miss.csv", "id,a\n1,x\n");
  CsvReadOptions options;
  options.attribute_columns = {"nope"};
  EXPECT_FALSE(ReadCsvDataset(path, options).ok());
}

TEST(ReadCsvDatasetTest, CrlfAndBlankLines) {
  const std::string path = WriteTempCsv(
      "crlf.csv", "id,a\r\n1,x\r\n\r\n2,y\r\n");
  Result<CsvDataset> dataset = ReadCsvDataset(path);
  ASSERT_TRUE(dataset.ok());
  ASSERT_EQ(dataset.value().records.size(), 2u);
  EXPECT_EQ(dataset.value().records[1].fields[0], "y");
}

TEST(ReadCsvDatasetTest, FieldCountMismatchRejected) {
  const std::string path = WriteTempCsv("badrow.csv", "id,a,b\n1,x\n");
  Result<CsvDataset> dataset = ReadCsvDataset(path);
  EXPECT_FALSE(dataset.ok());
  EXPECT_EQ(dataset.status().code(), StatusCode::kInvalidArgument);
}

TEST(ReadCsvDatasetTest, UnparsableIdRejected) {
  const std::string path = WriteTempCsv("badid.csv", "id,a\nseven,x\n");
  EXPECT_FALSE(ReadCsvDataset(path).ok());
}

TEST(ReadCsvDatasetTest, MissingFileAndEmptyFile) {
  EXPECT_EQ(ReadCsvDataset("/nonexistent/x.csv").status().code(),
            StatusCode::kIOError);
  const std::string path = WriteTempCsv("empty.csv", "");
  EXPECT_EQ(ReadCsvDataset(path).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ReadCsvDatasetTest, LenientModeSkipsAndCountsMalformedRows) {
  const std::string path = WriteTempCsv(
      "lenient.csv",
      "id,a,b\n"
      "1,x,y\n"
      "2,onlyone\n"          // field-count mismatch
      "seven,p,q\n"          // unparsable id
      "3,\"unterminated\n"   // parse error
      "4,m,n\n");
  CsvReadOptions options;
  options.skip_malformed_rows = true;
  Result<CsvDataset> dataset = ReadCsvDataset(path, options);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  ASSERT_EQ(dataset.value().records.size(), 2u);
  EXPECT_EQ(dataset.value().records[0].id, 1u);
  EXPECT_EQ(dataset.value().records[1].id, 4u);
  EXPECT_EQ(dataset.value().skipped_rows, 3u);
  ASSERT_EQ(dataset.value().skip_errors.size(), 3u);

  // Header problems stay fatal even in lenient mode.
  const std::string bad_header = WriteTempCsv("lenient_hdr.csv", "\"x\n1\n");
  EXPECT_FALSE(ReadCsvDataset(bad_header, options).ok());

  // Strict mode still rejects the whole file.
  EXPECT_FALSE(ReadCsvDataset(path).ok());
}

TEST(ReadCsvDatasetTest, QuotedFieldWithCommaRoundTrips) {
  const std::string path = WriteTempCsv(
      "quoted.csv", "id,address\n1,\"12 OAK ST, APT 4\"\n");
  Result<CsvDataset> dataset = ReadCsvDataset(path);
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset.value().records[0].fields[0], "12 OAK ST, APT 4");
}

}  // namespace
}  // namespace cbvlink
