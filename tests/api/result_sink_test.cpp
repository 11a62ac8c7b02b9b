// ResultSink backends: Table/CSV/JSON rendering, escaping, width checking,
// and registry resolution, plus emit() over a real SweepResult.
#include "bsr/result_sink.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bsr/registry.hpp"
#include "bsr/sweep.hpp"
#include "common/json.hpp"

namespace bsr {
namespace {

TEST(ResultSink, CsvEscapesDelimitersAndQuotes) {
  std::ostringstream out;
  CsvSink sink(out);
  sink.begin({"name", "value"});
  sink.add_row({"plain", "1.5"});
  sink.add_row({"with,comma", "say \"hi\""});
  sink.end();
  EXPECT_EQ(out.str(),
            "name,value\n"
            "plain,1.5\n"
            "\"with,comma\",\"say \"\"hi\"\"\"\n");
}

TEST(ResultSink, JsonQuotesStringsAndPassesNumbers) {
  std::ostringstream out;
  JsonSink sink(out);
  sink.begin({"strategy", "energy_j", "note"});
  sink.add_row({"bsr", "123.5", "all \"good\""});
  sink.add_row({"sr", "130", "a\nb"});
  sink.end();
  const std::string json = out.str();
  EXPECT_NE(json.find("\"strategy\": \"bsr\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"energy_j\": 123.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"note\": \"all \\\"good\\\"\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"a\\nb\""), std::string::npos) << json;
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.size() - 2], ']');
}

TEST(ResultSink, JsonQuotesStrtodAcceptedNonJsonTokens) {
  // strtod accepts these, but strict JSON parsers do not — they must be
  // emitted as strings, not bare tokens.
  std::ostringstream out;
  JsonSink sink(out);
  sink.begin({"a", "b", "c", "d", "e"});
  sink.add_row({".5", "+5", "0x1f", "5.", "01"});
  sink.end();
  const std::string json = out.str();
  EXPECT_NE(json.find("\".5\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"+5\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"0x1f\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"5.\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"01\""), std::string::npos) << json;
  // Valid JSON numbers still pass through bare.
  std::ostringstream out2;
  JsonSink sink2(out2);
  sink2.begin({"a", "b", "c"});
  sink2.add_row({"-0.5", "1e5", "0"});
  sink2.end();
  EXPECT_NE(out2.str().find("\"a\": -0.5"), std::string::npos) << out2.str();
  EXPECT_NE(out2.str().find("\"b\": 1e5"), std::string::npos) << out2.str();
  EXPECT_NE(out2.str().find("\"c\": 0"), std::string::npos) << out2.str();
}

/// Strings that exercise every branch of the JSON string escaper: quotes,
/// backslash, the named control escapes, other C0 controls (\u00XX), and
/// bytes that must pass through verbatim (DEL, UTF-8).
std::vector<std::string> tricky_strings() {
  return {"plain",          "say \"hi\"",  "C:\\dir\\file", "line\nbreak",
          "cr\rtab\t",      "bell\a",      std::string("nul\0x", 5),
          "esc\x1b[0m",     "unit\x1f",    "del\x7f",       "caf\xc3\xa9"};
}

TEST(ResultSink, JsonQuotesExactlyAsTheSharedJsonWriter) {
  // JsonSink has no escaper of its own: column names and string cells are
  // byte-for-byte json_quote's output, so `--format=json` and the daemon's
  // wire format can never disagree on a string.
  const std::vector<std::string> cells = tricky_strings();
  std::vector<std::string> columns;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    columns.push_back("col " + cells[i]);
  }
  std::ostringstream out;
  JsonSink sink(out);
  sink.begin(columns);
  sink.add_row(cells);
  sink.end();
  std::string expected = "[\n  {";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) expected += ", ";
    expected += json_quote(columns[i]) + ": " + json_quote(cells[i]);
  }
  expected += "}\n]\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(ResultSink, JsonOutputParsesBackToTheRowsItWasGiven) {
  const std::vector<std::string> cells = tricky_strings();
  std::vector<std::string> columns;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    columns.push_back("c" + std::to_string(i));
  }
  std::ostringstream out;
  JsonSink sink(out);
  sink.begin(columns);
  sink.add_row(cells);
  std::vector<std::string> numbers(columns.size(), "-1.25e3");
  sink.add_row(numbers);
  sink.end();

  const JsonValue doc = JsonValue::parse(out.str());
  ASSERT_TRUE(doc.is_array());
  ASSERT_EQ(doc.items().size(), 2u);
  const auto& strings = doc.items()[0].members();
  const auto& nums = doc.items()[1].members();
  ASSERT_EQ(strings.size(), columns.size());
  ASSERT_EQ(nums.size(), columns.size());
  for (std::size_t i = 0; i < columns.size(); ++i) {
    EXPECT_EQ(strings[i].first, columns[i]);  // member order = column order
    ASSERT_TRUE(strings[i].second.is_string()) << columns[i];
    EXPECT_EQ(strings[i].second.as_string(), cells[i]) << columns[i];
    ASSERT_TRUE(nums[i].second.is_number()) << columns[i];
    EXPECT_EQ(nums[i].second.number_token(), "-1.25e3");
  }
}

TEST(ResultSink, JsonWithNoRowsIsAnEmptyArray) {
  std::ostringstream out;
  JsonSink sink(out);
  sink.begin({"a", "b"});
  sink.end();
  EXPECT_EQ(out.str(), "[\n]\n");
  const JsonValue doc = JsonValue::parse(out.str());
  ASSERT_TRUE(doc.is_array());
  EXPECT_TRUE(doc.items().empty());
}

TEST(ResultSink, TableRendersHeadersAndRows) {
  std::ostringstream out;
  TableSink sink(out);
  sink.begin({"Strategy", "Energy"});
  sink.add_row({"bsr", "123"});
  sink.end();
  const std::string table = out.str();
  EXPECT_NE(table.find("Strategy"), std::string::npos);
  EXPECT_NE(table.find("bsr"), std::string::npos);
  EXPECT_NE(table.find("123"), std::string::npos);
}

TEST(ResultSink, RowWidthMismatchThrows) {
  std::ostringstream out;
  CsvSink sink(out);
  sink.begin({"a", "b"});
  EXPECT_THROW(sink.add_row({"only-one"}), std::invalid_argument);
}

TEST(ResultSink, RegistryResolvesAllBackends) {
  std::ostringstream out;
  for (const std::string& key : result_sinks().keys()) {
    EXPECT_NE(make_result_sink(key, out), nullptr) << key;
  }
  EXPECT_THROW((void)make_result_sink("xml", out), std::invalid_argument);
}

TEST(ResultSink, EmitStreamsASweepGrid) {
  RunConfig base;
  base.n = 4096;
  const SweepResult grid = Sweep(base)
                               .over(strategy_axis({"original", "bsr"}))
                               .baseline("original")
                               .threads(1)
                               .run();
  std::ostringstream out;
  CsvSink sink(out);
  emit(grid, sink);
  const std::string csv = out.str();
  // Header: axis column + metrics + baseline-relative columns.
  EXPECT_NE(csv.find("strategy,time_s,gflops,energy_j,ed2p,saving"),
            std::string::npos)
      << csv;
  // One line per row plus the header.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
  EXPECT_NE(csv.find("original,"), std::string::npos);
  EXPECT_NE(csv.find("bsr,"), std::string::npos);
}

}  // namespace
}  // namespace bsr
