#include "bsr/result_sink.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <stdexcept>

#include "bsr/registry.hpp"
#include "common/json.hpp"
#include "common/table_printer.hpp"

namespace bsr {

void require_result_sink_or_exit(const std::string& key) {
  try {
    (void)result_sinks().get(key);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
}

namespace {

void check_width(std::size_t expected, std::size_t got) {
  if (expected != got) {
    throw std::invalid_argument("ResultSink: row has " + std::to_string(got) +
                                " values, header has " +
                                std::to_string(expected) + " columns");
  }
}

}  // namespace

// ---- TableSink --------------------------------------------------------------

void TableSink::begin(const std::vector<std::string>& columns) {
  columns_ = columns;
  rows_.clear();
}

void TableSink::add_row(const std::vector<std::string>& values) {
  check_width(columns_.size(), values.size());
  rows_.push_back(values);
}

void TableSink::end() {
  TablePrinter t(columns_);
  for (const auto& row : rows_) t.add_row(row);
  *out_ << t.to_string();
  out_->flush();
}

// ---- CsvSink ----------------------------------------------------------------

namespace {

std::string csv_field(const std::string& v) {
  if (v.find_first_of(",\"\n\r") == std::string::npos) return v;
  std::string quoted = "\"";
  for (const char c : v) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

void csv_line(std::ostream& out, const std::vector<std::string>& values) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out << ',';
    out << csv_field(values[i]);
  }
  out << '\n';
}

}  // namespace

void CsvSink::begin(const std::vector<std::string>& columns) {
  columns_ = columns.size();
  csv_line(*out_, columns);
}

void CsvSink::add_row(const std::vector<std::string>& values) {
  check_width(columns_, values.size());
  csv_line(*out_, values);
}

void CsvSink::end() { out_->flush(); }

// ---- JsonSink ---------------------------------------------------------------

namespace {

/// Strict RFC 8259 number grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
/// (strtod alone is too permissive — it accepts ".5", "+5", "0x1f", "5.",
/// none of which are valid JSON tokens).
bool is_json_number(const std::string& v) {
  std::size_t i = 0;
  const std::size_t n = v.size();
  const auto digit = [&](std::size_t k) {
    return k < n && v[k] >= '0' && v[k] <= '9';
  };
  if (i < n && v[i] == '-') ++i;
  if (!digit(i)) return false;
  if (v[i] == '0') {
    ++i;
  } else {
    while (digit(i)) ++i;
  }
  if (i < n && v[i] == '.') {
    ++i;
    if (!digit(i)) return false;
    while (digit(i)) ++i;
  }
  if (i < n && (v[i] == 'e' || v[i] == 'E')) {
    ++i;
    if (i < n && (v[i] == '+' || v[i] == '-')) ++i;
    if (!digit(i)) return false;
    while (digit(i)) ++i;
  }
  return i == n;
}

std::string json_value(const std::string& v) {
  // Pass finite numbers through unquoted so consumers get real numbers.
  if (is_json_number(v)) {
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(v.c_str(), &end);
    if (end == v.c_str() + v.size() && errno == 0 && std::isfinite(d)) {
      return v;
    }
  }
  return json_quote(v);
}

}  // namespace

void JsonSink::begin(const std::vector<std::string>& columns) {
  columns_ = columns;
  first_row_ = true;
  *out_ << "[";
}

void JsonSink::add_row(const std::vector<std::string>& values) {
  check_width(columns_.size(), values.size());
  *out_ << (first_row_ ? "\n" : ",\n") << "  {";
  first_row_ = false;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) *out_ << ", ";
    *out_ << json_quote(columns_[i]) << ": " << json_value(values[i]);
  }
  *out_ << '}';
}

void JsonSink::end() {
  *out_ << "\n]\n";
  out_->flush();
}

}  // namespace bsr
