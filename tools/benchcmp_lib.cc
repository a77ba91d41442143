#include "tools/benchcmp_lib.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <tuple>

#include "common/string_util.h"

namespace dd::bench {

namespace {

// ---------------------------------------------------------------------------
// Mini JSON reader — just enough for BENCH_JSON rows and the baseline
// documents (objects, arrays, strings with \-escapes, numbers, bools,
// null). Hand-rolled like every other serializer in this repo; no
// external dependency.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* Find(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonReader {
 public:
  explicit JsonReader(std::string text) : text_(std::move(text)) {}

  Result<JsonValue> Parse() {
    DD_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument(
        StrFormat("JSON parse error at offset %zu: %s", pos_,
                  message.c_str()));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f') return ParseBool();
    if (c == 'n') return ParseNull();
    return ParseNumber();
  }

  Result<JsonValue> ParseObject() {
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    if (Consume('}')) return value;
    while (true) {
      SkipSpace();
      DD_ASSIGN_OR_RETURN(JsonValue key, ParseString());
      if (!Consume(':')) return Error("expected ':' in object");
      DD_ASSIGN_OR_RETURN(JsonValue member, ParseValue());
      value.object[key.str] = std::move(member);
      if (Consume(',')) continue;
      if (Consume('}')) return value;
      return Error("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray() {
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    if (Consume(']')) return value;
    while (true) {
      DD_ASSIGN_OR_RETURN(JsonValue element, ParseValue());
      value.array.push_back(std::move(element));
      if (Consume(',')) continue;
      if (Consume(']')) return value;
      return Error("expected ',' or ']' in array");
    }
  }

  Result<JsonValue> ParseString() {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Error("expected string");
    }
    ++pos_;
    JsonValue value;
    value.kind = JsonValue::Kind::kString;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return value;
      if (c != '\\') {
        value.str += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': value.str += '"'; break;
        case '\\': value.str += '\\'; break;
        case '/': value.str += '/'; break;
        case 'n': value.str += '\n'; break;
        case 't': value.str += '\t'; break;
        case 'r': value.str += '\r'; break;
        case 'b': value.str += '\b'; break;
        case 'f': value.str += '\f'; break;
        case 'u': {
          // Flatten \uXXXX to '?' — bench rows are ASCII; the gate
          // never compares string payloads byte-for-byte.
          if (text_.size() - pos_ < 4) return Error("truncated \\u escape");
          pos_ += 4;
          value.str += '?';
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  Result<JsonValue> ParseBool() {
    JsonValue value;
    value.kind = JsonValue::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      value.boolean = true;
      pos_ += 4;
      return value;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      value.boolean = false;
      pos_ += 5;
      return value;
    }
    return Error("expected true/false");
  }

  Result<JsonValue> ParseNull() {
    if (text_.compare(pos_, 4, "null") != 0) return Error("expected null");
    pos_ += 4;
    return JsonValue{};
  }

  Result<JsonValue> ParseNumber() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected value");
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    char* end = nullptr;
    const std::string token = text_.substr(start, pos_ - start);
    value.number = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Error("malformed number");
    return value;
  }

  const std::string text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------

double NumberOr(const JsonValue& obj, const std::string& key,
                double fallback) {
  const JsonValue* v = obj.Find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kNumber ? v->number
                                                             : fallback;
}

std::string StringOr(const JsonValue& obj, const std::string& key,
                     const std::string& fallback) {
  const JsonValue* v = obj.Find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kString ? v->str
                                                             : fallback;
}

using RowKey = std::tuple<std::string, std::string, std::int64_t>;

// Folds one row object into the accumulating file: min-of-k on the
// metric (the kept row keeps its host_cores), first-seen host_cores /
// run_id for the file.
void AccumulateRow(const JsonValue& row, const std::string& metric_key,
                   const std::string& default_bench,
                   std::int64_t default_cores,
                   std::map<RowKey, BenchRow>* rows, BenchFile* file) {
  const auto host_cores = static_cast<std::int64_t>(
      NumberOr(row, "host_cores", static_cast<double>(default_cores)));
  if (file->host_cores == 0) file->host_cores = host_cores;
  if (file->run_id.empty()) file->run_id = StringOr(row, "run_id", "");
  const JsonValue* metric = row.Find(metric_key);
  if (metric == nullptr || metric->kind != JsonValue::Kind::kNumber) {
    ++file->skipped_rows;
    return;
  }
  BenchRow parsed;
  parsed.bench = StringOr(row, "bench", default_bench);
  parsed.phase = StringOr(row, "phase", "");
  parsed.threads = static_cast<std::int64_t>(NumberOr(row, "threads", 0));
  parsed.value = metric->number;
  parsed.host_cores = host_cores;
  const RowKey key{parsed.bench, parsed.phase, parsed.threads};
  auto [it, inserted] = rows->emplace(key, parsed);
  if (!inserted) {
    if (parsed.value < it->second.value) {
      it->second.value = parsed.value;
      it->second.host_cores = parsed.host_cores;
    }
    ++it->second.samples;
  }
}

Status AccumulateContent(const std::string& content,
                         const std::string& metric_key,
                         std::map<RowKey, BenchRow>* rows, BenchFile* file) {
  // Shape 1: one JSON object (a baseline document with a "rows" array).
  std::size_t first = content.find_first_not_of(" \t\r\n");
  if (first != std::string::npos && content[first] == '{') {
    JsonReader reader(content.substr(first));
    DD_ASSIGN_OR_RETURN(JsonValue doc, reader.Parse());
    const std::string default_bench = StringOr(doc, "bench", "");
    const auto doc_cores =
        static_cast<std::int64_t>(NumberOr(doc, "host_cores", 0));
    if (file->host_cores == 0) file->host_cores = doc_cores;
    if (file->run_id.empty()) file->run_id = StringOr(doc, "run_id", "");
    const JsonValue* doc_rows = doc.Find("rows");
    if (doc_rows == nullptr || doc_rows->kind != JsonValue::Kind::kArray) {
      return Status::InvalidArgument(
          "baseline document has no \"rows\" array");
    }
    for (const JsonValue& row : doc_rows->array) {
      if (row.kind != JsonValue::Kind::kObject) continue;
      AccumulateRow(row, metric_key, default_bench, doc_cores, rows, file);
    }
    return Status::Ok();
  }
  // Shape 2: raw harness stdout with BENCH_JSON lines.
  static constexpr char kMarker[] = "BENCH_JSON ";
  std::size_t line_start = 0;
  std::size_t lines_found = 0;
  while (line_start < content.size()) {
    std::size_t line_end = content.find('\n', line_start);
    if (line_end == std::string::npos) line_end = content.size();
    const std::string line =
        content.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    const std::size_t marker = line.find(kMarker);
    if (marker == std::string::npos) continue;
    ++lines_found;
    JsonReader reader(line.substr(marker + sizeof(kMarker) - 1));
    DD_ASSIGN_OR_RETURN(JsonValue row, reader.Parse());
    if (row.kind != JsonValue::Kind::kObject) {
      return Status::InvalidArgument("BENCH_JSON line is not an object");
    }
    AccumulateRow(row, metric_key, "", 0, rows, file);
  }
  if (lines_found == 0) {
    return Status::InvalidArgument(
        "input is neither a baseline JSON document nor harness output "
        "with BENCH_JSON lines");
  }
  return Status::Ok();
}

BenchFile Finish(std::map<RowKey, BenchRow> rows, BenchFile file) {
  file.rows.reserve(rows.size());
  for (auto& [key, row] : rows) file.rows.push_back(std::move(row));
  // std::map iterates in key order, so rows are already sorted by
  // (bench, phase, threads).
  return file;
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open " + path + " for reading");
  }
  std::string content;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::IoError("read error on " + path);
  return content;
}

}  // namespace

Result<BenchFile> ParseBenchContent(const std::string& content,
                                    const std::string& metric_key) {
  std::map<RowKey, BenchRow> rows;
  BenchFile file;
  DD_RETURN_IF_ERROR(AccumulateContent(content, metric_key, &rows, &file));
  return Finish(std::move(rows), std::move(file));
}

Result<BenchFile> LoadBenchFile(const std::string& path,
                                const std::string& metric_key) {
  namespace fs = std::filesystem;
  std::map<RowKey, BenchRow> rows;
  BenchFile file;
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    std::vector<std::string> entries;
    for (const fs::directory_entry& entry : fs::directory_iterator(path)) {
      if (entry.is_regular_file() && entry.path().extension() == ".json") {
        entries.push_back(entry.path().string());
      }
    }
    if (entries.empty()) {
      return Status::InvalidArgument("no .json baselines under " + path);
    }
    std::sort(entries.begin(), entries.end());
    for (const std::string& entry : entries) {
      DD_ASSIGN_OR_RETURN(std::string content, ReadFileToString(entry));
      DD_RETURN_IF_ERROR(
          AccumulateContent(content, metric_key, &rows, &file));
    }
    return Finish(std::move(rows), std::move(file));
  }
  DD_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
  DD_RETURN_IF_ERROR(AccumulateContent(content, metric_key, &rows, &file));
  return Finish(std::move(rows), std::move(file));
}

CompareReport CompareBench(const BenchFile& base, const BenchFile& fresh,
                           const CompareOptions& options) {
  CompareReport report;
  std::map<RowKey, const BenchRow*> fresh_by_key;
  for (const BenchRow& row : fresh.rows) {
    fresh_by_key[{row.bench, row.phase, row.threads}] = &row;
  }
  std::map<RowKey, bool> matched;
  for (const BenchRow& row : base.rows) {
    const RowKey key{row.bench, row.phase, row.threads};
    auto it = fresh_by_key.find(key);
    if (it == fresh_by_key.end()) {
      report.only_base.push_back(row);
      continue;
    }
    matched[key] = true;
    const std::int64_t base_cores =
        row.host_cores != 0 ? row.host_cores : base.host_cores;
    const std::int64_t fresh_cores = it->second->host_cores != 0
                                         ? it->second->host_cores
                                         : fresh.host_cores;
    if (base_cores != 0 && fresh_cores != 0 && base_cores != fresh_cores &&
        !options.allow_host_mismatch) {
      auto group = std::find_if(
          report.host_mismatches.begin(), report.host_mismatches.end(),
          [&](const HostMismatch& m) {
            return m.bench == row.bench && m.base_host_cores == base_cores &&
                   m.fresh_host_cores == fresh_cores;
          });
      if (group == report.host_mismatches.end()) {
        group = report.host_mismatches.insert(
            report.host_mismatches.end(),
            HostMismatch{row.bench, base_cores, fresh_cores, 0});
      }
      ++group->rows;
      continue;
    }
    RowComparison cmp;
    cmp.base = row;
    cmp.fresh = *it->second;
    cmp.ratio = row.value > 0.0 ? cmp.fresh.value / row.value : 0.0;
    cmp.regressed =
        cmp.fresh.value > row.value * (1.0 + options.rel_tolerance) &&
        cmp.fresh.value - row.value > options.abs_floor_s;
    if (cmp.regressed) ++report.regressions;
    report.worst_ratio = std::max(report.worst_ratio, cmp.ratio);
    report.rows.push_back(std::move(cmp));
  }
  for (const BenchRow& row : fresh.rows) {
    if (!matched.count({row.bench, row.phase, row.threads})) {
      report.only_fresh.push_back(row);
    }
  }
  return report;
}

std::string CompareReportToText(const CompareReport& report,
                                const CompareOptions& options) {
  std::string out;
  for (const HostMismatch& m : report.host_mismatches) {
    out += StrFormat(
        "REFUSED: %s: baseline captured on a %lld-core host, fresh run on "
        "%lld cores — %zu row(s) not compared, wall times are "
        "incomparable (pass --allow_host_mismatch to compare anyway)\n",
        m.bench.c_str(), static_cast<long long>(m.base_host_cores),
        static_cast<long long>(m.fresh_host_cores), m.rows);
  }
  out += StrFormat("%-20s %-22s %7s %10s %10s %7s  %s\n", "bench", "phase",
                   "threads", "base_s", "fresh_s", "ratio", "verdict");
  for (const RowComparison& cmp : report.rows) {
    out += StrFormat("%-20s %-22s %7lld %10.6f %10.6f %6.2fx  %s\n",
                     cmp.base.bench.c_str(), cmp.base.phase.c_str(),
                     static_cast<long long>(cmp.base.threads),
                     cmp.base.value, cmp.fresh.value, cmp.ratio,
                     cmp.regressed ? "REGRESSED" : "ok");
  }
  for (const BenchRow& row : report.only_base) {
    out += StrFormat("%-20s %-22s %7lld %10.6f %10s %7s  missing from "
                     "fresh run\n",
                     row.bench.c_str(), row.phase.c_str(),
                     static_cast<long long>(row.threads), row.value, "-", "-");
  }
  for (const BenchRow& row : report.only_fresh) {
    out += StrFormat("%-20s %-22s %7lld %10s %10.6f %7s  no baseline\n",
                     row.bench.c_str(), row.phase.c_str(),
                     static_cast<long long>(row.threads), "-", row.value, "-");
  }
  out += StrFormat(
      "%zu row(s) compared, %zu regression(s) (tolerance: ratio > %.2f "
      "and delta > %.3fs), worst ratio %.2fx\n",
      report.rows.size(), report.regressions, 1.0 + options.rel_tolerance,
      options.abs_floor_s, report.worst_ratio);
  return out;
}

std::string TrajectoryRow(const CompareReport& report, const BenchFile& fresh,
                          std::int64_t captured_unix) {
  std::string out = StrFormat(
      "{\"captured_unix\":%lld,\"run_id\":\"%s\",\"host_cores\":%lld,"
      "\"compared\":%zu,\"regressions\":%zu,\"worst_ratio\":%.3f,"
      "\"rows\":[",
      static_cast<long long>(captured_unix), fresh.run_id.c_str(),
      static_cast<long long>(fresh.host_cores), report.rows.size(),
      report.regressions, report.worst_ratio);
  for (std::size_t i = 0; i < fresh.rows.size(); ++i) {
    const BenchRow& row = fresh.rows[i];
    if (i > 0) out += ",";
    out += StrFormat(
        "{\"bench\":\"%s\",\"phase\":\"%s\",\"threads\":%lld,"
        "\"elapsed_s\":%.6f}",
        row.bench.c_str(), row.phase.c_str(),
        static_cast<long long>(row.threads), row.value);
  }
  out += "]}";
  return out;
}

}  // namespace dd::bench
