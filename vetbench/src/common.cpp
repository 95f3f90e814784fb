#include "common.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "serve/codec.hpp"
#include "workload/journal.hpp"

namespace vetbench {

const WorkloadSpec& workload_spec(std::string_view name) {
  // Scans carry 1000 apps per repetition, so each repetition's p99 has ten
  // samples beyond it; serve percentiles pool the nominal legs for the
  // same. Each ladder rung is only tried while the one below it met the
  // limit. update-stream's nominal leg is a burst (every update due at
  // once), so its queue holds the whole burst.
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> all(4);
    all[0].name = "corpus-scan";
    all[0].apps = 1000;
    all[1].name = "serve-new";
    all[1].apps = 1000;
    all[1].resubmit_share = 0.05;
    all[1].nominal_rate = 300;
    all[1].nominal_requests = 1000;
    all[1].rung_requests = 600;
    all[1].ladder = {300, 600, 900, 1800};
    all[1].queue = 64;
    all[2].name = "update-stream";
    all[2].apps = 100;
    all[2].versions = 5;
    all[2].chain_loc = 20000;
    all[2].nominal_requests = 400;
    all[2].rung_requests = 300;
    all[2].ladder = {150, 600, 1200};
    all[2].queue = 512;
    all[3].name = "fleet";
    all[3].apps = 1000;
    return all;
  }();
  for (const auto& spec : specs)
    if (spec.name == name) return spec;
  throw std::runtime_error("unknown workload " + std::string{name});
}

std::string read_text(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_text(const std::string& path, std::string_view text) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find(sep, start);
    if (end == std::string_view::npos) {
      if (start < text.size()) parts.emplace_back(text.substr(start));
      break;
    }
    parts.emplace_back(text.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t state) {
  for (const char c : bytes) {
    state ^= static_cast<unsigned char>(c);
    state *= 0x100000001b3ULL;
  }
  return state;
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::map<std::string, Expected> load_expected(const std::string& path) {
  std::map<std::string, Expected> expected;
  for (const auto& line : split(read_text(path), '\n')) {
    const std::size_t a = line.find('\t');
    const std::size_t b = line.find('\t', a + 1);
    if (a == std::string::npos || b == std::string::npos) continue;
    const std::string state = line.substr(a + 1, b - a - 1);
    expected[line.substr(0, a)] =
        Expected{state != "bad", state == "known", line.substr(b + 1)};
  }
  return expected;
}

std::vector<ManifestEntry> load_manifest(const std::string& dir) {
  std::vector<ManifestEntry> entries;
  for (const auto& line : split(read_text(dir + "/manifest.tsv"), '\n')) {
    const auto fields = split(line, '\t');
    if (fields.size() != 3) continue;
    entries.push_back({fields[0], fields[1], std::stoi(fields[2])});
  }
  return entries;
}

std::vector<Scheduled> load_schedule(const std::string& path) {
  std::vector<Scheduled> schedule;
  for (const auto& line : split(read_text(path), '\n')) {
    const auto fields = split(line, '\t');
    if (fields.size() != 2) continue;
    schedule.push_back({std::stod(fields[0]), fields[1]});
  }
  return schedule;
}

RowVerdict check_row(const std::map<std::string, Expected>& expected,
                     const std::string& stem, std::string_view line) {
  const auto it = expected.find(stem);
  if (it == expected.end()) return RowVerdict::kUnknown;
  const auto row = saintdroid::parse_journal_line(line);
  if (!row.has_value()) return RowVerdict::kWrong;
  if (!row->completed || row->failure.has_value()) return RowVerdict::kFailed;
  if (row->incomplete) return RowVerdict::kIncomplete;
  if (!it->second.ok) return RowVerdict::kWrong;
  if (saintdroid::canonical_row_bytes(*row) == it->second.row)
    return it->second.known ? RowVerdict::kKnown : RowVerdict::kOk;
  // Known defect of the incremental layer: a hit can report other loaded
  // class and peak footprint counts than the from-scratch run of the same
  // version (a few classes off). Anything else that differs, findings
  // included, is still a wrong row.
  const auto reference = saintdroid::parse_journal_line(it->second.row);
  if (row->incr.hits == 0 || !reference) return RowVerdict::kWrong;
  auto patched = *row;
  patched.usage.loaded_classes = reference->usage.loaded_classes;
  patched.usage.peak_bytes = reference->usage.peak_bytes;
  return saintdroid::canonical_row_bytes(patched) == it->second.row
             ? RowVerdict::kKnown
             : RowVerdict::kWrong;
}

bool accepted(RowVerdict verdict) {
  return verdict == RowVerdict::kOk || verdict == RowVerdict::kKnown;
}

const char* verdict_name(RowVerdict verdict) {
  switch (verdict) {
    case RowVerdict::kOk: return "ok";
    case RowVerdict::kKnown: return "known_defect";
    case RowVerdict::kUnknown: return "unknown";
    case RowVerdict::kWrong: return "wrong";
    case RowVerdict::kFailed: return "failed";
    case RowVerdict::kIncomplete: return "incomplete";
  }
  return "?";
}

void JsonOut::key(std::string_view k) {
  if (!body_.empty()) body_ += ",";
  body_ += "\"";
  body_ += k;
  body_ += "\":";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.9g", value);
  return buffer;
}

JsonOut& JsonOut::num(std::string_view k, double value) {
  key(k);
  body_ += json_number(value);
  return *this;
}

JsonOut& JsonOut::integer(std::string_view k, long long value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonOut& JsonOut::str(std::string_view k, std::string_view value) {
  key(k);
  body_ += "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') body_ += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) body_ += c;
  }
  body_ += "\"";
  return *this;
}

JsonOut& JsonOut::boolean(std::string_view k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

JsonOut& JsonOut::raw(std::string_view k, std::string_view json) {
  key(k);
  body_ += json;
  return *this;
}

JsonOut& JsonOut::nums(std::string_view k, const std::vector<double>& values) {
  key(k);
  body_ += "[";
  char buffer[64];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buffer, sizeof buffer, "%s%.6g", i ? "," : "", values[i]);
    body_ += buffer;
  }
  body_ += "]";
  return *this;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace vetbench
