// Shared pieces of the benchmark helpers: the workload parameters, the
// layout of a generated input directory, and small file/JSON utilities.
//
// A generated input directory (written by `sdbench gen`) holds
//
//   apps/<stem>.apk     every package the workload sends to saintdroid
//   manifest.tsv        role <TAB> stem <TAB> target level, one per package;
//                       roles: warm (level-covering warm-up set), app
//                       (corpus / stream app), v0 (first publish of a
//                       version chain), update (later chain version)
//   expected.tsv        stem <TAB> ok|known|bad <TAB> canonical row bytes of
//                       the from-scratch reference analysis; "bad" marks a
//                       package whose reference findings failed the ledger,
//                       "known" one that misses only what a known analysis
//                       defect misses (see README.md, Known defects)
//   sched-<leg>.tsv     due offset in seconds <TAB> stem, one per request
//   inputs.json         counts, ladder, oracle summary and content hash
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace vetbench {

/// Fixed parameters of each workload. Sizes are chosen so one leg is long
/// enough to measure and a whole run fits its time budget.
struct WorkloadSpec {
  std::string name;
  int apps = 0;            ///< corpus / stream apps (or chains)
  int versions = 0;        ///< chain length (update-stream only)
  std::uint64_t chain_loc = 0;  ///< dex LOC per chain app (update-stream)
  double resubmit_share = 0.0;  ///< byte-identical resubmissions
  double nominal_rate = 0.0;  ///< nominal arrivals/s; 0 = all due at once
  int nominal_requests = 0;  ///< requests in a nominal leg
  int rung_requests = 0;     ///< requests in a ladder rung
  std::vector<double> ladder;  ///< rung rates (requests/s), ascending
  int queue = 0;             ///< daemon admission queue (serve --queue)
};

/// Returns the spec for `name`; throws std::runtime_error when unknown.
const WorkloadSpec& workload_spec(std::string_view name);

std::string read_text(const std::string& path);
void write_text(const std::string& path, std::string_view text);
std::vector<std::string> split(std::string_view text, char sep);

/// FNV-1a 64 over `bytes`, continuing from `state`.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t state = 0xcbf29ce484222325ULL);
std::string hex64(std::uint64_t value);

/// One expected.tsv entry.
struct Expected {
  bool ok = false;     ///< the reference findings passed the ledger
  bool known = false;  ///< ...apart from known-defect misses
  std::string row;     ///< canonical row bytes
};
std::map<std::string, Expected> load_expected(const std::string& path);

/// One manifest.tsv entry.
struct ManifestEntry {
  std::string role;
  std::string stem;
  int level = 0;
};
std::vector<ManifestEntry> load_manifest(const std::string& dir);

/// One sched-<leg>.tsv entry.
struct Scheduled {
  double due = 0.0;
  std::string stem;
};
std::vector<Scheduled> load_schedule(const std::string& path);

/// Outcome of checking one result row against the reference. kKnown is a
/// row equal to what the analysis is known to produce for it, where that
/// differs from the ledger or the from-scratch row only by a known defect:
/// accepted, and counted apart so the defect stays visible.
enum class RowVerdict { kOk, kKnown, kUnknown, kWrong, kFailed, kIncomplete };
/// True for the verdicts that accept a row (kOk, kKnown).
bool accepted(RowVerdict verdict);
/// Parses `line` as a journal row or serve response row and compares its
/// canonical bytes with the reference for `stem`. An incremental hit whose
/// row differs from the from-scratch row only in its loaded-class and peak
/// footprint counts is kKnown.
RowVerdict check_row(const std::map<std::string, Expected>& expected,
                     const std::string& stem, std::string_view line);
const char* verdict_name(RowVerdict verdict);

/// `value` as a JSON number with all its significant digits.
std::string json_number(double value);

/// Minimal JSON object writer (numbers, strings, arrays of numbers).
class JsonOut {
 public:
  JsonOut& num(std::string_view key, double value);
  JsonOut& integer(std::string_view key, long long value);
  JsonOut& str(std::string_view key, std::string_view value);
  JsonOut& boolean(std::string_view key, bool value);
  JsonOut& raw(std::string_view key, std::string_view json);
  JsonOut& nums(std::string_view key, const std::vector<double>& values);
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view k);
  std::string body_;
};

double now_seconds();  ///< steady clock, seconds

}  // namespace vetbench
