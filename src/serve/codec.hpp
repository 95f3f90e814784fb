// Wire protocol of the online vetting service (`saintdroid serve`).
//
// Everything is line-delimited JSON, one object per line, over stdin/stdout
// or the state directory's Unix-domain socket — the same transport style as
// the suite journal, and deliberately the same *row schema*: a response for
// an analyzed app is a flat JSON object carrying the serve envelope keys
// (id, status, fingerprint, cached) merged with the schema-2 journal row
// fields of docs/FORMAT.md. Because parse_journal_line ignores unknown
// keys, a response line parses directly as a SuiteAppRow, and
// canonical_row_bytes of that row is byte-identical to what a `batch` run
// would journal for the same APK — the serve/batch equivalence currency the
// tests gate on.
//
//   request   {"id":"r1","apk":"/path/to/app.apk","deadline":5.0}
//   response  {"id":"r1","status":"done","fingerprint":"…","cached":false,
//              "app":…,"completed":…,…,"usage":{…}}        (row fields)
//             {"id":"r1","status":"rejected","reason":"overloaded"}
//
// Parsers here follow the journal's robustness rules: a malformed line is a
// structured error (ParseError or nullopt), never a crash — the ServeFuzz
// sweeps hold this over truncations and bit-flips.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "workload/harness.hpp"

namespace saintdroid {

/// One vetting request: analyze the APK at `apk_path`.
struct ServeRequest {
  /// Client-chosen correlation id, echoed verbatim in the response. Must be
  /// non-empty; the service answers out of order under load.
  std::string id;
  /// Path of the package to vet, resolved by the *server* process.
  std::string apk_path;
  /// Optional per-request wall-clock deadline (seconds) for the analysis
  /// itself (queue wait excluded). 0 = the server's default budget. A
  /// tighter deadline than the server default wins; a looser one is capped.
  double deadline_seconds = 0.0;
};

/// Serializes a request as a single JSON line (no trailing newline).
std::string serve_request_line(const ServeRequest& request);

/// Parses a request line. Throws ParseError on any defect — not JSON, a
/// missing/empty "id" or "apk", a non-numeric "deadline".
ServeRequest parse_serve_request(std::string_view line);

/// Response disposition. `done` and `failed` both carry a full journal row
/// (`failed` means the analysis itself failed and the row is a structured
/// failure row — still a result, cached and replayable); `rejected` means
/// the request was never accepted and carries a reason instead.
enum class ServeStatus : std::uint8_t { kDone = 0, kFailed, kRejected };

const char* serve_status_name(ServeStatus status);

struct ServeResponse {
  std::string id;
  ServeStatus status = ServeStatus::kRejected;
  /// Rejection reason ("overloaded", "shutting-down", "bad-request: …",
  /// "bad-package: …"); empty for done/failed.
  std::string reason;
  /// APK content fingerprint (apk_fingerprint); empty for rejected.
  std::string fingerprint;
  /// True when the row was served from the result cache without analysis.
  bool cached = false;
  /// The journal row; present iff status != kRejected.
  std::optional<SuiteAppRow> row;
};

/// Serializes a response as a single flat JSON line (no trailing newline):
/// envelope keys first, then — for done/failed — the journal row fields of
/// journal_line(*row) merged into the same object.
std::string serve_response_line(const ServeResponse& response);

/// Parses a response line; nullopt on any defect (clients treat that as a
/// protocol error, never a crash).
std::optional<ServeResponse> parse_serve_response(std::string_view line);

/// One accepted request, as journaled in <statedir>/requests.jsonl before
/// the job is enqueued. This is the crash-safety anchor: a request with a
/// journaled acceptance and no journaled result is replayed on restart.
struct AcceptedRequest {
  std::string id;
  std::string fingerprint;
  /// APK name, for operators reading the journal.
  std::string app;
  /// Where the server re-reads the package bytes on replay.
  std::string apk_path;
};

/// Serializes an accepted-request journal line (no trailing newline).
std::string accepted_request_line(const AcceptedRequest& accepted);

/// Parses an accepted-request line; nullopt on any defect (a corrupt line
/// costs that request's replay, nothing more — journal semantics).
std::optional<AcceptedRequest> parse_accepted_request(std::string_view line);

/// Content fingerprint of a package: FNV-1a 64 over the raw APK bytes,
/// rendered as 16 hex digits. The result-cache key — byte-identical
/// resubmissions are free, any byte change is a different key.
std::string apk_fingerprint(std::span<const std::uint8_t> bytes);

/// One line of <statedir>/results.jsonl: a journal row plus the
/// fingerprint it was computed from (flat object, same merged-key trick as
/// responses, so the row round-trips through parse_journal_line).
std::string result_line(const std::string& fingerprint,
                        const SuiteAppRow& row);

struct ResultRecord {
  std::string fingerprint;
  SuiteAppRow row;
};

/// Parses a result line; nullopt on any defect.
std::optional<ResultRecord> parse_result_line(std::string_view line);

}  // namespace saintdroid
