// The query service's newline-delimited JSON wire protocol.
//
// One request per line, one response line per request, over a plain TCP
// stream — testable with `nc localhost 7777`. Seven operations:
//
//   {"op":"ping"}
//     -> {"ok":true,"pong":true}
//   {"op":"stats"}
//     -> {"ok":true,"stats":{"aimq_requests_completed_total":12,...}}
//   {"op":"metrics"}
//     -> {"ok":true,"metrics":{...same body...}}
//        Both answer the metric registry's JSON snapshot: every family of
//        `GET /metrics`, keyed by family name, with the same values
//        (obs::MetricsRegistry::JsonSnapshot).
//   {"op":"query","q":"Q(Model like 'Camry')","deadline_ms":500,"id":7,
//    "request_id":42}
//     -> {"id":7,"ok":true,"request_id":42,"truncated":false,
//         "elapsed_ms":12.4,
//         "answers":[{"tuple":{"Make":"Toyota",...},"similarity":0.93},...]}
//   {"op":"explain","q":"Q(Model like 'Camry')","deadline_ms":500}
//     -> a query response plus "profile": the per-query cost breakdown
//        (phase nanoseconds, probes issued vs. cache-served vs. coalesced,
//        relaxation depth, rows per shard, blocks decoded) — see
//        obs::QueryProfile::ToJson. Cross-request deltas in the profile are
//        sampled around this request and are approximate under concurrent
//        traffic, exact on an idle service.
//   {"op":"ingest","rows":[{"Make":"Toyota","Price":9500,...},...]}
//     -> {"ok":true,"accepted":2,"snapshot_version":7}
//        Rows are schema-validated (missing or null attributes ingest as
//        null) and published synchronously as a new snapshot version;
//        queries admitted before the response line was written keep their
//        captured version (DESIGN.md §5i). All-or-nothing: one bad row
//        rejects the batch.
//   {"op":"refresh_knowledge"}
//     -> {"ok":true,"knowledge_version":3,"snapshot_version":7}
//        Re-mines AIMQ's knowledge against the current rows and swaps the
//        new edition in atomically.
//
// Failures answer {"ok":false,"status":{...}} where the status object
// round-trips aimq::Status losslessly: code (by name), message, and context
// all survive StatusToJson -> StatusFromJson. "id", when present in a
// request, is echoed verbatim in the response so clients may pipeline.
// "request_id" is the trace/slow-log correlation id: optional on the way in
// (the service assigns one when absent), always present in a query response,
// so a client can join its answer against /metrics scrapes and trace dumps.
//
// The same TCP port also answers plain HTTP GETs (Prometheus scraping); see
// service/server.h.

#ifndef AIMQ_SERVICE_WIRE_H_
#define AIMQ_SERVICE_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "query/imprecise_query.h"
#include "relation/schema.h"
#include "util/json.h"
#include "util/status.h"

namespace aimq {

/// Lossless Status <-> JSON: {"code":"DeadlineExceeded","message":"...",
/// "context":"..."} (context omitted when empty). OK encodes as
/// {"code":"Ok"} and decodes back to Status::OK().
Json StatusToJson(const Status& status);

/// Decodes \p json into \p decoded. The return value reports whether the
/// *decoding* succeeded (Result<Status> would make the two indistinguishable);
/// \p decoded may itself be any status, including OK.
Status StatusFromJson(const Json& json, Status* decoded);

/// One tuple as {"Attr":value,...} in schema order (numeric attributes as
/// JSON numbers, categorical as strings, nulls as null).
Json TupleToJson(const Schema& schema, const Tuple& tuple);

/// {"tuple":{...},"similarity":0.93}
Json RankedAnswerToJson(const Schema& schema, const RankedAnswer& answer);

/// A decoded request line.
struct WireRequest {
  enum class Op {
    kPing,
    kStats,
    kMetrics,
    kQuery,
    kExplain,
    kIngest,
    kRefreshKnowledge,
  };
  Op op = Op::kPing;
  /// Query text ("Q(Model like 'Camry')"); only for kQuery/kExplain.
  std::string query_text;
  /// Raw rows array ({"Attr":value,...} objects); only for kIngest. Parsed
  /// against the schema by the server (the wire layer is schema-free).
  Json rows;
  /// Per-request deadline override in ms; 0 = use the service default.
  uint64_t deadline_ms = 0;
  /// Trace correlation id; 0 = let the service assign one. Only for kQuery.
  uint64_t request_id = 0;
  /// Client correlation id, echoed in the response when present.
  bool has_id = false;
  double id = 0.0;
  /// Tenant label for quota/fair-share admission and labelled metrics;
  /// empty = the service's default tenant. Only for kQuery.
  std::string tenant;
};

/// Parses one request line. Unknown "op" values and malformed JSON are
/// InvalidArgument.
Result<WireRequest> ParseWireRequest(const std::string& line);

/// Builds the error response line ({"ok":false,"status":{...}}), echoing
/// \p request's id when it has one.
Json MakeErrorResponse(const WireRequest& request, const Status& status);

}  // namespace aimq

#endif  // AIMQ_SERVICE_WIRE_H_
