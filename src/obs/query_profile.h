// QueryProfile: per-query cost attribution across every engine layer.
//
// Where trace spans answer "show me this request's timeline", the profile
// answers "where did the time and work go" as one small struct the service
// fills for every request from accounting that already exists (the
// RelaxationStats phase timers and probe counters, the queue stopwatch) —
// no extra clock reads on the hot path. Phase times partition the measured
// latency exactly:
//
//     total = queue + base_set + relax + rank + other
//
// with `other` defined as the remainder (dispatch, result materialization,
// callback). That identity is what makes deadline-miss attribution honest:
// DominantPhase() names the phase that ate the largest share of the budget,
// and it is reported in the slow-query log and the explain response.
//
// The wire `{"op":"explain","q":...}` executes the query normally and
// returns this profile next to the answers; the server additionally fills
// the cross-request fields (per-shard rows, blocks decoded, coalesced
// probes) from subsystem counter deltas around the call — approximate under
// concurrent traffic, exact on an idle service.

#ifndef AIMQ_OBS_QUERY_PROFILE_H_
#define AIMQ_OBS_QUERY_PROFILE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"

namespace aimq {
namespace obs {

/// \brief Per-phase cost breakdown of one answered request.
struct QueryProfile {
  // -- Phase times (seconds). total == queue + base_set + relax + rank +
  //    other by construction (other is the clamped remainder). -------------
  double total_seconds = 0.0;
  double queue_seconds = 0.0;
  double base_set_seconds = 0.0;
  double relax_seconds = 0.0;
  double rank_seconds = 0.0;
  double other_seconds = 0.0;

  // -- Probe accounting (from RelaxationStats). ---------------------------
  uint64_t probes_issued = 0;     ///< physical probes sent to the source
  uint64_t cache_hits = 0;        ///< probes served by the shared ProbeCache
  uint64_t deduped_probes = 0;    ///< probes answered without a source scan
  uint64_t tuples_extracted = 0;  ///< tuples shipped by physical probes
  uint64_t tuples_relevant = 0;   ///< extracted tuples above Tsim

  /// Deepest relaxation reached: attributes relaxed by the weakest query
  /// this request issued.
  uint64_t relax_depth = 0;

  /// Base tuples expanded, and how many of those the engine's expansion
  /// memo answered (no probe ran for them).
  uint64_t expansions = 0;
  uint64_t expansions_reused = 0;

  // -- Cross-request deltas, filled by the explain handler only (zero for
  //    plain queries): subsystem counters sampled around the call. --------
  /// (shard index, tuples that shard shipped for this request).
  std::vector<std::pair<size_t, uint64_t>> shard_rows;
  /// Packed-storage blocks decoded (block-cache misses) during the call.
  uint64_t blocks_decoded = 0;
  /// Probes served by parking on an identical in-flight probe.
  uint64_t coalesced_probes = 0;
  /// True when the delta fields above were populated.
  bool has_deltas = false;

  /// The request missed its deadline / was truncated (mirrors the response
  /// flag so attribution reads standalone).
  bool truncated = false;

  /// Computes other_seconds from the recorded phases (clamped at 0) so the
  /// phase identity holds exactly.
  void FinishPhases();

  /// Name of the phase with the largest share of total_seconds ("queue",
  /// "base_set", "relax", "rank", or "other") — for a deadlined request,
  /// the phase that ate the budget. "none" when total is 0.
  std::string DominantPhase() const;

  /// {"total_ms":..,"phases":{"queue_ms":..,...},"dominant_phase":..,
  ///  "probes":{...},"relax_depth":..,"expansions":{"total":..,"reused":..}
  ///  [,"shards":[...],"blocks_decoded":..]}
  Json ToJson() const;
};

}  // namespace obs
}  // namespace aimq

#endif  // AIMQ_OBS_QUERY_PROFILE_H_
