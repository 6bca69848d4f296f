#include "obs/query_profile.h"

#include <algorithm>

namespace aimq {
namespace obs {

void QueryProfile::FinishPhases() {
  const double accounted =
      queue_seconds + base_set_seconds + relax_seconds + rank_seconds;
  other_seconds = std::max(0.0, total_seconds - accounted);
  // The engine phases are measured by their own timers; when their sum
  // exceeds the wall total (clock granularity on sub-µs requests), stretch
  // the total so the partition identity holds in the report.
  if (accounted > total_seconds) total_seconds = accounted;
}

std::string QueryProfile::DominantPhase() const {
  const std::pair<const char*, double> phases[] = {
      {"queue", queue_seconds},
      {"base_set", base_set_seconds},
      {"relax", relax_seconds},
      {"rank", rank_seconds},
      {"other", other_seconds},
  };
  const char* best = "none";
  double best_seconds = 0.0;
  for (const auto& [name, seconds] : phases) {
    if (seconds > best_seconds) {
      best = name;
      best_seconds = seconds;
    }
  }
  return best;
}

Json QueryProfile::ToJson() const {
  Json out = Json::Obj();
  out.Set("total_ms", Json::Num(total_seconds * 1e3));
  Json phases = Json::Obj();
  phases.Set("queue_ms", Json::Num(queue_seconds * 1e3));
  phases.Set("base_set_ms", Json::Num(base_set_seconds * 1e3));
  phases.Set("relax_ms", Json::Num(relax_seconds * 1e3));
  phases.Set("rank_ms", Json::Num(rank_seconds * 1e3));
  phases.Set("other_ms", Json::Num(other_seconds * 1e3));
  out.Set("phases", std::move(phases));
  out.Set("dominant_phase", Json::Str(DominantPhase()));
  out.Set("truncated", Json::Bool(truncated));
  Json probes = Json::Obj();
  probes.Set("issued", Json::Num(static_cast<double>(probes_issued)));
  probes.Set("cache_hits", Json::Num(static_cast<double>(cache_hits)));
  probes.Set("deduped", Json::Num(static_cast<double>(deduped_probes)));
  if (has_deltas) {
    probes.Set("coalesced",
               Json::Num(static_cast<double>(coalesced_probes)));
  }
  out.Set("probes", std::move(probes));
  out.Set("tuples_extracted",
          Json::Num(static_cast<double>(tuples_extracted)));
  out.Set("tuples_relevant", Json::Num(static_cast<double>(tuples_relevant)));
  out.Set("relax_depth", Json::Num(static_cast<double>(relax_depth)));
  Json expanded = Json::Obj();
  expanded.Set("total", Json::Num(static_cast<double>(expansions)));
  expanded.Set("reused", Json::Num(static_cast<double>(expansions_reused)));
  out.Set("expansions", std::move(expanded));
  if (has_deltas) {
    Json shards = Json::Arr();
    for (const auto& [shard, rows] : shard_rows) {
      Json entry = Json::Obj();
      entry.Set("shard", Json::Num(static_cast<double>(shard)));
      entry.Set("rows", Json::Num(static_cast<double>(rows)));
      shards.Push(std::move(entry));
    }
    out.Set("shards", std::move(shards));
    out.Set("blocks_decoded", Json::Num(static_cast<double>(blocks_decoded)));
  }
  return out;
}

}  // namespace obs
}  // namespace aimq
