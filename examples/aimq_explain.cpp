// aimq_explain: per-query cost attribution as a cost-annotated phase tree.
//
// Builds the service in-process (same knobs as aimq_serve), answers one
// imprecise query, and prints where the time and work went — the same
// QueryProfile the wire `{"op":"explain"}` op returns, rendered for humans:
//
//   $ aimq_explain --data=cardb:5000 --shards=4 "Q(Model like Camry)"
//   Q(Model = 'Camry')  10 answers in 12.41 ms  dominant phase: relax
//   ├─ queue      0.02 ms   0.2%
//   ├─ base_set   1.20 ms   9.7%
//   ├─ relax      9.80 ms  79.0%   probes: 24 issued, 17 cache-served, ...
//   ├─ rank       1.10 ms   8.9%   tuples: 412 extracted, 96 relevant
//   └─ other      0.29 ms   2.3%
//   shard rows: s0=103 s1=99 s2=101 s3=98   blocks decoded: 12
//
// Usage:
//   aimq_explain --data=<data.csv|cardb:N> [--model=<dir>] [flags] "<query>"
//
// Flags:
//   --shards=N       row-range engine shards (default 1)
//   --packed-shards  store shard snapshots block-compressed
//   --cache=N        shared probe-cache capacity in entries (default 4096)
//   --engine-threads=N   relaxation fan-out threads (default 2)
//   --deadline-ms=N  per-request deadline (0 = none)
//   --repeat=N       answer the query N times, explain the last run — shows
//                    warm-cache behavior (default 1)
//   --json           print the raw profile JSON instead of the tree

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/knowledge.h"
#include "core/persist.h"
#include "datagen/cardb.h"
#include "query/parser.h"
#include "service/service.h"
#include "util/strings.h"

using namespace aimq;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

Result<Relation> LoadData(const std::string& source) {
  if (StartsWith(source, "cardb:")) {
    CarDbSpec spec;
    spec.num_tuples = static_cast<size_t>(std::atoll(source.c_str() + 6));
    if (spec.num_tuples == 0) {
      return Status::InvalidArgument("cardb:N requires N > 0");
    }
    return CarDbGenerator(spec).Generate();
  }
  return Relation::ReadCsv(source, CarDbGenerator::MakeSchema());
}

int Usage() {
  std::fprintf(stderr,
               "usage: aimq_explain --data=<data.csv|cardb:N> "
               "[--model=<dir>]\n"
               "       [--shards=N] [--packed-shards] [--cache=N]\n"
               "       [--engine-threads=N] [--deadline-ms=N] [--repeat=N]\n"
               "       [--json] \"Q(Model like Camry)\"\n");
  return 2;
}

void PrintPhase(const char* connector, const char* name, double seconds,
                double total_seconds, const std::string& annotation) {
  const double share =
      total_seconds > 0.0 ? 100.0 * seconds / total_seconds : 0.0;
  std::printf("%s %-9s %9.3f ms %5.1f%%%s%s\n", connector, name,
              seconds * 1e3, share, annotation.empty() ? "" : "   ",
              annotation.c_str());
}

void PrintTree(const ImpreciseQuery& query, const QueryResponse& response) {
  const obs::QueryProfile& p = response.profile;
  std::printf("%s  %zu answers in %.3f ms  dominant phase: %s%s\n",
              query.ToString().c_str(), response.answers.size(),
              p.total_seconds * 1e3, p.DominantPhase().c_str(),
              p.truncated ? "  [truncated by deadline]" : "");
  char buf[160];
  PrintPhase("├─", "queue", p.queue_seconds, p.total_seconds, "");
  PrintPhase("├─", "base_set", p.base_set_seconds, p.total_seconds, "");
  std::snprintf(buf, sizeof(buf),
                "probes: %llu issued, %llu cache-served, %llu deduped, "
                "%llu coalesced, depth %llu; expansions: %llu (%llu "
                "memoized)",
                static_cast<unsigned long long>(p.probes_issued),
                static_cast<unsigned long long>(p.cache_hits),
                static_cast<unsigned long long>(p.deduped_probes),
                static_cast<unsigned long long>(p.coalesced_probes),
                static_cast<unsigned long long>(p.relax_depth),
                static_cast<unsigned long long>(p.expansions),
                static_cast<unsigned long long>(p.expansions_reused));
  PrintPhase("├─", "relax", p.relax_seconds, p.total_seconds, buf);
  std::snprintf(buf, sizeof(buf), "tuples: %llu extracted, %llu relevant",
                static_cast<unsigned long long>(p.tuples_extracted),
                static_cast<unsigned long long>(p.tuples_relevant));
  PrintPhase("├─", "rank", p.rank_seconds, p.total_seconds, buf);
  PrintPhase("└─", "other", p.other_seconds, p.total_seconds, "");
  if (!p.shard_rows.empty() || p.blocks_decoded > 0) {
    std::printf("shard rows:");
    for (const auto& [shard, rows] : p.shard_rows) {
      std::printf(" s%zu=%llu", shard,
                  static_cast<unsigned long long>(rows));
    }
    std::printf("   blocks decoded: %llu\n",
                static_cast<unsigned long long>(p.blocks_decoded));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string data, model_dir, query_text;
  size_t num_shards = 1, cache_capacity = 4096, engine_threads = 2;
  size_t repeat = 1;
  uint64_t deadline_ms = 0;
  bool packed_shards = false, json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (StartsWith(arg, "--data=")) {
      data = arg.substr(7);
    } else if (StartsWith(arg, "--model=")) {
      model_dir = arg.substr(8);
    } else if (StartsWith(arg, "--shards=")) {
      num_shards =
          static_cast<size_t>(std::strtoul(arg.c_str() + 9, nullptr, 10));
    } else if (arg == "--packed-shards") {
      packed_shards = true;
    } else if (StartsWith(arg, "--cache=")) {
      cache_capacity =
          static_cast<size_t>(std::strtoul(arg.c_str() + 8, nullptr, 10));
    } else if (StartsWith(arg, "--engine-threads=")) {
      engine_threads =
          static_cast<size_t>(std::strtoul(arg.c_str() + 17, nullptr, 10));
    } else if (StartsWith(arg, "--deadline-ms=")) {
      deadline_ms = std::strtoull(arg.c_str() + 14, nullptr, 10);
    } else if (StartsWith(arg, "--repeat=")) {
      repeat =
          static_cast<size_t>(std::strtoul(arg.c_str() + 9, nullptr, 10));
    } else if (arg == "--json") {
      json = true;
    } else if (!StartsWith(arg, "--")) {
      query_text = arg;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return Usage();
    }
  }
  if (data.empty() || query_text.empty()) return Usage();
  if (repeat == 0) repeat = 1;

  auto loaded = LoadData(data);
  if (!loaded.ok()) return Fail(loaded.status());
  WebDatabase db("CarDB", loaded.TakeValue());

  AimqOptions options;
  options.num_threads = engine_threads;
  options.probe_cache_capacity = cache_capacity;
  options.collector.sample_size = db.NumTuples() / 3;
  Result<MinedKnowledge> knowledge =
      model_dir.empty() ? BuildKnowledge(db, options)
                        : LoadKnowledge(db.schema(), model_dir);
  if (!knowledge.ok()) return Fail(knowledge.status());

  ServiceOptions sopts;
  sopts.num_workers = 1;  // one worker: queue time stays attributable
  sopts.num_shards = num_shards;
  sopts.packed_shards = packed_shards;
  AimqService service(&db, knowledge.TakeValue(), options, sopts);
  Status st = service.Start();
  if (!st.ok()) return Fail(st);

  QueryParser parser(&service.schema());
  auto query = parser.ParseImprecise(query_text);
  if (!query.ok()) return Fail(query.status());

  for (size_t i = 0; i + 1 < repeat; ++i) {
    auto warm = service.Execute(*query, deadline_ms);
    if (!warm.ok()) return Fail(warm.status());
  }

  // The same cross-request delta sampling the wire explain op performs:
  // subsystem counters before and after the call. Exact here — the service
  // is otherwise idle.
  const std::vector<ShardProbeSnapshot> shards_before = service.ShardStats();
  uint64_t block_misses_before = 0;
  for (const auto& [shard, stats] : service.BlockStats()) {
    block_misses_before += stats.cache.misses;
  }
  uint64_t coalesced_before = 0;
  if (const auto& cache = service.probe_cache(); cache != nullptr) {
    coalesced_before = cache->stats().coalesced;
  }
  auto response = service.Execute(*query, deadline_ms);
  if (!response.ok()) return Fail(response.status());
  obs::QueryProfile& profile = response->profile;
  const std::vector<ShardProbeSnapshot> shards_after = service.ShardStats();
  for (size_t s = 0; s < shards_after.size() && s < shards_before.size();
       ++s) {
    const uint64_t after = shards_after[s].tuples_returned;
    const uint64_t before = shards_before[s].tuples_returned;
    profile.shard_rows.emplace_back(shards_after[s].shard,
                                    after > before ? after - before : 0);
  }
  uint64_t block_misses_after = 0;
  for (const auto& [shard, stats] : service.BlockStats()) {
    block_misses_after += stats.cache.misses;
  }
  profile.blocks_decoded = block_misses_after > block_misses_before
                               ? block_misses_after - block_misses_before
                               : 0;
  if (const auto& cache = service.probe_cache(); cache != nullptr) {
    const uint64_t coalesced_after = cache->stats().coalesced;
    profile.coalesced_probes = coalesced_after > coalesced_before
                                   ? coalesced_after - coalesced_before
                                   : 0;
  }
  profile.has_deltas = true;

  if (json) {
    std::printf("%s\n", profile.ToJson().Dump().c_str());
  } else {
    PrintTree(*query, *response);
  }
  service.Stop();
  return 0;
}
