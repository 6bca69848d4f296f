// End-to-end packed-storage harness: streams a CarDB of --tuples rows
// straight into bit-packed in-memory columnar storage (never materializing
// a row-store Relation), mines knowledge from a probed sample, then answers
// fig6-style FindSimilar queries — with decoded code blocks held under one
// --allowed-memory budget and re-unpacked from the packed bytes when they
// were evicted.
//
// --verify=plain additionally runs the identical protocol through the
// historical row-store + plain-columnar path and requires bit-identical
// ranked answers; this is the acceptance oracle (practical at <= 1M tuples;
// the 10M+ runs use --verify=none and rely on the invariant proven at small
// scale).
//
// Usage: storage_scale [--tuples=N] [--allowed-memory=SZ] [--queries=Q]
//                      [--verify=none|plain] [--json=<path>]
//                      [--isa=<scalar|sse4.2|avx2|native>]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "simd/dispatch.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "webdb/web_database.h"

namespace aimq {
namespace bench {
namespace {

struct ProtocolResult {
  bool ok = false;
  double learn_seconds = 0.0;
  double query_seconds = 0.0;
  std::vector<std::vector<RankedAnswer>> answers;  // per anchor
};

// Offline learning + Q FindSimilar calls against \p db. Anchors are chosen
// by row index so the plain and packed arms see the same tuples.
ProtocolResult RunProtocol(WebDatabase& db, const AimqOptions& options,
                           const std::vector<size_t>& anchor_rows) {
  ProtocolResult out;
  Stopwatch learn_timer;
  auto knowledge = BuildKnowledge(db, options);
  if (!knowledge.ok()) {
    std::fprintf(stderr, "offline learning failed: %s\n",
                 knowledge.status().ToString().c_str());
    return out;
  }
  out.learn_seconds = learn_timer.ElapsedSeconds();

  AimqEngine engine(&db, knowledge.TakeValue(), options);
  Stopwatch query_timer;
  for (size_t row : anchor_rows) {
    const Tuple anchor = db.MaterializeRow(static_cast<uint32_t>(row));
    auto result = engine.FindSimilar(anchor, 10, options.tsim,
                                     RelaxationStrategy::kGuided);
    if (!result.ok()) {
      std::fprintf(stderr, "FindSimilar failed: %s\n",
                   result.status().ToString().c_str());
      return out;
    }
    out.answers.push_back(result.TakeValue());
  }
  out.query_seconds = query_timer.ElapsedSeconds();
  out.ok = true;
  return out;
}

bool IdenticalAnswers(const ProtocolResult& a, const ProtocolResult& b) {
  if (a.answers.size() != b.answers.size()) return false;
  for (size_t i = 0; i < a.answers.size(); ++i) {
    if (a.answers[i].size() != b.answers[i].size()) return false;
    for (size_t r = 0; r < a.answers[i].size(); ++r) {
      if (!(a.answers[i][r].tuple == b.answers[i][r].tuple) ||
          a.answers[i][r].similarity != b.answers[i][r].similarity) {
        return false;
      }
    }
  }
  return true;
}

int Run(int argc, char** argv) {
  size_t num_tuples = 1000000;
  size_t budget = 256u << 20;
  size_t num_queries = 5;
  std::string verify = "none";
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (StartsWith(arg, "--tuples=")) {
      num_tuples = static_cast<size_t>(std::atoll(arg.c_str() + 9));
    } else if (StartsWith(arg, "--allowed-memory=")) {
      if (!ParseByteSize(arg.substr(17), &budget)) {
        std::fprintf(stderr, "bad --allowed-memory: %s\n", arg.c_str());
        return 1;
      }
    } else if (StartsWith(arg, "--queries=")) {
      num_queries = static_cast<size_t>(std::atoll(arg.c_str() + 10));
    } else if (StartsWith(arg, "--verify=")) {
      verify = arg.substr(9);
      if (verify != "none" && verify != "plain") {
        std::fprintf(stderr, "bad --verify (none|plain): %s\n", arg.c_str());
        return 1;
      }
    } else if (StartsWith(arg, "--json=")) {
      json_path = arg.substr(7);
    } else if (StartsWith(arg, "--isa=")) {
      const Status s = simd::ForceIsa(arg.substr(6));
      if (!s.ok()) {
        std::fprintf(stderr, "storage_scale: %s\n", s.ToString().c_str());
        return 1;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 1;
    }
  }

  PrintHeader("Streamed CarDB under a memory budget (" +
              std::to_string(num_tuples) + " tuples, budget " +
              std::to_string(budget >> 20) + " MB)");

  CarDbSpec spec;
  spec.num_tuples = num_tuples;
  spec.seed = 2006;
  const CarDbGenerator gen(spec);

  ColumnarBuilder::Options opts;
  opts.store.budget_bytes = budget;

  Stopwatch build_timer;
  auto packed = gen.GenerateColumnar(opts);
  if (!packed.ok()) {
    std::fprintf(stderr, "streamed build failed: %s\n",
                 packed.status().ToString().c_str());
    return 1;
  }
  const double build_seconds = build_timer.ElapsedSeconds();
  const storage::BlockStoreStats stats = (*packed)->block_store()->GetStats();
  const double n = static_cast<double>(num_tuples);
  std::printf("\nstreamed build: %.2f s (%.0f tuples/s)\n", build_seconds,
              build_seconds > 0 ? n / build_seconds : 0.0);
  std::printf("code columns: plain %.2f B/tuple -> stored %.2f B/tuple "
              "(%zu blocks/col)\n",
              static_cast<double>(stats.plain_bytes) / n,
              static_cast<double>(stats.stored_bytes) / n, stats.num_blocks);

  AimqOptions options = CarDbOptions();
  options.collector.sample_size =
      std::min<size_t>(25000, num_tuples / 4 > 0 ? num_tuples / 4 : 1);

  const size_t effective_queries =
      std::min<size_t>(num_queries, num_tuples);
  Rng rng(41);
  const std::vector<size_t> anchor_rows =
      rng.SampleWithoutReplacement(num_tuples, effective_queries);

  WebDatabase db("CarDB", *packed);
  ProtocolResult packed_run = RunProtocol(db, options, anchor_rows);
  if (!packed_run.ok) return 1;
  const storage::BlockStoreStats after =
      (*packed)->block_store()->GetStats();
  std::printf("\noffline learning: %.2f s; %zu queries: %.3f s\n",
              packed_run.learn_seconds, effective_queries,
              packed_run.query_seconds);
  std::printf("block cache: hits=%zu misses=%zu evictions=%zu resident=%.1f "
              "MB of %.1f MB budget\n",
              after.cache.hits, after.cache.misses, after.cache.evictions,
              static_cast<double>(after.cache.resident_bytes) / 1048576.0,
              static_cast<double>(budget) / 1048576.0);
  std::printf("peak RSS: %.1f MB\n",
              static_cast<double>(PeakRssBytes()) / 1048576.0);

  bool verified = true;
  if (verify == "plain") {
    std::printf("\nverify arm: row-store + plain columnar oracle...\n");
    WebDatabase plain_db("CarDB", gen.Generate());
    ProtocolResult plain_run = RunProtocol(plain_db, options, anchor_rows);
    if (!plain_run.ok) return 1;
    verified = IdenticalAnswers(packed_run, plain_run);
    std::printf("packed answers identical to plain oracle: %s\n",
                verified ? "yes" : "NO — STORAGE DIVERGENCE");
  }

  if (!json_path.empty()) {
    Json doc = Json::Obj();
    doc.Set("bench", Json::Str("storage_scale"));
    doc.Set("git_sha", Json::Str(GitSha()));
    doc.Set("tuples", Json::Num(n));
    doc.Set("allowed_memory_bytes", Json::Num(static_cast<double>(budget)));
    doc.Set("build_seconds", Json::Num(build_seconds));
    doc.Set("tuples_per_second",
            Json::Num(build_seconds > 0 ? n / build_seconds : 0.0));
    doc.Set("learn_seconds", Json::Num(packed_run.learn_seconds));
    doc.Set("query_seconds", Json::Num(packed_run.query_seconds));
    doc.Set("queries", Json::Num(static_cast<double>(effective_queries)));
    doc.Set("bytes_per_tuple", BytesPerTupleJson(**packed));
    Json cache = Json::Obj();
    cache.Set("hits", Json::Num(static_cast<double>(after.cache.hits)));
    cache.Set("misses", Json::Num(static_cast<double>(after.cache.misses)));
    cache.Set("evictions",
              Json::Num(static_cast<double>(after.cache.evictions)));
    doc.Set("block_cache", std::move(cache));
    doc.Set("verify", Json::Str(verify));
    doc.Set("verified", Json::Bool(verified));
    doc.Set("peak_rss_bytes", Json::Num(static_cast<double>(PeakRssBytes())));
    if (!WriteJsonFile(json_path, doc)) return 1;
  }
  return verified ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace aimq

int main(int argc, char** argv) { return aimq::bench::Run(argc, argv); }
