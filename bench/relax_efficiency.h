// Shared protocol for Figures 6 and 7 — efficiency of query relaxation.
//
// Paper §6.3: pick 10 random tuples of CarDB; for each, extract 20 tuples
// with similarity above Tsim ∈ {0.5, 0.6, 0.7} via relaxation, and report
// Work/RelevantTuple = |T_extracted| / |T_relevant| — the average number of
// tuples a user would look at per relevant tuple. GuidedRelax stays around
// ~4 extracted per relevant tuple; RandomRelax blows up into the hundreds at
// higher thresholds.
//
// On top of the paper protocol this harness measures the engine's query-time
// concurrency: the whole protocol is run twice — probe queries serially,
// then fanned out over a worker pool — each from a cold probe cache, and the
// harness verifies the two runs return bit-identical answer lists before
// reporting wall-clock speedup and probe-deduplication counts.

#ifndef AIMQ_BENCH_RELAX_EFFICIENCY_H_
#define AIMQ_BENCH_RELAX_EFFICIENCY_H_

#include <atomic>
#include <memory>

#include "bench_util.h"
#include "eval/metrics.h"
#include "obs/metrics_registry.h"
#include "service/prometheus.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "webdb/probe_cache.h"
#include "webdb/web_database.h"

namespace aimq {
namespace bench {

/// One full §6.3 protocol execution: per (threshold, anchor) stats and
/// ranked answers, plus the wall-clock cost of the probe phase.
struct RelaxProtocolRun {
  bool ok = true;
  double seconds = 0.0;
  // Indexed [threshold][anchor].
  std::vector<std::vector<RelaxationStats>> stats;
  std::vector<std::vector<std::vector<RankedAnswer>>> answers;

  RelaxationStats Totals() const {
    RelaxationStats total;
    for (const auto& per_threshold : stats) {
      for (const RelaxationStats& s : per_threshold) total.Accumulate(s);
    }
    return total;
  }
};

/// Runs the 3-threshold × 10-anchor protocol with \p num_threads concurrent
/// query sessions. The whole pass is repeated \p repetitions times so the
/// wall-clock measurement is well above timer noise; every repetition starts
/// from a cold probe cache and fresh stats, so the reported numbers describe
/// one cold pass and runs at different thread counts are comparable.
inline RelaxProtocolRun RunProtocol(AimqEngine& engine, const Relation& hidden,
                                    const std::vector<size_t>& probe_rows,
                                    const std::vector<double>& thresholds,
                                    RelaxationStrategy strategy,
                                    size_t num_threads,
                                    size_t repetitions = 5) {
  RelaxProtocolRun run;
  Stopwatch timer;
  for (size_t rep = 0; rep < repetitions; ++rep) {
    engine.SetProbeCache(std::make_shared<ProbeCache>(1 << 16));
    run.stats.assign(thresholds.size(),
                     std::vector<RelaxationStats>(probe_rows.size()));
    run.answers.assign(
        thresholds.size(),
        std::vector<std::vector<RankedAnswer>>(probe_rows.size()));
    for (size_t ti = 0; ti < thresholds.size(); ++ti) {
      std::atomic<bool> failed{false};
      ParallelFor(probe_rows.size(), num_threads, [&](size_t i) {
        auto result = engine.FindSimilar(hidden.tuple(probe_rows[i]), 20,
                                         thresholds[ti], strategy,
                                         &run.stats[ti][i]);
        if (!result.ok()) {
          std::fprintf(stderr, "FindSimilar failed: %s\n",
                       result.status().ToString().c_str());
          failed.store(true);
          return;
        }
        run.answers[ti][i] = result.TakeValue();
      });
      if (failed.load()) {
        run.ok = false;
        return run;
      }
    }
  }
  run.seconds = timer.ElapsedSeconds() /
                static_cast<double>(repetitions > 0 ? repetitions : 1);
  return run;
}

/// True iff the two runs produced bit-identical ranked answers everywhere.
inline bool IdenticalAnswers(const RelaxProtocolRun& a,
                             const RelaxProtocolRun& b) {
  if (a.answers.size() != b.answers.size()) return false;
  for (size_t ti = 0; ti < a.answers.size(); ++ti) {
    if (a.answers[ti].size() != b.answers[ti].size()) return false;
    for (size_t i = 0; i < a.answers[ti].size(); ++i) {
      const auto& lhs = a.answers[ti][i];
      const auto& rhs = b.answers[ti][i];
      if (lhs.size() != rhs.size()) return false;
      for (size_t r = 0; r < lhs.size(); ++r) {
        if (!(lhs[r].tuple == rhs[r].tuple) ||
            lhs[r].similarity != rhs[r].similarity) {
          return false;
        }
      }
    }
  }
  return true;
}

/// \p json_path, when non-empty, receives the run's headline numbers as one
/// JSON baseline document (work-per-relevant per threshold, wall clock,
/// speedup, determinism verdict, git sha).
inline int RunRelaxEfficiency(RelaxationStrategy strategy,
                              size_t parallel_threads = 8,
                              const std::string& json_path = "") {
  std::string title = "Efficiency of ";
  title += RelaxationStrategyName(strategy);
  title += " (CarDB 100k)";
  PrintHeader(title);

  // The generated relation doubles as ground truth for picking probe tuples.
  const Relation hidden = FullCarDb();
  WebDatabase db("CarDB", hidden);
  AimqOptions options = CarDbOptions();
  options.collector.sample_size = 25000;  // learn from a 25k probed sample
  auto knowledge = BuildKnowledge(db, options);
  if (!knowledge.ok()) {
    std::fprintf(stderr, "offline learning failed: %s\n",
                 knowledge.status().ToString().c_str());
    return 1;
  }
  AimqEngine engine(&db, knowledge.TakeValue(), options);

  // 10 random probe tuples, the same ones for every threshold and strategy
  // (fixed seed).
  Rng rng(41);
  std::vector<size_t> probe_rows = rng.SampleWithoutReplacement(
      hidden.NumTuples(), 10);
  const std::vector<double> thresholds{0.5, 0.6, 0.7};

  RelaxProtocolRun serial = RunProtocol(engine, hidden, probe_rows,
                                        thresholds, strategy, 1);
  RelaxProtocolRun parallel = RunProtocol(engine, hidden, probe_rows,
                                          thresholds, strategy,
                                          parallel_threads);
  if (!serial.ok || !parallel.ok) return 1;
  const bool identical = IdenticalAnswers(serial, parallel);

  // --- The paper's Figures 6/7 numbers (from the serial run). -------------
  std::vector<std::vector<std::string>> rows;
  std::vector<double> avg_work_per_threshold;
  for (size_t ti = 0; ti < thresholds.size(); ++ti) {
    std::vector<double> work;
    std::vector<double> found;
    for (size_t i = 0; i < probe_rows.size(); ++i) {
      work.push_back(serial.stats[ti][i].WorkPerRelevantTuple());
      found.push_back(static_cast<double>(serial.answers[ti][i].size()));
    }
    avg_work_per_threshold.push_back(Mean(work));
    rows.push_back({FormatDouble(thresholds[ti], 1),
                    FormatDouble(Mean(work), 1),
                    FormatDouble(Mean(found), 1)});
  }
  std::printf("\nTarget: 20 relevant tuples per probe query, 10 queries\n");
  PrintTable({"Tsim", "Work/RelevantTuple (avg)", "Relevant found (avg)"},
             rows);

  std::printf("\nPer-query Work/RelevantTuple at Tsim = 0.7:\n");
  std::vector<std::vector<std::string>> detail;
  const size_t hi = thresholds.size() - 1;
  for (size_t i = 0; i < probe_rows.size(); ++i) {
    const RelaxationStats& stats = serial.stats[hi][i];
    std::string label = "Q";
    label += std::to_string(i + 1);
    detail.push_back(
        {label,
         FormatDouble(stats.WorkPerRelevantTuple(), 1),
         std::to_string(stats.tuples_relevant.load()),
         std::to_string(stats.tuples_extracted.load()),
         std::to_string(stats.queries_issued.load()),
         std::to_string(stats.cache_hits.load())});
  }
  PrintTable({"Query", "Work/Relevant", "Relevant", "Extracted", "Probes",
              "CacheHits"},
             detail);

  // --- Query-time concurrency: speedup and probe deduplication. -----------
  const RelaxationStats serial_totals = serial.Totals();
  const RelaxationStats parallel_totals = parallel.Totals();
  const double speedup =
      parallel.seconds > 0.0 ? serial.seconds / parallel.seconds : 0.0;
  std::printf(
      "\nConcurrent probing (wall time = mean of 5 cold-cache passes):\n");
  PrintTable(
      {"Threads", "Wall (s)", "Physical probes", "deduped_probes",
       "cache_hits"},
      {{"1", FormatDouble(serial.seconds, 3),
        std::to_string(serial_totals.queries_issued.load()),
        std::to_string(serial_totals.deduped_probes.load()),
        std::to_string(serial_totals.cache_hits.load())},
       {std::to_string(parallel_threads), FormatDouble(parallel.seconds, 3),
        std::to_string(parallel_totals.queries_issued.load()),
        std::to_string(parallel_totals.deduped_probes.load()),
        std::to_string(parallel_totals.cache_hits.load())}});
  std::printf("Speedup at %zu threads: %.2fx (%zu hardware threads)\n",
              parallel_threads, speedup,
              static_cast<size_t>(std::thread::hardware_concurrency()));
  std::printf("Identical top-k output across thread counts: %s\n",
              identical ? "yes" : "NO — DETERMINISM VIOLATION");
  std::printf("deduped_probes (1-thread run): %llu\n",
              static_cast<unsigned long long>(
                  serial_totals.deduped_probes.load()));

  std::printf(
      "\nPaper shape: GuidedRelax stays near ~4 extracted tuples per "
      "relevant tuple; RandomRelax needs hundreds at high thresholds.\n");
  std::printf("%s averages: 0.5 -> %.1f, 0.6 -> %.1f, 0.7 -> %.1f\n",
              RelaxationStrategyName(strategy), avg_work_per_threshold[0],
              avg_work_per_threshold[1], avg_work_per_threshold[2]);

  if (!json_path.empty()) {
    Json doc = Json::Obj();
    doc.Set("bench", Json::Str(strategy == RelaxationStrategy::kGuided
                                   ? "fig6_guided_relax"
                                   : "fig7_random_relax"));
    doc.Set("git_sha", Json::Str(GitSha()));
    doc.Set("strategy", Json::Str(RelaxationStrategyName(strategy)));
    Json work = Json::Obj();
    for (size_t ti = 0; ti < thresholds.size(); ++ti) {
      char key[16];
      std::snprintf(key, sizeof(key), "%.1f", thresholds[ti]);
      work.Set(key, Json::Num(avg_work_per_threshold[ti]));
    }
    doc.Set("work_per_relevant", std::move(work));
    doc.Set("serial_seconds", Json::Num(serial.seconds));
    doc.Set("parallel_seconds", Json::Num(parallel.seconds));
    doc.Set("parallel_threads",
            Json::Num(static_cast<double>(parallel_threads)));
    doc.Set("speedup", Json::Num(speedup));
    doc.Set("probes_serial",
            Json::Num(static_cast<double>(
                serial_totals.queries_issued.load())));
    doc.Set("deduped_probes_serial",
            Json::Num(static_cast<double>(
                serial_totals.deduped_probes.load())));
    doc.Set("deterministic", Json::Bool(identical));
    doc.Set("bytes_per_tuple", BytesPerTupleJson(*db.columnar()));
    doc.Set("peak_rss_bytes",
            Json::Num(static_cast<double>(PeakRssBytes())));
    // The unified registry's view of the run — SIMD dispatch tier + kernel
    // call mix and probe-cache behavior — archived with the baseline so a
    // perf delta can be attributed (e.g. a dispatch-tier downgrade).
    obs::MetricsRegistry registry;
    registry.AddCollector([&engine](obs::MetricsRegistry::Emitter* out) {
      EmitSimd(out);
      if (const auto& cache = engine.probe_cache(); cache != nullptr) {
        EmitProbeCache(cache->stats(), out);
      }
    });
    doc.Set("metrics", registry.JsonSnapshot());
    if (!WriteJsonFile(json_path, doc)) return 1;
  }
  return identical ? 0 : 1;
}

}  // namespace bench
}  // namespace aimq

#endif  // AIMQ_BENCH_RELAX_EFFICIENCY_H_
