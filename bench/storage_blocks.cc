// Storage-footprint and probe-scan harness for the bit-packed block storage
// subsystem (src/storage/). Reports, on the canonical 100k CarDB:
//
//   - bytes per tuple of the code columns: plain resident vectors vs
//     bit-packed blocks;
//   - probe-scan cost (CodedConjunction compile + EvaluateAll) over the
//     plain snapshot, the packed snapshot, and a packed snapshot running
//     under a small decoded-block budget;
//   - bit-identity of all three scans' answers (the harness fails when any
//     differ, so the packed path can never silently drift from the oracle).
//
// Usage: storage_blocks [--tuples=N] [--allowed-memory=SZ] [--json=<path>]
//                       [--isa=<scalar|sse4.2|avx2|native>]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "datagen/cardb.h"
#include "query/selection_query.h"
#include "relation/columnar.h"
#include "simd/dispatch.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "webdb/coded_query.h"

namespace aimq {
namespace bench {
namespace {

// The probe mix a guided relaxation issues against CarDB: one fully-bound
// seed query plus progressively relaxed variants mixing equality and range
// predicates over both categorical and numeric attributes.
std::vector<SelectionQuery> ProbeMix() {
  std::vector<SelectionQuery> probes;
  {
    SelectionQuery q;
    q.AddPredicate(Predicate::Eq("Make", Value::Cat("Toyota")));
    q.AddPredicate(Predicate::Eq("Model", Value::Cat("Camry")));
    q.AddPredicate(Predicate("Price", CompareOp::kLe, Value::Num(15000)));
    probes.push_back(std::move(q));
  }
  {
    SelectionQuery q;
    q.AddPredicate(Predicate::Eq("Make", Value::Cat("Honda")));
    q.AddPredicate(Predicate::Eq("Year", Value::Cat("2004")));
    probes.push_back(std::move(q));
  }
  {
    SelectionQuery q;
    q.AddPredicate(Predicate("Mileage", CompareOp::kLt, Value::Num(60000)));
    q.AddPredicate(Predicate("Price", CompareOp::kLt, Value::Num(10000)));
    probes.push_back(std::move(q));
  }
  {
    SelectionQuery q;
    q.AddPredicate(Predicate::Eq("Location", Value::Cat("Tempe")));
    probes.push_back(std::move(q));
  }
  return probes;
}

// Compile + EvaluateAll of every probe, repeated until the run is well above
// timer noise. Returns ns per scanned row and the concatenated answers.
double TimeProbeScans(const ColumnarRelation& cols,
                      const std::vector<SelectionQuery>& probes,
                      size_t repetitions, std::vector<uint32_t>* answers) {
  answers->clear();
  Stopwatch timer;
  for (size_t rep = 0; rep < repetitions; ++rep) {
    for (const SelectionQuery& q : probes) {
      const CodedConjunction compiled = CodedConjunction::Compile(q, cols);
      auto rows = compiled.EvaluateAll();
      if (!rows.ok()) {
        std::fprintf(stderr, "probe scan failed: %s\n",
                     rows.status().ToString().c_str());
        std::exit(1);
      }
      if (rep == 0) {
        answers->insert(answers->end(), rows.ValueOrDie().begin(),
                        rows.ValueOrDie().end());
      }
    }
  }
  const double total_rows = static_cast<double>(cols.NumRows()) *
                            static_cast<double>(probes.size()) *
                            static_cast<double>(repetitions);
  return timer.ElapsedSeconds() * 1e9 / (total_rows > 0 ? total_rows : 1.0);
}

int Run(int argc, char** argv) {
  size_t num_tuples = 100000;
  size_t budget = 8u << 20;  // the budgeted arm's --allowed-memory
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
    } else if (StartsWith(arg, "--json=")) {
      json_path = arg.substr(7);
    } else if (StartsWith(arg, "--isa=")) {
      const Status s = simd::ForceIsa(arg.substr(6));
      if (!s.ok()) {
        std::fprintf(stderr, "storage_blocks: %s\n", s.ToString().c_str());
        return 1;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 1;
    }
  }

  PrintHeader("Block storage: footprint and probe scans (CarDB " +
              std::to_string(num_tuples) + ")");

  CarDbSpec spec;
  spec.num_tuples = num_tuples;
  spec.seed = 2006;
  const CarDbGenerator gen(spec);

  // The oracle: row-store generation + plain resident encoding.
  const Relation rows = gen.Generate();
  const ColumnarRelation plain(rows);

  // The same stream packed twice: every decoded block resident, and under
  // the budget.
  auto packed = gen.GenerateColumnar(ColumnarBuilder::Options());

  ColumnarBuilder::Options budget_opts;
  budget_opts.store.budget_bytes = budget;
  auto budgeted = gen.GenerateColumnar(budget_opts);

  if (!packed.ok() || !budgeted.ok()) {
    std::fprintf(stderr, "packed build failed: %s\n",
                 (!packed.ok() ? packed.status() : budgeted.status())
                     .ToString()
                     .c_str());
    return 1;
  }

  const double n = static_cast<double>(plain.NumRows());
  const storage::BlockStoreStats packed_stats =
      (*packed)->block_store()->GetStats();
  std::printf("\nCode-column footprint (bytes per tuple):\n");
  PrintTable(
      {"layout", "bytes/tuple", "total MB"},
      {{"plain (4B codes)",
        FormatDouble(static_cast<double>(packed_stats.plain_bytes) / n, 2),
        FormatDouble(static_cast<double>(packed_stats.plain_bytes) / 1048576.0,
                     1)},
       {"packed",
        FormatDouble(static_cast<double>(packed_stats.stored_bytes) / n, 2),
        FormatDouble(
            static_cast<double>(packed_stats.stored_bytes) / 1048576.0, 1)}});

  const std::vector<SelectionQuery> probes = ProbeMix();
  const size_t reps = num_tuples >= 1000000 ? 2 : 10;
  std::vector<uint32_t> plain_answers;
  std::vector<uint32_t> packed_answers;
  std::vector<uint32_t> budget_answers;
  const double plain_ns = TimeProbeScans(plain, probes, reps, &plain_answers);
  const double packed_ns =
      TimeProbeScans(**packed, probes, reps, &packed_answers);
  const double budget_ns =
      TimeProbeScans(**budgeted, probes, reps, &budget_answers);

  const bool identical =
      plain_answers == packed_answers && plain_answers == budget_answers;
  // Re-read the budgeted store's stats now that the scans have generated
  // cache traffic.
  const storage::BlockStoreStats budget_after =
      (*budgeted)->block_store()->GetStats();
  std::printf("\nProbe scans (%zu probes x %zu reps, compile + full scan):\n",
              probes.size(), reps);
  PrintTable({"snapshot", "ns/row"},
             {{"plain", FormatDouble(plain_ns, 2)},
              {"packed", FormatDouble(packed_ns, 2)},
              {"packed+budget", FormatDouble(budget_ns, 2)}});
  std::printf("identical answers across layouts: %s\n",
              identical ? "yes" : "NO — STORAGE DIVERGENCE");
  std::printf("budgeted arm: budget=%zu bytes, "
              "cache hits=%zu misses=%zu evictions=%zu\n",
              budget, budget_after.cache.hits, budget_after.cache.misses,
              budget_after.cache.evictions);

  if (!json_path.empty()) {
    Json doc = Json::Obj();
    doc.Set("bench", Json::Str("storage_blocks"));
    doc.Set("git_sha", Json::Str(GitSha()));
    doc.Set("tuples", Json::Num(n));
    doc.Set("bytes_per_tuple", BytesPerTupleJson(**packed));
    Json scan = Json::Obj();
    scan.Set("plain_ns_per_row", Json::Num(plain_ns));
    scan.Set("packed_ns_per_row", Json::Num(packed_ns));
    scan.Set("budgeted_ns_per_row", Json::Num(budget_ns));
    doc.Set("probe_scan", std::move(scan));
    doc.Set("allowed_memory_bytes", Json::Num(static_cast<double>(budget)));
    doc.Set("deterministic", Json::Bool(identical));
    doc.Set("peak_rss_bytes", Json::Num(static_cast<double>(PeakRssBytes())));
    if (!WriteJsonFile(json_path, doc)) return 1;
  }
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace aimq

int main(int argc, char** argv) { return aimq::bench::Run(argc, argv); }
