// Microbenchmarks (google-benchmark) for the library's hot kernels:
// dictionary encoding, stripped-partition construction (row-store vs coded),
// partition products, g3 error evaluation, bag-Jaccard (string vs coded),
// probe scans (Value comparisons vs compiled code comparisons), probe-cache
// hits from 1/2/4 threads sharing one cache, probe-cache extensions over a
// published delta, supertuple
// construction, value-similarity mining, TANE, and ROCK link computation.
// These quantify where the offline phases of Table 2 spend their time and
// prove the dictionary-encoded storage core's win over the row-store
// baselines it replaced.
//
// Usage: micro_kernels [--json=<path>] [--isa=<scalar|sse4.2|avx2|native>]
//                      [benchmark flags]
//
// --json= writes a machine-readable baseline (headline ns/op per kernel plus
// the row-store/coded and scalar/SIMD speedups, the active ISA, and the git
// sha) in the same shape as the fig6/fig7/service_throughput baselines; CI
// archives it as an artifact.
//
// --isa= pins the simd dispatch tier for the whole run (the *CodedScalar
// benchmarks additionally force the scalar tier around their own bodies, so
// every run reports paired scalar-vs-SIMD numbers). The *Parallel benchmarks
// carry the 1/2/4/8-thread scaling curve the nightly workflow archives:
// run with --benchmark_filter=Parallel.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "afd/partition.h"
#include "afd/tane.h"
#include "bench_util.h"
#include "datagen/cardb.h"
#include "oracles/row_oracles.h"
#include "query/selection_query.h"
#include "relation/columnar.h"
#include "rock/rock.h"
#include "shard/sharded_engine.h"
#include "simd/dispatch.h"
#include "similarity/supertuple.h"
#include "similarity/value_similarity.h"
#include "util/coded_bag.h"
#include "util/rng.h"
#include "util/strings.h"
#include "webdb/coded_query.h"
#include "webdb/probe_cache.h"
#include "webdb/probe_key.h"
#include "webdb/web_database.h"

namespace aimq {
namespace {

const Relation& CarSample(size_t n) {
  static auto* cache = new std::unordered_map<size_t, Relation>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    CarDbSpec spec;
    spec.num_tuples = n;
    spec.seed = 2006;
    it = cache->emplace(n, CarDbGenerator(spec).Generate()).first;
    // Pre-build the columnar snapshot so coded kernels measure their own
    // work, not first-touch encoding (BM_EncodeColumnar measures that).
    (void)it->second.columnar();
  }
  return it->second;
}

// Forces a simd dispatch tier for the lifetime of one benchmark body,
// restoring the previously active tier after (so --isa= pins survive).
class ScopedIsa {
 public:
  explicit ScopedIsa(const char* name) : prev_(simd::ActiveIsa()) {
    (void)simd::ForceIsa(name);
  }
  ~ScopedIsa() { (void)simd::ForceIsa(simd::IsaName(prev_)); }

 private:
  simd::Isa prev_;
};

// --- Storage core: encode ---------------------------------------------------

void BM_EncodeColumnar(benchmark::State& state) {
  const Relation& r = CarSample(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    ColumnarRelation cols(r);
    benchmark::DoNotOptimize(cols);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(r.NumTuples()));
}
BENCHMARK(BM_EncodeColumnar)->Arg(25000)->Arg(100000);

// --- Partition construction: row-store baseline vs coded --------------------

void BM_PartitionBuildRow(benchmark::State& state) {
  const Relation& r = CarSample(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RowStorePartition(r, CarDbGenerator::kModel));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(r.NumTuples()));
}
BENCHMARK(BM_PartitionBuildRow)->Arg(10000)->Arg(50000)->Arg(100000);

void BM_PartitionBuildCoded(benchmark::State& state) {
  const Relation& r = CarSample(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        StrippedPartition::FromColumn(r, CarDbGenerator::kModel));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(r.NumTuples()));
}
BENCHMARK(BM_PartitionBuildCoded)->Arg(10000)->Arg(50000)->Arg(100000);

void BM_PartitionBuildCodedScalar(benchmark::State& state) {
  // Same kernel as BM_PartitionBuildCoded, forced onto the scalar dispatch
  // tier — the pair quantifies the SIMD histogram win.
  const Relation& r = CarSample(static_cast<size_t>(state.range(0)));
  ScopedIsa isa("scalar");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        StrippedPartition::FromColumn(r, CarDbGenerator::kModel));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(r.NumTuples()));
}
BENCHMARK(BM_PartitionBuildCodedScalar)->Arg(10000)->Arg(50000)->Arg(100000);

void BM_PartitionProduct(benchmark::State& state) {
  const Relation& r = CarSample(static_cast<size_t>(state.range(0)));
  StrippedPartition model =
      StrippedPartition::FromColumn(r, CarDbGenerator::kModel);
  StrippedPartition year =
      StrippedPartition::FromColumn(r, CarDbGenerator::kYear);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Product(year));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(r.NumTuples()));
}
BENCHMARK(BM_PartitionProduct)->Arg(10000)->Arg(100000);

void BM_FdError(benchmark::State& state) {
  const Relation& r = CarSample(static_cast<size_t>(state.range(0)));
  StrippedPartition model =
      StrippedPartition::FromColumn(r, CarDbGenerator::kModel);
  StrippedPartition model_make = model.Product(
      StrippedPartition::FromColumn(r, CarDbGenerator::kMake));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.FdError(model_make));
  }
}
BENCHMARK(BM_FdError)->Arg(10000)->Arg(100000);

// --- Bag Jaccard: string-keyed baseline vs sorted coded arrays --------------

void BM_BagJaccard(benchmark::State& state) {
  Rng rng(7);
  Bag a, b;
  for (int64_t i = 0; i < state.range(0); ++i) {
    a.Add("k" + std::to_string(rng.Uniform(state.range(0))), 1 + rng.Uniform(9));
    b.Add("k" + std::to_string(rng.Uniform(state.range(0))), 1 + rng.Uniform(9));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.JaccardSimilarity(b));
  }
}
BENCHMARK(BM_BagJaccard)->Arg(16)->Arg(256)->Arg(4096);

void BM_BagJaccardCoded(benchmark::State& state) {
  // Same logical bags as BM_BagJaccard (same rng draws), keyword ids instead
  // of rendered keyword strings.
  Rng rng(7);
  CodedBag a, b;
  for (int64_t i = 0; i < state.range(0); ++i) {
    a.Add(static_cast<uint32_t>(rng.Uniform(state.range(0))),
          1 + rng.Uniform(9));
    b.Add(static_cast<uint32_t>(rng.Uniform(state.range(0))),
          1 + rng.Uniform(9));
  }
  a.Finalize();
  b.Finalize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.JaccardSimilarity(b));
  }
}
BENCHMARK(BM_BagJaccardCoded)->Arg(16)->Arg(256)->Arg(4096);

void BM_BagJaccardCodedScalar(benchmark::State& state) {
  // Scalar-forced pair of BM_BagJaccardCoded (SIMD merge intersection win).
  Rng rng(7);
  CodedBag a, b;
  for (int64_t i = 0; i < state.range(0); ++i) {
    a.Add(static_cast<uint32_t>(rng.Uniform(state.range(0))),
          1 + rng.Uniform(9));
    b.Add(static_cast<uint32_t>(rng.Uniform(state.range(0))),
          1 + rng.Uniform(9));
  }
  a.Finalize();
  b.Finalize();
  ScopedIsa isa("scalar");
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.JaccardSimilarity(b));
  }
}
BENCHMARK(BM_BagJaccardCodedScalar)->Arg(16)->Arg(256)->Arg(4096);

// --- Probe scan: Value comparisons vs compiled code comparisons -------------

SelectionQuery ProbeQuery() {
  SelectionQuery q;
  q.AddPredicate(Predicate::Eq("Make", Value::Cat("Toyota")));
  q.AddPredicate(Predicate("Price", CompareOp::kLe, Value::Num(15000)));
  return q;
}

void BM_ProbeScanRow(benchmark::State& state) {
  const Relation& r = CarSample(static_cast<size_t>(state.range(0)));
  const SelectionQuery q = ProbeQuery();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScanEvaluate(q, r));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(r.NumTuples()));
}
BENCHMARK(BM_ProbeScanRow)->Arg(25000)->Arg(100000);

void BM_ProbeScanCoded(benchmark::State& state) {
  const Relation& r = CarSample(static_cast<size_t>(state.range(0)));
  const SelectionQuery q = ProbeQuery();
  const ColumnarRelation& cols = *r.columnar();
  for (auto _ : state) {
    // Compile + scan, as WebDatabase::ExecuteRows does per probe.
    const CodedConjunction compiled = CodedConjunction::Compile(q, cols);
    benchmark::DoNotOptimize(compiled.EvaluateAll());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(r.NumTuples()));
}
BENCHMARK(BM_ProbeScanCoded)->Arg(25000)->Arg(100000);

void BM_ProbeScanCodedScalar(benchmark::State& state) {
  // Scalar-forced pair of BM_ProbeScanCoded (SIMD bitmask-filter win).
  const Relation& r = CarSample(static_cast<size_t>(state.range(0)));
  const SelectionQuery q = ProbeQuery();
  const ColumnarRelation& cols = *r.columnar();
  ScopedIsa isa("scalar");
  for (auto _ : state) {
    const CodedConjunction compiled = CodedConjunction::Compile(q, cols);
    benchmark::DoNotOptimize(compiled.EvaluateAll());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(r.NumTuples()));
}
BENCHMARK(BM_ProbeScanCodedScalar)->Arg(25000)->Arg(100000);

// --- Thread scaling (nightly sweep: --benchmark_filter=Parallel) ------------

// Each thread scans the shared snapshot concurrently; with --isa= /
// AIMQ_FORCE_ISA the same sweep measures scalar scaling. UseRealTime makes
// ns/op wall time per per-thread iteration, so a flat curve across
// threads:1..8 means linear read scaling.

void BM_ProbeScanCodedParallel(benchmark::State& state) {
  const Relation& r = CarSample(100000);
  const SelectionQuery q = ProbeQuery();
  const ColumnarRelation& cols = *r.columnar();
  for (auto _ : state) {
    const CodedConjunction compiled = CodedConjunction::Compile(q, cols);
    benchmark::DoNotOptimize(compiled.EvaluateAll());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(r.NumTuples()));
}
BENCHMARK(BM_ProbeScanCodedParallel)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

void BM_PartitionBuildCodedParallel(benchmark::State& state) {
  const Relation& r = CarSample(100000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        StrippedPartition::FromColumn(r, CarDbGenerator::kModel));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(r.NumTuples()));
}
BENCHMARK(BM_PartitionBuildCodedParallel)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

// Probe-cache hits from threads sharing one cache, in hot_zipf's shape:
// 173k resident keys in a 2^18-entry cache, each thread drawing keys
// uniformly. Every lookup is a hit. With UseRealTime, ns/op is wall time over
// all threads' hits, so items_per_second is the total hit throughput.

struct ProbeCacheHitFixture {
  static constexpr size_t kKeys = 173000;

  ProbeCacheHitFixture() : db("PriceDB", OneRow()), cache(size_t{1} << 18) {
    keys.reserve(kKeys);
    for (size_t i = 0; i < kKeys; ++i) {
      const SelectionQuery query = PriceBelow(i);
      keys.push_back(ProbeKey::ForQuery(*db.columnar(), query));
      (void)cache.ExecuteRows(db, query);
    }
  }

  static Relation OneRow() {
    Relation r(
        Schema::Make({{"Price", AttrType::kNumeric}}).ValueOrDie());
    r.AppendUnchecked(Tuple({Value::Num(0)}));
    return r;
  }
  // A distinct key per i.
  static SelectionQuery PriceBelow(size_t i) {
    return SelectionQuery({Predicate(
        "Price", CompareOp::kLt, Value::Num(static_cast<double>(i) + 0.5))});
  }

  WebDatabase db;
  ProbeCache cache;
  std::vector<ProbeKey> keys;
};

void BM_ProbeCacheHit(benchmark::State& state) {
  static auto* fixture = new ProbeCacheHitFixture();
  uint64_t rng = 0x9e3779b97f4a7c15ull * (state.thread_index() + 1);
  size_t index = 0;
  SelectionQuery query;  // built only on a miss, which never happens here
  const auto make_query = [&]() -> const SelectionQuery& {
    query = ProbeCacheHitFixture::PriceBelow(index);
    return query;
  };
  for (auto _ : state) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    index = static_cast<size_t>(((rng >> 32) * ProbeCacheHitFixture::kKeys) >>
                                32);
    benchmark::DoNotOptimize(fixture->cache.ExecuteRows(
        fixture->db, fixture->keys[index], make_query));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProbeCacheHit)->Threads(1)->Threads(2)->Threads(4)->UseRealTime();

// Probe-cache extensions: lookups on entries cached against an older
// snapshot of the source's lineage, in ingest_mixed's shape. The source is
// 50k CarDB rows served through the one-shard facade, plain
// (state.range(1) == 0) or packed in blocks (1), the keys are
// relaxation-style probes (code equalities plus banded Price and Mileage
// ranges), and the newer snapshot adds state.range(0) rows. Each thread
// fills a cache of its own against the older snapshot before the timed
// loop, then extends one distinct entry per iteration, so ns/op is one
// extension (and every iteration is one: the loop never wraps).

struct ProbeCacheExtendFixture {
  static constexpr size_t kBaseRows = 50000;
  static constexpr int64_t kKeys = 40000;  // the fixed iteration count

  ProbeCacheExtendFixture(size_t delta_rows, bool packed) {
    CarDbSpec spec;
    spec.num_tuples = kBaseRows + delta_rows;
    spec.seed = 2006;
    const Relation all = CarDbGenerator(spec).Generate();
    Relation base(all.schema());
    std::vector<Tuple> delta;
    for (size_t i = 0; i < all.NumTuples(); ++i) {
      if (i < kBaseRows) {
        base.AppendUnchecked(all.tuple(i));
      } else {
        delta.push_back(all.tuple(i));
      }
    }
    std::shared_ptr<WebDatabase> v0;
    if (packed) {
      auto builder =
          ColumnarBuilder::Create(base.schema(), ColumnarBuilder::Options())
              .TakeValue();
      for (size_t i = 0; i < base.NumTuples(); ++i) {
        (void)builder->AppendRow(base.tuple(i));
      }
      v0 = std::make_shared<WebDatabase>("CarDB",
                                         builder->Finish().ValueOrDie());
    } else {
      v0 = std::make_shared<WebDatabase>("CarDB", std::move(base));
    }
    auto v1 = std::make_shared<WebDatabase>(
        "CarDB",
        ColumnarRelation::Extend(*v0->columnar(), delta, 1).ValueOrDie());
    v1->ExtendPostingLists(*v0);
    ShardedEngineOptions one_shard;
    older = ShardedWebDatabase::Create(v0, one_shard).TakeValue();
    newer =
        ShardedWebDatabase::Create(v1, one_shard, older.get()).TakeValue();

    std::unordered_set<ProbeKey, ProbeKeyHash> seen;
    for (size_t i = 0; i < kBaseRows && queries.size() < size_t{kKeys}; ++i) {
      const Tuple& t = all.tuple(i);
      std::vector<Predicate> preds = {
          Predicate::Eq("Make", t.At(CarDbGenerator::kMake)),
          Predicate::Eq("Model", t.At(CarDbGenerator::kModel)),
          Predicate::Eq("Color", t.At(CarDbGenerator::kColor))};
      for (const size_t attr : {CarDbGenerator::kPrice,
                                CarDbGenerator::kMileage}) {
        const double v = t.At(attr).AsNum();
        const std::string& name = all.schema().attribute(attr).name;
        preds.push_back(Predicate(name, CompareOp::kLe,
                                  Value::Num(v + std::abs(v) * 0.1)));
        preds.push_back(Predicate(name, CompareOp::kGe,
                                  Value::Num(v - std::abs(v) * 0.1)));
      }
      SelectionQuery query(std::move(preds));
      ProbeKey key = ProbeKey::ForQuery(*older->columnar(), query);
      if (!seen.insert(key).second) continue;
      queries.push_back(std::move(query));
      keys.push_back(std::move(key));
    }
    if (queries.size() < size_t{kKeys}) {
      std::fprintf(stderr, "BM_ProbeCacheExtend: only %zu distinct keys\n",
                   queries.size());
      std::abort();
    }
  }

  std::unique_ptr<ShardedWebDatabase> older;
  std::unique_ptr<ShardedWebDatabase> newer;
  std::vector<SelectionQuery> queries;
  std::vector<ProbeKey> keys;
};

void BM_ProbeCacheExtend(benchmark::State& state) {
  static std::mutex mu;
  static auto* fixtures =
      new std::map<std::pair<int64_t, int64_t>,
                   std::unique_ptr<ProbeCacheExtendFixture>>();
  const ProbeCacheExtendFixture* fixture = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu);
    auto& slot = (*fixtures)[{state.range(0), state.range(1)}];
    if (slot == nullptr) {
      slot = std::make_unique<ProbeCacheExtendFixture>(
          static_cast<size_t>(state.range(0)), state.range(1) != 0);
    }
    fixture = slot.get();
  }
  size_t index = 0;
  const auto make_query = [&]() -> const SelectionQuery& {
    return fixture->queries[index];
  };
  ProbeCache cache(2 * ProbeCacheExtendFixture::kKeys);
  for (index = 0; index < fixture->keys.size(); ++index) {
    (void)cache.ExecuteRows(*fixture->older, fixture->keys[index],
                            make_query);
  }
  index = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.ExecuteRows(
        *fixture->newer, fixture->keys[index], make_query));
    ++index;
  }
  if (cache.stats().extended != fixture->keys.size()) {
    state.SkipWithError("a lookup was not an extension");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProbeCacheExtend)
    ->ArgsProduct({{8, 800}, {0, 1}})
    ->Threads(1)
    ->Threads(4)
    ->Iterations(ProbeCacheExtendFixture::kKeys)
    ->UseRealTime();

// --- Offline phases ---------------------------------------------------------

void BM_SuperTupleBuildAll(benchmark::State& state) {
  const Relation& r = CarSample(static_cast<size_t>(state.range(0)));
  SuperTupleBuilder builder(r, SuperTupleOptions{});
  for (auto _ : state) {
    auto sts = builder.BuildAll(CarDbGenerator::kMake);
    benchmark::DoNotOptimize(sts);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(r.NumTuples()));
}
BENCHMARK(BM_SuperTupleBuildAll)->Arg(25000)->Arg(100000);

void BM_SimilarityMineMake(benchmark::State& state) {
  const Relation& r = CarSample(static_cast<size_t>(state.range(0)));
  std::vector<double> wimp(r.schema().NumAttributes(),
                           1.0 / r.schema().NumAttributes());
  SimilarityMiner miner;
  for (auto _ : state) {
    auto model = miner.MineAttributes(r, wimp, {CarDbGenerator::kMake});
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_SimilarityMineMake)->Arg(25000)->Arg(100000);

void BM_TaneMine(benchmark::State& state) {
  const Relation& r = CarSample(static_cast<size_t>(state.range(0)));
  TaneOptions opts;
  opts.error_threshold = 0.30;
  opts.max_lhs_size = 3;
  opts.max_key_size = 4;
  for (auto _ : state) {
    auto deps = Tane::Mine(r, opts);
    benchmark::DoNotOptimize(deps);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(r.NumTuples()));
}
BENCHMARK(BM_TaneMine)->Arg(15000)->Arg(50000)->Arg(100000);

void BM_RockBuild2k(benchmark::State& state) {
  const Relation& r = CarSample(static_cast<size_t>(state.range(0)));
  RockOptions opts;
  opts.theta = 0.5;
  opts.sample_size = 2000;
  opts.num_clusters = 20;
  for (auto _ : state) {
    auto rock = RockClustering::Build(r, opts);
    benchmark::DoNotOptimize(rock);
  }
}
BENCHMARK(BM_RockBuild2k)->Arg(10000)->Arg(25000)->Unit(benchmark::kMillisecond);

// --- JSON baseline ----------------------------------------------------------

// Records every per-iteration run's ns/op alongside the console output, so
// one pass both prints the familiar table and feeds the JSON baseline.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      ns_per_op_[run.benchmark_name()] =
          run.real_accumulated_time / iters * 1e9;
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::map<std::string, double>& ns_per_op() const { return ns_per_op_; }

 private:
  std::map<std::string, double> ns_per_op_;
};

// Row-store-ns / coded-ns at the largest argument both variants ran with.
double SpeedupAtLargestArg(const std::map<std::string, double>& ns,
                           const std::string& row_name,
                           const std::string& coded_name) {
  double best_arg = -1.0, row = 0.0, coded = 0.0;
  for (const auto& [name, value] : ns) {
    const size_t slash = name.rfind('/');
    if (slash == std::string::npos) continue;
    const std::string base = name.substr(0, slash);
    if (base != row_name) continue;
    const std::string arg = name.substr(slash);
    const auto it = ns.find(coded_name + arg);
    if (it == ns.end()) continue;
    const double arg_value = std::strtod(arg.c_str() + 1, nullptr);
    if (arg_value > best_arg) {
      best_arg = arg_value;
      row = value;
      coded = it->second;
    }
  }
  return coded > 0.0 ? row / coded : 0.0;
}

int RunMicroKernels(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (StartsWith(argv[i], "--json=")) {
      json_path = std::string(argv[i]).substr(7);
    } else if (StartsWith(argv[i], "--isa=")) {
      const Status s = simd::ForceIsa(std::string(argv[i]).substr(6));
      if (!s.ok()) {
        std::fprintf(stderr, "micro_kernels: %s\n", s.ToString().c_str());
        return 1;
      }
    } else {
      args.push_back(argv[i]);
    }
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (json_path.empty()) return 0;
  Json kernels = Json::Obj();
  for (const auto& [name, value] : reporter.ns_per_op()) {
    kernels.Set(name, Json::Num(value));
  }
  Json speedups = Json::Obj();
  speedups.Set("partition_build",
               Json::Num(SpeedupAtLargestArg(reporter.ns_per_op(),
                                             "BM_PartitionBuildRow",
                                             "BM_PartitionBuildCoded")));
  speedups.Set("bag_jaccard",
               Json::Num(SpeedupAtLargestArg(reporter.ns_per_op(),
                                             "BM_BagJaccard",
                                             "BM_BagJaccardCoded")));
  speedups.Set("probe_scan",
               Json::Num(SpeedupAtLargestArg(reporter.ns_per_op(),
                                             "BM_ProbeScanRow",
                                             "BM_ProbeScanCoded")));
  // Scalar-dispatch-ns / active-dispatch-ns for the three simd kernels.
  speedups.Set("simd_partition_build",
               Json::Num(SpeedupAtLargestArg(reporter.ns_per_op(),
                                             "BM_PartitionBuildCodedScalar",
                                             "BM_PartitionBuildCoded")));
  speedups.Set("simd_bag_jaccard",
               Json::Num(SpeedupAtLargestArg(reporter.ns_per_op(),
                                             "BM_BagJaccardCodedScalar",
                                             "BM_BagJaccardCoded")));
  speedups.Set("simd_probe_scan",
               Json::Num(SpeedupAtLargestArg(reporter.ns_per_op(),
                                             "BM_ProbeScanCodedScalar",
                                             "BM_ProbeScanCoded")));
  // Storage footprint: the same 20k-tuple CarDB prefix packed without and
  // with the block codec, against the 4-bytes-per-code plain layout.
  Json footprint = Json::Obj();
  {
    CarDbSpec spec;
    spec.num_tuples = 20000;
    spec.seed = 2006;
    const CarDbGenerator gen(spec);
    ColumnarBuilder::Options copts;
    auto packed = gen.GenerateColumnar(copts);
    copts.store.codec = storage::CodecKind::kLite;
    auto coded = gen.GenerateColumnar(copts);
    if (packed.ok() && coded.ok()) {
      Json plain_vs_packed = bench::BytesPerTupleJson(**packed);
      const storage::BlockStoreStats cstats =
          (*coded)->block_store()->GetStats();
      const double rows = static_cast<double>((*coded)->NumRows());
      plain_vs_packed.Set(
          "stored_lite",
          Json::Num(static_cast<double>(cstats.stored_bytes) / rows));
      footprint = std::move(plain_vs_packed);
    }
  }

  Json doc = Json::Obj();
  doc.Set("bench", Json::Str("micro_kernels"));
  doc.Set("git_sha", Json::Str(bench::GitSha()));
  doc.Set("isa", Json::Str(simd::IsaName(simd::ActiveIsa())));
  doc.Set("kernels", kernels);
  doc.Set("speedups", speedups);
  doc.Set("bytes_per_tuple", std::move(footprint));
  doc.Set("peak_rss_bytes",
          Json::Num(static_cast<double>(bench::PeakRssBytes())));
  return bench::WriteJsonFile(json_path, doc) ? 0 : 1;
}

}  // namespace
}  // namespace aimq

int main(int argc, char** argv) { return aimq::RunMicroKernels(argc, argv); }
