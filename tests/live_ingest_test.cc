// Live-ingest acceptance property (DESIGN.md §5i): for any interleaving of
// ingest, knowledge refresh, and queries, every answer is bit-identical —
// answers, similarities, and RelaxationStats — to a from-scratch engine
// built at the query's *captured* (snapshot, knowledge) version. Exercised
// across the serving matrix: plain/packed storage × sharded/unsharded ×
// client threads {1, 8}, with a publisher thread swapping versions under
// the clients the whole time. The Cached* variants run the same matrix with
// the shared probe cache and coalescing on, so cache entries carry forward
// across the publishes; their probe accounting differs from a cache-free
// engine's by design, so they compare answers, similarities,
// tuples_relevant, max_relax_depth, the expansion count and the logical
// probe count (queries_issued + deduped_probes). A cached version's engine
// also memoizes expansions, and a memo hit issues no probe, so an
// observation that reused expansions issues at most the reference's logical
// probes; one that reused none issues exactly as many.

#include "live/live_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datagen/cardb.h"

namespace aimq {
namespace {

struct LiveConfig {
  bool packed = false;
  size_t num_shards = 1;
  size_t client_threads = 1;
  bool cached = false;  // shared probe cache + coalescing across versions
};

std::string ConfigName(const LiveConfig& c) {
  return std::string(c.cached ? "cached_" : "") +
         (c.packed ? "packed" : "plain") + "_shards" +
         std::to_string(c.num_shards) + "_threads" +
         std::to_string(c.client_threads);
}

ImpreciseQuery ModelQuery(const std::string& model) {
  ImpreciseQuery q;
  q.Bind("Model", Value::Cat(model));
  return q;
}

// One observed answer: the captured version (kept alive by the shared_ptr),
// the query, and everything the engine returned.
struct Observation {
  std::shared_ptr<const ServingVersion> version;
  size_t query_index = 0;
  std::vector<RankedAnswer> answers;
  RelaxationStats stats;
};

// A from-scratch reference stack at one (snapshot, knowledge) version:
// plain unsharded WebDatabase over the version's rows, fresh engine over a
// copy of the version's knowledge edition.
struct ReferenceStack {
  std::unique_ptr<Relation> rows;
  std::unique_ptr<WebDatabase> db;
  std::unique_ptr<AimqEngine> engine;
};

class LiveIngestPropertyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CarDbSpec spec;
    spec.num_tuples = 240;
    spec.seed = 11;
    initial_ = new Relation(CarDbGenerator(spec).Generate());

    CarDbSpec delta_spec;
    delta_spec.num_tuples = 90;
    delta_spec.seed = 77;
    delta_ = new Relation(CarDbGenerator(delta_spec).Generate());

    options_ = new AimqOptions();
    options_->collector.sample_size = 120;
    options_->tsim = 0.4;
    options_->top_k = 8;
    // Determinism knobs: serial relaxation fan-out, no shared probe cache
    // (the reference stacks; cached configs turn it on for the live stack).
    options_->num_threads = 1;
    options_->probe_cache_capacity = 0;

    WebDatabase mine_db("CarDB", *initial_);
    auto knowledge = BuildKnowledge(mine_db, *options_);
    ASSERT_TRUE(knowledge.ok()) << knowledge.status().ToString();
    knowledge_ = new MinedKnowledge(knowledge.TakeValue());
  }
  static void TearDownTestSuite() {
    delete knowledge_;
    delete options_;
    delete delta_;
    delete initial_;
    knowledge_ = nullptr;
    options_ = nullptr;
    delta_ = nullptr;
    initial_ = nullptr;
  }

  // Builds the initial source in the config's storage mode.
  static std::unique_ptr<WebDatabase> MakeInitialSource(bool packed) {
    if (!packed) {
      return std::make_unique<WebDatabase>("CarDB", *initial_);
    }
    ColumnarBuilder::Options bopts;
    bopts.store.block_size = 64;
    auto builder = ColumnarBuilder::Create(initial_->schema(), bopts);
    EXPECT_TRUE(builder.ok());
    for (size_t i = 0; i < initial_->NumTuples(); ++i) {
      EXPECT_TRUE((*builder)->AppendRow(initial_->tuple(i)).ok());
    }
    auto snapshot = (*builder)->Finish();
    EXPECT_TRUE(snapshot.ok());
    return std::make_unique<WebDatabase>("CarDB", *snapshot);
  }

  // Verifies every observation against a memoized from-scratch reference at
  // its captured version; reports the number of distinct versions seen.
  // \p cached observations ran through a shared cache: their per-probe
  // accounting is checked only as the logical probe count.
  static void VerifyObservations(const std::vector<Observation>& observations,
                                 const std::vector<ImpreciseQuery>& queries,
                                 bool cached, size_t* versions_seen) {
    std::map<std::pair<uint64_t, uint64_t>, ReferenceStack> references;
    for (const Observation& ob : observations) {
      const auto key = std::make_pair(ob.version->snapshot_version,
                                      ob.version->knowledge_version);
      ReferenceStack& ref = references[key];
      if (ref.engine == nullptr) {
        // Rebuild the version's rows from scratch into a plain unsharded
        // stack — the storage/sharding mode the answers must be invariant
        // to.
        ref.rows = std::make_unique<Relation>(initial_->schema());
        const auto& cols = *ob.version->source->columnar();
        for (size_t row = 0; row < cols.NumRows(); ++row) {
          ref.rows->AppendUnchecked(cols.MaterializeTuple(row));
        }
        ref.db = std::make_unique<WebDatabase>("CarDB", *ref.rows);
        ref.engine = std::make_unique<AimqEngine>(
            ref.db.get(), ob.version->knowledge->knowledge, *options_);
      }
      RelaxationStats ref_stats;
      auto expected =
          ref.engine->Answer(queries[ob.query_index],
                             RelaxationStrategy::kGuided, &ref_stats);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();

      const std::string where =
          "version (" + std::to_string(key.first) + "," +
          std::to_string(key.second) + ") query " +
          std::to_string(ob.query_index);
      ASSERT_EQ(ob.answers.size(), expected->size()) << where;
      for (size_t i = 0; i < expected->size(); ++i) {
        ASSERT_EQ(ob.answers[i].tuple, (*expected)[i].tuple)
            << where << " answer " << i;
        ASSERT_EQ(ob.answers[i].similarity, (*expected)[i].similarity)
            << where << " answer " << i;
      }
      EXPECT_EQ(ob.stats.tuples_relevant.load(),
                ref_stats.tuples_relevant.load())
          << where;
      EXPECT_EQ(ob.stats.max_relax_depth.load(),
                ref_stats.max_relax_depth.load())
          << where;
      EXPECT_EQ(ref_stats.expansions_reused.load(), 0u) << where;
      EXPECT_EQ(ob.stats.expansions.load(), ref_stats.expansions.load())
          << where;
      if (cached) {
        const uint64_t logical =
            ob.stats.queries_issued.load() + ob.stats.deduped_probes.load();
        const uint64_t ref_logical =
            ref_stats.queries_issued.load() + ref_stats.deduped_probes.load();
        if (ob.stats.expansions_reused.load() == 0) {
          EXPECT_EQ(logical, ref_logical) << where;
        } else {
          EXPECT_LE(logical, ref_logical) << where;
        }
        continue;
      }
      EXPECT_EQ(ob.stats.expansions_reused.load(), 0u) << where;
      EXPECT_EQ(ob.stats.queries_issued.load(),
                ref_stats.queries_issued.load())
          << where;
      EXPECT_EQ(ob.stats.tuples_extracted.load(),
                ref_stats.tuples_extracted.load())
          << where;
      EXPECT_EQ(ob.stats.cache_hits.load(), ref_stats.cache_hits.load())
          << where;
      EXPECT_EQ(ob.stats.deduped_probes.load(),
                ref_stats.deduped_probes.load())
          << where;
    }
    *versions_seen = references.size();
  }

  static void RunConfig(const LiveConfig& config) {
    SCOPED_TRACE(ConfigName(config));
    std::unique_ptr<WebDatabase> source = MakeInitialSource(config.packed);
    ASSERT_NE(source, nullptr);
    ASSERT_EQ(source->columnar()->packed(), config.packed);

    LiveOptions lopts;
    lopts.engine = *options_;
    lopts.shards.num_shards = config.num_shards;
    lopts.shards.packed_shards = config.packed;
    if (config.cached) {
      lopts.engine.probe_cache_capacity = 1 << 14;
      lopts.shards.coalesce_probes = true;
    }
    auto created = LiveEngine::Create(source.get(), *knowledge_, lopts);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    std::unique_ptr<LiveEngine> live = created.TakeValue();

    const std::vector<ImpreciseQuery> queries = {
        ModelQuery("Camry"), ModelQuery("Civic"), ModelQuery("Altima")};

    std::mutex record_mu;
    std::vector<Observation> observations;
    // Answers every query once on the current version and records it.
    const auto observe_all = [&] {
      for (size_t q = 0; q < queries.size(); ++q) {
        Observation ob;
        ob.query_index = q;
        ob.version = live->Acquire();
        auto answers = ob.version->engine->Answer(
            queries[q], RelaxationStrategy::kGuided, &ob.stats);
        ASSERT_TRUE(answers.ok()) << answers.status().ToString();
        ob.answers = std::move(*answers);
        std::lock_guard<std::mutex> lock(record_mu);
        observations.push_back(std::move(ob));
      }
    };
    // Warm the cache at the initial version, so that later versions' probes
    // find entries to extend.
    observe_all();

    // Publisher thread: an ingest/publish/refresh script racing the
    // clients — three snapshot publishes and one knowledge refresh. It
    // records each version it publishes (read after the join).
    std::atomic<bool> publisher_done{false};
    std::vector<std::shared_ptr<const ServingVersion>> published;
    std::thread publisher([&] {
      for (int batch = 0; batch < 3; ++batch) {
        std::vector<Tuple> rows;
        for (int i = 0; i < 30; ++i) {
          rows.push_back(delta_->tuple(batch * 30 + i));
        }
        ASSERT_TRUE(live->Ingest(std::move(rows)).ok());
        auto version = live->PublishSnapshot();
        ASSERT_TRUE(version.ok()) << version.status().ToString();
        published.push_back(live->Acquire());
        if (batch == 1) {
          auto refreshed = live->RefreshKnowledge();
          ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
        }
      }
      publisher_done.store(true);
    });

    // Client threads: capture a version, answer on it, record everything.
    // Clients keep querying until the publisher finishes so the
    // interleaving covers every version transition.
    std::vector<std::thread> clients;
    for (size_t t = 0; t < config.client_threads; ++t) {
      clients.emplace_back([&, t] {
        size_t round = 0;
        do {
          Observation ob;
          ob.query_index = (t + round) % queries.size();
          ob.version = live->Acquire();
          bool truncated = false;
          auto answers = ob.version->engine->Answer(
              queries[ob.query_index], RelaxationStrategy::kGuided,
              &ob.stats, nullptr, &truncated);
          ASSERT_TRUE(answers.ok()) << answers.status().ToString();
          ASSERT_FALSE(truncated);
          ob.answers = std::move(*answers);
          {
            std::lock_guard<std::mutex> lock(record_mu);
            observations.push_back(std::move(ob));
          }
          ++round;
        } while (!publisher_done.load() || round < queries.size());
      });
    }
    publisher.join();
    for (std::thread& t : clients) t.join();
    // Once more on the final version.
    observe_all();

    ASSERT_GE(observations.size(), config.client_threads * queries.size());
    size_t versions_seen = 0;
    VerifyObservations(observations, queries, config.cached, &versions_seen);
    EXPECT_GE(versions_seen, 2u);
    if (config.cached) {
      // The final version's probes extended entries cached at earlier
      // versions instead of probing afresh, and nothing aged out.
      const ProbeCacheStats stats = live->probe_cache()->stats();
      EXPECT_GT(stats.extended, 0u);
      EXPECT_EQ(stats.evictions, 0u);
      EXPECT_EQ(stats.version_evictions, 0u);
    }
    // Every published version extends its predecessor's snapshot in the
    // initial source's form: one lineage, the same block grid, and posting
    // lists iff the initial source had them. (A packed source's snapshot is
    // this config's own, so its first publish continues its lineage.)
    ASSERT_EQ(published.size(), 3u);
    const ColumnarRelation& initial_cols = *source->columnar();
    for (const auto& version : published) {
      SCOPED_TRACE(::testing::Message()
                   << "version " << version->snapshot_version);
      const ColumnarRelation& cols = *version->source->columnar();
      ASSERT_EQ(cols.packed(), config.packed);
      EXPECT_EQ(cols.lineage_uid(),
                published[0]->source->columnar()->lineage_uid());
      EXPECT_EQ(version->source->has_posting_lists(),
                source->has_posting_lists());
      if (config.packed) {
        EXPECT_EQ(cols.lineage_uid(), initial_cols.lineage_uid());
        EXPECT_EQ(cols.block_store()->block_size(),
                  initial_cols.block_store()->block_size());
        EXPECT_EQ(cols.block_store()->options().block_size, 64u);
      }
    }
    // The final version reflects the whole script.
    const auto final_version = live->Acquire();
    EXPECT_EQ(final_version->snapshot_version, 3u);
    EXPECT_EQ(final_version->knowledge_version, 2u);
    EXPECT_EQ(final_version->num_rows, initial_->NumTuples() + 90);
  }

  static Relation* initial_;
  static Relation* delta_;
  static AimqOptions* options_;
  static MinedKnowledge* knowledge_;
};

Relation* LiveIngestPropertyTest::initial_ = nullptr;
Relation* LiveIngestPropertyTest::delta_ = nullptr;
AimqOptions* LiveIngestPropertyTest::options_ = nullptr;
MinedKnowledge* LiveIngestPropertyTest::knowledge_ = nullptr;

TEST_F(LiveIngestPropertyTest, PlainUnshardedSingleClient) {
  RunConfig({/*packed=*/false, /*num_shards=*/1, /*client_threads=*/1});
}

TEST_F(LiveIngestPropertyTest, PlainUnshardedEightClients) {
  RunConfig({/*packed=*/false, /*num_shards=*/1, /*client_threads=*/8});
}

TEST_F(LiveIngestPropertyTest, PlainShardedEightClients) {
  RunConfig({/*packed=*/false, /*num_shards=*/4, /*client_threads=*/8});
}

TEST_F(LiveIngestPropertyTest, PackedUnshardedSingleClient) {
  RunConfig({/*packed=*/true, /*num_shards=*/1, /*client_threads=*/1});
}

TEST_F(LiveIngestPropertyTest, PackedShardedEightClients) {
  RunConfig({/*packed=*/true, /*num_shards=*/4, /*client_threads=*/8});
}

TEST_F(LiveIngestPropertyTest, PlainShardedSingleClient) {
  RunConfig({/*packed=*/false, /*num_shards=*/4, /*client_threads=*/1});
}

TEST_F(LiveIngestPropertyTest, CachedPlainUnshardedSingleClient) {
  RunConfig({/*packed=*/false, /*num_shards=*/1, /*client_threads=*/1,
             /*cached=*/true});
}

TEST_F(LiveIngestPropertyTest, CachedPlainUnshardedEightClients) {
  RunConfig({/*packed=*/false, /*num_shards=*/1, /*client_threads=*/8,
             /*cached=*/true});
}

TEST_F(LiveIngestPropertyTest, CachedPlainShardedSingleClient) {
  RunConfig({/*packed=*/false, /*num_shards=*/4, /*client_threads=*/1,
             /*cached=*/true});
}

TEST_F(LiveIngestPropertyTest, CachedPlainShardedEightClients) {
  RunConfig({/*packed=*/false, /*num_shards=*/4, /*client_threads=*/8,
             /*cached=*/true});
}

TEST_F(LiveIngestPropertyTest, CachedPackedUnshardedSingleClient) {
  RunConfig({/*packed=*/true, /*num_shards=*/1, /*client_threads=*/1,
             /*cached=*/true});
}

TEST_F(LiveIngestPropertyTest, CachedPackedUnshardedEightClients) {
  RunConfig({/*packed=*/true, /*num_shards=*/1, /*client_threads=*/8,
             /*cached=*/true});
}

TEST_F(LiveIngestPropertyTest, CachedPackedShardedSingleClient) {
  RunConfig({/*packed=*/true, /*num_shards=*/4, /*client_threads=*/1,
             /*cached=*/true});
}

TEST_F(LiveIngestPropertyTest, CachedPackedShardedEightClients) {
  RunConfig({/*packed=*/true, /*num_shards=*/4, /*client_threads=*/8,
             /*cached=*/true});
}

}  // namespace
}  // namespace aimq
