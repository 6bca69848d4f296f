// Live ingest through the serving layer: AimqService::Ingest /
// RefreshKnowledge, the {"op":"ingest"} and {"op":"refresh_knowledge"} wire
// ops over a real socket, the aimq_snapshot_* / aimq_ingest_* metric
// families on /metrics, the background row-trigger refresher, queries
// running concurrently with publishes without a single failure, and a
// striped probe cache whose entries are extended across a publish.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "datagen/cardb.h"
#include "service/server.h"
#include "service/service.h"
#include "service/wire.h"
#include "util/socket.h"

namespace aimq {
namespace {

// Spins until \p done() holds; false after a generous deadline so a stuck
// background refresher fails the test instead of hanging the suite.
bool WaitFor(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

// A CarDB row as the wire ingest op takes it.
std::string WireRow(const std::string& make, const std::string& model,
                    double price) {
  return R"js({"Make":")js" + make + R"js(","Model":")js" + model +
         R"js(","Year":"2004","Price":)js" + std::to_string(price) +
         R"js(,"Mileage":52000,"Location":"Tempe","Color":"Blue"})js";
}

Tuple CarRow(const std::string& make, const std::string& model) {
  return Tuple({Value::Cat(make), Value::Cat(model), Value::Cat("2004"),
                Value::Num(18000), Value::Num(52000), Value::Cat("Tempe"),
                Value::Cat("Blue")});
}

class LiveServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CarDbSpec spec;
    spec.num_tuples = 400;
    spec.seed = 11;
    db_ = new WebDatabase("CarDB", CarDbGenerator(spec).Generate());
    options_ = new AimqOptions();
    options_->collector.sample_size = 200;
    options_->tsim = 0.4;
    options_->top_k = 5;
    options_->num_threads = 2;
    auto knowledge = BuildKnowledge(*db_, *options_);
    ASSERT_TRUE(knowledge.ok()) << knowledge.status().ToString();
    knowledge_ = new MinedKnowledge(knowledge.TakeValue());
  }
  static void TearDownTestSuite() {
    delete knowledge_;
    delete options_;
    delete db_;
    knowledge_ = nullptr;
    options_ = nullptr;
    db_ = nullptr;
  }

  static ImpreciseQuery ModelQuery(const std::string& model) {
    ImpreciseQuery q;
    q.Bind("Model", Value::Cat(model));
    return q;
  }
  static ImpreciseQuery CamryQuery() { return ModelQuery("Camry"); }

  // Opens a client connection to \p server; callers close the fd.
  static int Connect(const AimqServer& server) {
    auto fd = TcpConnect("localhost", server.port());
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    return fd.ok() ? *fd : -1;
  }

  static Json RoundTrip(int fd, LineReader* reader, const std::string& line) {
    EXPECT_TRUE(SendAll(fd, line + "\n").ok());
    auto response = reader->ReadLine();
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->has_value());
    auto json = Json::Parse(**response);
    EXPECT_TRUE(json.ok()) << json.status().ToString();
    return json.ok() ? json.TakeValue() : Json::Null();
  }

  static std::vector<std::string> HttpGet(int port, const std::string& path) {
    std::vector<std::string> lines;
    auto fd = TcpConnect("localhost", port);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    if (!fd.ok()) return lines;
    EXPECT_TRUE(
        SendAll(*fd, "GET " + path + " HTTP/1.1\r\nHost: test\r\n\r\n").ok());
    LineReader reader(*fd);
    for (;;) {
      auto line = reader.ReadLine();
      if (!line.ok() || !line->has_value()) break;
      lines.push_back(**line);
    }
    CloseFd(*fd);
    return lines;
  }

  // First sample value of metric \p name in the Prometheus text, or -1.
  static double MetricValue(const std::vector<std::string>& lines,
                            const std::string& name) {
    const std::string prefix = name + " ";
    for (const std::string& line : lines) {
      if (line.compare(0, prefix.size(), prefix) == 0) {
        return std::stod(line.substr(prefix.size()));
      }
    }
    return -1.0;
  }

  static bool HasLinePrefix(const std::vector<std::string>& lines,
                            const std::string& prefix) {
    for (const std::string& line : lines) {
      if (line.compare(0, prefix.size(), prefix) == 0) return true;
    }
    return false;
  }

  static WebDatabase* db_;
  static AimqOptions* options_;
  static MinedKnowledge* knowledge_;
};

WebDatabase* LiveServiceTest::db_ = nullptr;
AimqOptions* LiveServiceTest::options_ = nullptr;
MinedKnowledge* LiveServiceTest::knowledge_ = nullptr;

TEST_F(LiveServiceTest, IngestPublishesAndServesTheNewRows) {
  ServiceOptions sopts;
  sopts.num_workers = 2;
  AimqService service(db_, *knowledge_, *options_, sopts);
  ASSERT_TRUE(service.Start().ok());

  const auto v0 = service.CurrentVersion();
  EXPECT_EQ(v0->snapshot_version, 0u);
  const size_t base_rows = v0->num_rows;

  auto published = service.Ingest(
      {CarRow("Toyota", "Camry"), CarRow("Toyota", "Camry")});
  ASSERT_TRUE(published.ok()) << published.status().ToString();
  EXPECT_EQ(*published, 1u);

  const auto v1 = service.CurrentVersion();
  EXPECT_EQ(v1->snapshot_version, 1u);
  EXPECT_EQ(v1->num_rows, base_rows + 2);
  // The captured old version is untouched by the publish.
  EXPECT_EQ(v0->num_rows, base_rows);

  // New rows are served: exact Camry matches grew by the ingested pair.
  auto before = v0->engine->Answer(CamryQuery());
  auto after = v1->engine->Answer(CamryQuery());
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  size_t exact_before = 0, exact_after = 0;
  for (const auto& a : *before) exact_before += a.similarity == 1.0;
  for (const auto& a : *after) exact_after += a.similarity == 1.0;
  EXPECT_GE(exact_after, exact_before);

  const LiveIngestStats stats = service.LiveStats();
  EXPECT_EQ(stats.snapshot_version, 1u);
  EXPECT_EQ(stats.ingested_rows_total, 2u);
  EXPECT_EQ(stats.publishes_total, 1u);
  EXPECT_EQ(stats.knowledge_staleness_rows, 2u);
  service.Stop();
}

TEST_F(LiveServiceTest, RefreshKnowledgePublishesANewEdition) {
  ServiceOptions sopts;
  sopts.num_workers = 1;
  AimqService service(db_, *knowledge_, *options_, sopts);
  ASSERT_TRUE(service.Start().ok());
  ASSERT_TRUE(service.Ingest({CarRow("Honda", "Civic")}).ok());

  auto refreshed = service.RefreshKnowledge();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(*refreshed, 2u);
  EXPECT_EQ(service.CurrentVersion()->knowledge_version, 2u);
  EXPECT_EQ(service.LiveStats().knowledge_staleness_rows, 0u);
  EXPECT_EQ(service.LiveStats().refreshes_total, 1u);
  // The refreshed edition answers.
  EXPECT_TRUE(service.Execute(CamryQuery()).ok());
  service.Stop();
}

TEST_F(LiveServiceTest, WireIngestAndRefreshOps) {
  ServiceOptions sopts;
  sopts.num_workers = 2;
  AimqService service(db_, *knowledge_, *options_, sopts);
  ASSERT_TRUE(service.Start().ok());
  AimqServer server(&service, /*port=*/0);
  ASSERT_TRUE(server.Start().ok());

  const int fd = Connect(server);
  ASSERT_GE(fd, 0);
  LineReader reader(fd);

  // Two rows in, version and accepted count out.
  Json r = RoundTrip(fd, &reader,
                     R"js({"op":"ingest","id":7,"rows":[)js" +
                         WireRow("Toyota", "Camry", 17000) + "," +
                         WireRow("Honda", "Accord", 15000) + "]}");
  ASSERT_TRUE(r.GetBool("ok").ok() && *r.GetBool("ok")) << r.Dump();
  EXPECT_DOUBLE_EQ(r.Find("id")->AsNum(), 7.0);
  EXPECT_DOUBLE_EQ(r.Find("accepted")->AsNum(), 2.0);
  EXPECT_DOUBLE_EQ(r.Find("snapshot_version")->AsNum(), 1.0);

  // The ingested rows are served over the wire immediately.
  r = RoundTrip(fd, &reader,
                R"js({"op":"query","q":"Q(Model like 'Accord')"})js");
  ASSERT_TRUE(r.GetBool("ok").ok() && *r.GetBool("ok")) << r.Dump();
  ASSERT_NE(r.Find("answers"), nullptr);
  EXPECT_GT(r.Find("answers")->AsArr().size(), 0u);

  // Type mismatch answers in-band and publishes nothing.
  r = RoundTrip(
      fd, &reader,
      R"js({"op":"ingest","rows":[{"Make":"Kia","Price":"not a number"}]})js");
  ASSERT_TRUE(r.GetBool("ok").ok());
  EXPECT_FALSE(*r.GetBool("ok"));
  // Unknown attribute is rejected, not silently dropped.
  r = RoundTrip(fd, &reader,
                R"js({"op":"ingest","rows":[{"Maek":"Kia"}]})js");
  ASSERT_TRUE(r.GetBool("ok").ok());
  EXPECT_FALSE(*r.GetBool("ok"));
  EXPECT_EQ(service.LiveStats().snapshot_version, 1u);

  // Knowledge refresh over the wire reports both versions.
  r = RoundTrip(fd, &reader, R"js({"op":"refresh_knowledge","id":8})js");
  ASSERT_TRUE(r.GetBool("ok").ok() && *r.GetBool("ok")) << r.Dump();
  EXPECT_DOUBLE_EQ(r.Find("id")->AsNum(), 8.0);
  EXPECT_DOUBLE_EQ(r.Find("knowledge_version")->AsNum(), 2.0);
  EXPECT_DOUBLE_EQ(r.Find("snapshot_version")->AsNum(), 1.0);

  // The connection survived everything.
  r = RoundTrip(fd, &reader, R"js({"op":"ping"})js");
  EXPECT_EQ(r.Dump(), R"js({"ok":true,"pong":true})js");
  CloseFd(fd);
  server.Stop();
  service.Stop();
}

TEST_F(LiveServiceTest, PrometheusExportsLiveIngestFamilies) {
  ServiceOptions sopts;
  sopts.num_workers = 1;
  AimqService service(db_, *knowledge_, *options_, sopts);
  ASSERT_TRUE(service.Start().ok());
  AimqServer server(&service, /*port=*/0);
  ASSERT_TRUE(server.Start().ok());

  auto baseline = HttpGet(server.port(), "/metrics");
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(MetricValue(baseline, "aimq_snapshot_version"), 0.0);

  ASSERT_TRUE(service.Ingest({CarRow("Toyota", "Camry"),
                              CarRow("Toyota", "Corolla"),
                              CarRow("Honda", "Civic")})
                  .ok());
  ASSERT_TRUE(service.RefreshKnowledge().ok());

  const auto lines = HttpGet(server.port(), "/metrics");
  ASSERT_FALSE(lines.empty());
  for (const char* family :
       {"# TYPE aimq_snapshot_version gauge",
        "# TYPE aimq_knowledge_version gauge",
        "# TYPE aimq_knowledge_staleness_rows gauge",
        "# TYPE aimq_ingest_rows_total counter",
        "# TYPE aimq_snapshot_publishes_total counter",
        "# TYPE aimq_knowledge_refreshes_total counter",
        "# TYPE aimq_snapshot_publish_seconds histogram",
        "# TYPE aimq_probe_cache_extended_total counter"}) {
    EXPECT_TRUE(HasLinePrefix(lines, family)) << "missing: " << family;
  }
  EXPECT_EQ(MetricValue(lines, "aimq_snapshot_version"), 1.0);
  EXPECT_EQ(MetricValue(lines, "aimq_knowledge_version"), 2.0);
  EXPECT_EQ(MetricValue(lines, "aimq_ingest_rows_total"), 3.0);
  EXPECT_EQ(MetricValue(lines, "aimq_knowledge_staleness_rows"), 0.0);
  EXPECT_EQ(MetricValue(lines, "aimq_snapshot_publishes_total"), 1.0);
  EXPECT_TRUE(HasLinePrefix(lines, "aimq_snapshot_publish_seconds_bucket"));

  server.Stop();
  service.Stop();
}

TEST_F(LiveServiceTest, RowTriggerRefreshesKnowledgeInBackground) {
  ServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.ingest_trigger_rows = 1;  // any published staleness re-mines
  AimqService service(db_, *knowledge_, *options_, sopts);
  ASSERT_TRUE(service.Start().ok());
  EXPECT_EQ(service.LiveStats().knowledge_version, 1u);

  ASSERT_TRUE(service.Ingest({CarRow("Toyota", "Camry")}).ok());
  EXPECT_TRUE(WaitFor([&] { return service.LiveStats().refreshes_total >= 1; }))
      << "background refresher never fired";
  EXPECT_GE(service.LiveStats().knowledge_version, 2u);
  EXPECT_EQ(service.LiveStats().knowledge_staleness_rows, 0u);
  service.Stop();
}

TEST_F(LiveServiceTest, QueriesNeverFailAcrossConcurrentPublishes) {
  ServiceOptions sopts;
  sopts.num_workers = 2;
  sopts.queue_depth = 64;
  AimqService service(db_, *knowledge_, *options_, sopts);
  ASSERT_TRUE(service.Start().ok());

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread querier([&] {
    while (!done.load()) {
      auto response = service.Execute(CamryQuery());
      // Queue-full rejections are admission control, not serving failures —
      // with depth 64 and one querier they cannot happen here.
      if (!response.ok() || response->answers.empty()) ++failures;
    }
  });
  for (int round = 0; round < 8; ++round) {
    ASSERT_TRUE(service.Ingest({CarRow("Toyota", "Camry")}).ok());
    if (round % 3 == 2) {
      ASSERT_TRUE(service.RefreshKnowledge().ok());
    }
  }
  done.store(true);
  querier.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(service.LiveStats().snapshot_version, 8u);
  EXPECT_EQ(service.LiveStats().ingested_rows_total, 8u);
  service.Stop();
}

TEST_F(LiveServiceTest, StripedCacheMatchesTheCapturedVersionAcrossAPublish) {
  // A 2^16-entry shared cache is 16 stripes. Eight clients replay a small
  // catalog while one publish lands mid-stream, so entries cached at v0 are
  // extended over the delta inside their own stripes.
  AimqOptions engine_options = *options_;
  engine_options.probe_cache_capacity = 1 << 16;
  ServiceOptions sopts;
  sopts.num_workers = 4;
  sopts.queue_depth = 64;
  // A plain copy of the rows of a snapshot, as a new source.
  const auto copy_rows = [](const ColumnarRelation& cols) {
    Relation rows(cols.schema());
    for (size_t row = 0; row < cols.NumRows(); ++row) {
      rows.AppendUnchecked(cols.MaterializeTuple(row));
    }
    return rows;
  };
  // Only a snapshot's first Extend continues its lineage, and other tests
  // publish over db_, so this test serves a fresh copy of its rows.
  const WebDatabase source("CarDB", copy_rows(*db_->columnar()));
  AimqService service(&source, *knowledge_, engine_options, sopts);
  ASSERT_TRUE(service.Start().ok());
  ASSERT_NE(service.probe_cache(), nullptr);
  ASSERT_TRUE(service.probe_cache()->coalescing_enabled());
  const auto v0 = service.CurrentVersion();

  const std::vector<ImpreciseQuery> catalog = {
      ModelQuery("Camry"), ModelQuery("Civic"), ModelQuery("Accord"),
      ModelQuery("Altima"), ModelQuery("Focus")};
  // Which version an answer must match: a request submitted after the
  // publish returned runs on v1, one that returned before the publish began
  // ran on v0, and one that overlapped it may have captured either.
  enum class Expect { kV0, kV1, kEither };
  struct Observation {
    size_t query = 0;
    Expect expect = Expect::kEither;
    QueryResponse response;
  };
  std::mutex record_mu;
  std::vector<Observation> observations;
  std::atomic<size_t> completed{0};
  std::atomic<bool> publishing{false};
  std::atomic<bool> published{false};
  std::atomic<int> failures{0};

  constexpr size_t kClients = 8;
  constexpr size_t kRounds = 3 * 5;  // three passes over the catalog
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds || !published.load(); ++round) {
        Observation ob;
        ob.query = (t + round) % catalog.size();
        const bool after = published.load();
        auto response = service.Execute(catalog[ob.query]);
        const bool before = !publishing.load();
        if (!response.ok() || response->truncated) {
          ++failures;
          continue;
        }
        ob.expect = after    ? Expect::kV1
                    : before ? Expect::kV0
                             : Expect::kEither;
        ob.response = std::move(*response);
        std::lock_guard<std::mutex> lock(record_mu);
        observations.push_back(std::move(ob));
        ++completed;
      }
    });
  }
  // Publish once every client has had a turn (clients run until it lands).
  EXPECT_TRUE(WaitFor([&] { return completed.load() >= kClients * 5; }));
  publishing.store(true);
  auto publish = service.Ingest(
      {CarRow("Toyota", "Camry"), CarRow("Honda", "Civic")});
  published.store(true);
  for (std::thread& c : clients) c.join();
  ASSERT_TRUE(publish.ok()) << publish.status().ToString();
  const auto v1 = service.CurrentVersion();
  ASSERT_EQ(v1->snapshot_version, 1u);
  EXPECT_EQ(failures.load(), 0);

  // Serial, cache-free reference engines over each version's rows.
  AimqOptions reference_options = *options_;
  reference_options.num_threads = 1;
  reference_options.probe_cache_capacity = 0;
  struct Expected {
    std::vector<RankedAnswer> answers;
    RelaxationStats stats;
  };
  const std::shared_ptr<const ServingVersion> versions[2] = {v0, v1};
  std::vector<Expected> expected[2];  // by version, then catalog index
  for (size_t v = 0; v < 2; ++v) {
    const WebDatabase reference_db(
        "CarDB", copy_rows(*versions[v]->source->columnar()));
    AimqEngine reference(&reference_db, versions[v]->knowledge->knowledge,
                         reference_options);
    expected[v].resize(catalog.size());
    for (size_t q = 0; q < catalog.size(); ++q) {
      auto answers = reference.Answer(catalog[q], RelaxationStrategy::kGuided,
                                      &expected[v][q].stats);
      ASSERT_TRUE(answers.ok()) << answers.status().ToString();
      expected[v][q].answers = std::move(*answers);
    }
  }
  const auto matches = [&](const Observation& ob, size_t v) {
    const Expected& want = expected[v][ob.query];
    const std::vector<RankedAnswer>& got = ob.response.answers;
    if (got.size() != want.answers.size()) return false;
    for (size_t i = 0; i < got.size(); ++i) {
      if (!(got[i].tuple == want.answers[i].tuple) ||
          got[i].similarity != want.answers[i].similarity) {
        return false;
      }
    }
    return ob.response.stats.tuples_relevant.load() ==
               want.stats.tuples_relevant.load() &&
           ob.response.stats.max_relax_depth.load() ==
               want.stats.max_relax_depth.load();
  };
  size_t on_v1 = 0;
  for (const Observation& ob : observations) {
    const std::string where = "query " + std::to_string(ob.query);
    switch (ob.expect) {
      case Expect::kV0:
        EXPECT_TRUE(matches(ob, 0)) << where << " on v0";
        break;
      case Expect::kV1:
        EXPECT_TRUE(matches(ob, 1)) << where << " on v1";
        ++on_v1;
        break;
      case Expect::kEither:
        EXPECT_TRUE(matches(ob, 0) || matches(ob, 1)) << where;
        break;
    }
  }
  EXPECT_GE(on_v1, kClients);

  // v1's lookups extended v0 entries in place; nothing was evicted.
  const ProbeCacheStats stats = service.probe_cache()->stats();
  EXPECT_GT(stats.extended, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  service.Stop();
}

}  // namespace
}  // namespace aimq
