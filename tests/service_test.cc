// AimqService lifecycle: admission control, concurrent sessions, deadlines,
// and graceful drain-then-stop. Also the determinism contract — answers a
// worker pool produces must be bit-identical to a serial engine's.

#include "service/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "datagen/cardb.h"
#include "util/stopwatch.h"

namespace aimq {
namespace {

// A source whose every probe costs wall-clock time — makes queue backlog and
// deadline windows deterministic to hit.
class SlowDb : public WebDatabase {
 public:
  SlowDb(std::string name, Relation data, std::chrono::milliseconds delay)
      : WebDatabase(std::move(name), std::move(data)), delay_(delay) {}

  Result<std::vector<uint32_t>> ExecuteRows(
      const SelectionQuery& query) const override {
    std::this_thread::sleep_for(delay_);
    return WebDatabase::ExecuteRows(query);
  }

 private:
  std::chrono::milliseconds delay_;
};

ImpreciseQuery ModelQuery(const std::string& model) {
  ImpreciseQuery q;
  q.Bind("Model", Value::Cat(model));
  return q;
}

class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CarDbSpec spec;
    spec.num_tuples = 600;
    spec.seed = 11;
    Relation data = CarDbGenerator(spec).Generate();
    db_ = new WebDatabase("CarDB", data);
    slow_db_ = new SlowDb("CarDB", std::move(data),
                          std::chrono::milliseconds(5));
    options_ = new AimqOptions();
    options_->collector.sample_size = 300;
    options_->tsim = 0.4;
    options_->top_k = 10;
    auto knowledge = BuildKnowledge(*db_, *options_);
    ASSERT_TRUE(knowledge.ok()) << knowledge.status().ToString();
    knowledge_ = new MinedKnowledge(knowledge.TakeValue());
  }
  static void TearDownTestSuite() {
    delete knowledge_;
    delete options_;
    delete slow_db_;
    delete db_;
    knowledge_ = nullptr;
    options_ = nullptr;
    slow_db_ = nullptr;
    db_ = nullptr;
  }

  static std::unique_ptr<AimqService> MakeService(ServiceOptions sopts,
                                                  bool slow = false) {
    AimqOptions eopts = *options_;
    eopts.num_threads = 2;
    if (slow) {
      // Make every probe pay the source delay and walk the full relaxation
      // sequence, so an uncancelled run lasts far beyond any test deadline.
      eopts.probe_cache_capacity = 0;
      eopts.relax_stop_after = 0;
      eopts.base_set_limit = 8;
    }
    auto service = std::make_unique<AimqService>(
        slow ? slow_db_ : db_, *knowledge_, eopts, sopts);
    EXPECT_TRUE(service->Start().ok());
    return service;
  }

  static WebDatabase* db_;
  static SlowDb* slow_db_;
  static AimqOptions* options_;
  static MinedKnowledge* knowledge_;
};

WebDatabase* ServiceTest::db_ = nullptr;
SlowDb* ServiceTest::slow_db_ = nullptr;
AimqOptions* ServiceTest::options_ = nullptr;
MinedKnowledge* ServiceTest::knowledge_ = nullptr;

TEST_F(ServiceTest, AnswersMatchSerialEngineBitForBit) {
  ServiceOptions sopts;
  sopts.num_workers = 4;
  sopts.queue_depth = 64;
  auto service = MakeService(sopts);

  AimqOptions serial = *options_;
  serial.num_threads = 1;
  AimqEngine reference(db_, *knowledge_, serial);

  const char* kModels[] = {"Camry", "Civic", "Altima", "Outback"};
  for (const char* model : kModels) {
    auto served = service->Execute(ModelQuery(model));
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_FALSE(served->truncated);
    auto direct = reference.Answer(ModelQuery(model));
    ASSERT_TRUE(direct.ok());
    ASSERT_EQ(served->answers.size(), direct->size()) << model;
    for (size_t i = 0; i < direct->size(); ++i) {
      EXPECT_EQ(served->answers[i].tuple, (*direct)[i].tuple);
      EXPECT_EQ(served->answers[i].similarity, (*direct)[i].similarity);
    }
  }
  service->Stop();
}

TEST_F(ServiceTest, ManyConcurrentSessionsAllComplete) {
  ServiceOptions sopts;
  sopts.num_workers = 4;
  sopts.queue_depth = 256;
  auto service = MakeService(sopts);

  const char* kModels[] = {"Camry", "Civic", "Altima", "Outback", "Accord",
                           "Corolla", "Sentra", "Maxima"};
  constexpr size_t kSessions = 8;
  constexpr size_t kQueriesPerSession = 3;
  std::atomic<size_t> ok_count{0};
  std::vector<std::thread> sessions;
  for (size_t s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&, s] {
      for (size_t i = 0; i < kQueriesPerSession; ++i) {
        auto r = service->Execute(ModelQuery(kModels[(s + i) % 8]));
        if (r.ok() && !r->answers.empty()) ++ok_count;
      }
    });
  }
  for (auto& t : sessions) t.join();
  EXPECT_EQ(ok_count.load(), kSessions * kQueriesPerSession);
  EXPECT_EQ(service->metrics().completed(), kSessions * kQueriesPerSession);
  EXPECT_EQ(service->metrics().rejected(), 0u);
  EXPECT_EQ(service->metrics().InFlight(), 0u);
  EXPECT_EQ(service->metrics().latency().count(),
            kSessions * kQueriesPerSession);
  service->Stop();
}

TEST_F(ServiceTest, FullQueueRejectsImmediatelyWithoutBlocking) {
  ServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.queue_depth = 2;
  auto service = MakeService(sopts, /*slow=*/true);

  std::atomic<size_t> callbacks{0};
  size_t accepted = 0;
  size_t rejected = 0;
  Stopwatch watch;
  for (int i = 0; i < 12; ++i) {
    // Accepted requests carry a deadline so the drain below stays quick.
    Status s = service->Submit(ModelQuery("Camry"),
                               [&](Result<QueryResponse>) { ++callbacks; },
                               /*deadline_ms=*/100);
    if (s.ok()) {
      ++accepted;
    } else {
      ++rejected;
      EXPECT_EQ(s.code(), StatusCode::kUnavailable);
      EXPECT_FALSE(s.context().empty());  // says which limit was hit
    }
  }
  // All 12 submissions returned while the slow worker has not finished even
  // one request: admission control never blocked the submitting thread.
  EXPECT_LT(watch.ElapsedSeconds(), 2.0);
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(service->metrics().rejected(), rejected);
  EXPECT_EQ(service->metrics().accepted(), accepted);
  service->Drain();
  // Every accepted request's callback fired exactly once; rejected ones not
  // at all.
  EXPECT_EQ(callbacks.load(), accepted);
  service->Stop();
}

TEST_F(ServiceTest, DeadlineExceededReturnsTruncatedPartialTopK) {
  ServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.queue_depth = 8;
  auto service = MakeService(sopts, /*slow=*/true);

  auto r = service->Execute(ModelQuery("Camry"), /*deadline_ms=*/80);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->truncated);
  // Base-set tuples match the query exactly, so even a cut-short run has
  // answers to rank.
  EXPECT_GT(r->answers.size(), 0u);
  EXPECT_EQ(service->metrics().truncated(), 1u);
  service->Stop();
}

TEST_F(ServiceTest, DefaultDeadlineAppliesWhenRequestCarriesNone) {
  ServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.queue_depth = 8;
  sopts.default_deadline_ms = 80;
  auto service = MakeService(sopts, /*slow=*/true);

  auto r = service->Execute(ModelQuery("Camry"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->truncated);
  service->Stop();
}

TEST_F(ServiceTest, StopDrainsQueuedRequestsThenRejectsNewOnes) {
  ServiceOptions sopts;
  sopts.num_workers = 2;
  sopts.queue_depth = 32;
  auto service = MakeService(sopts, /*slow=*/true);

  std::atomic<size_t> callbacks{0};
  constexpr size_t kRequests = 6;
  for (size_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(service
                    ->Submit(ModelQuery("Camry"),
                             [&](Result<QueryResponse> r) {
                               // Queue wait counts against the deadline, so
                               // late-queued requests may finish deadlined —
                               // but each one still gets its callback.
                               if (!r.ok()) {
                                 EXPECT_EQ(r.status().code(),
                                           StatusCode::kDeadlineExceeded)
                                     << r.status().ToString();
                               }
                               ++callbacks;
                             },
                             /*deadline_ms=*/150)
                    .ok());
  }
  service->Stop();
  // Drain-then-stop: every accepted request ran to completion first.
  EXPECT_EQ(callbacks.load(), kRequests);
  EXPECT_FALSE(service->running());
  Status late = service->Submit(ModelQuery("Camry"),
                                [](Result<QueryResponse>) { FAIL(); });
  EXPECT_EQ(late.code(), StatusCode::kUnavailable);
  service->Stop();  // idempotent
}

TEST_F(ServiceTest, DrainWaitsForInFlightWork) {
  ServiceOptions sopts;
  sopts.num_workers = 2;
  sopts.queue_depth = 32;
  auto service = MakeService(sopts, /*slow=*/true);
  std::atomic<size_t> callbacks{0};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(service
                    ->Submit(ModelQuery("Camry"),
                             [&](Result<QueryResponse>) { ++callbacks; },
                             /*deadline_ms=*/150)
                    .ok());
  }
  service->Drain();
  EXPECT_EQ(callbacks.load(), 4u);
  EXPECT_EQ(service->QueueSize(), 0u);
  EXPECT_TRUE(service->running());  // drain does not close admission
  service->Stop();
}

TEST_F(ServiceTest, RegistryJsonReportsCountersAndCacheHitRate) {
  ServiceOptions sopts;
  sopts.num_workers = 2;
  sopts.queue_depth = 16;
  auto service = MakeService(sopts);
  ASSERT_TRUE(service->Execute(ModelQuery("Camry")).ok());
  ASSERT_TRUE(service->Execute(ModelQuery("Camry")).ok());

  // The registry JSON: what the stats op and GET /metrics.json answer.
  const Json stats = service->metrics_registry().JsonSnapshot();
  auto completed = stats.GetNum("aimq_requests_completed_total");
  ASSERT_TRUE(completed.ok());
  EXPECT_DOUBLE_EQ(*completed, 2.0);
  const Json* latency = stats.Find("aimq_request_latency_seconds");
  ASSERT_NE(latency, nullptr);
  EXPECT_DOUBLE_EQ(*latency->GetNum("count"), 2.0);
  EXPECT_TRUE(latency->GetNum("p99").ok());
  // The engine options enable the probe cache. Identical back-to-back
  // queries hit it (or the engine's answer path dedup) — the hit-rate
  // family must be well-formed.
  auto hit_rate = stats.GetNum("aimq_probe_cache_hit_rate");
  ASSERT_TRUE(hit_rate.ok());
  EXPECT_GE(*hit_rate, 0.0);
  EXPECT_LE(*hit_rate, 1.0);
  service->Stop();
}

TEST_F(ServiceTest, SubmitBeforeStartIsRejected) {
  ServiceOptions sopts;
  AimqOptions eopts = *options_;
  AimqService service(db_, *knowledge_, eopts, sopts);
  Status s = service.Submit(ModelQuery("Camry"),
                            [](Result<QueryResponse>) { FAIL(); });
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace aimq
