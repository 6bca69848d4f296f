// Serving-layer integration of the shard + tenancy work: a sharded service
// answers bit-identically to the unsharded engine, per-tenant quotas reject
// deterministically, stride scheduling drains tenants by weight in a
// deterministic total order, and the shard/tenant-labelled metric families
// surface in both the registry's JSON snapshot and its Prometheus text.

#include "service/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "datagen/cardb.h"

namespace aimq {
namespace {

// A source whose probes block on a gate until released — pins the single
// worker inside one request so a test can shape the queue deterministically.
class GatedDb : public WebDatabase {
 public:
  GatedDb(std::string name, Relation data)
      : WebDatabase(std::move(name), std::move(data)) {}

  Result<std::vector<uint32_t>> ExecuteRows(
      const SelectionQuery& query) const override {
    ++arrivals_;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return released_; });
    }
    return WebDatabase::ExecuteRows(query);
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

  int arrivals() const { return arrivals_.load(); }

 private:
  mutable std::atomic<int> arrivals_{0};
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool released_ = false;  // guarded by mu_
};

ImpreciseQuery ModelQuery(const std::string& model) {
  ImpreciseQuery q;
  q.Bind("Model", Value::Cat(model));
  return q;
}

bool WaitFor(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

class ShardedServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CarDbSpec spec;
    spec.num_tuples = 600;
    spec.seed = 11;
    data_ = new Relation(CarDbGenerator(spec).Generate());
    db_ = new WebDatabase("CarDB", *data_);
    options_ = new AimqOptions();
    options_->collector.sample_size = 300;
    options_->tsim = 0.4;
    options_->top_k = 10;
    options_->num_threads = 2;
    auto knowledge = BuildKnowledge(*db_, *options_);
    ASSERT_TRUE(knowledge.ok()) << knowledge.status().ToString();
    knowledge_ = new MinedKnowledge(knowledge.TakeValue());
  }
  static void TearDownTestSuite() {
    delete knowledge_;
    delete options_;
    delete db_;
    delete data_;
    knowledge_ = nullptr;
    options_ = nullptr;
    db_ = nullptr;
    data_ = nullptr;
  }

  static Relation* data_;
  static WebDatabase* db_;
  static AimqOptions* options_;
  static MinedKnowledge* knowledge_;
};

Relation* ShardedServiceTest::data_ = nullptr;
WebDatabase* ShardedServiceTest::db_ = nullptr;
AimqOptions* ShardedServiceTest::options_ = nullptr;
MinedKnowledge* ShardedServiceTest::knowledge_ = nullptr;

// Tenant admission/fairness cases share the fixture (same CarDB/knowledge);
// a distinct suite name keeps them separately selectable in CI.
using TenantAdmissionTest = ShardedServiceTest;

TEST_F(ShardedServiceTest, ShardedServiceMatchesUnshardedEngine) {
  ServiceOptions sopts;
  sopts.num_workers = 4;
  sopts.queue_depth = 64;
  sopts.num_shards = 4;
  AimqService service(db_, *knowledge_, *options_, sopts);
  ASSERT_EQ(service.num_shards(), 4u);
  ASSERT_TRUE(service.Start().ok());

  AimqOptions serial = *options_;
  serial.num_threads = 1;
  AimqEngine reference(db_, *knowledge_, serial);

  for (const char* model : {"Camry", "Civic", "Altima", "Outback"}) {
    auto served = service.Execute(ModelQuery(model));
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    auto direct = reference.Answer(ModelQuery(model));
    ASSERT_TRUE(direct.ok());
    ASSERT_EQ(served->answers.size(), direct->size()) << model;
    for (size_t i = 0; i < direct->size(); ++i) {
      EXPECT_EQ(served->answers[i].tuple, (*direct)[i].tuple);
      EXPECT_EQ(served->answers[i].similarity, (*direct)[i].similarity);
    }
  }
  service.Stop();
}

TEST_F(ShardedServiceTest, RegistryJsonReportsShardAndCoalescingCounters) {
  ServiceOptions sopts;
  sopts.num_workers = 2;
  sopts.num_shards = 3;
  AimqService service(db_, *knowledge_, *options_, sopts);
  ASSERT_TRUE(service.Start().ok());
  ASSERT_TRUE(service.Execute(ModelQuery("Camry")).ok());
  service.Stop();

  ASSERT_EQ(service.ShardStats().size(), 3u);
  const Json stats = service.metrics_registry().JsonSnapshot();
  const Json* rows = stats.Find("aimq_shard_rows");
  ASSERT_NE(rows, nullptr) << stats.Dump();
  ASSERT_TRUE(rows->is_array());
  ASSERT_EQ(rows->AsArr().size(), 3u);
  double total_rows = 0.0;
  for (const Json& shard : rows->AsArr()) total_rows += *shard.GetNum("value");
  EXPECT_DOUBLE_EQ(total_rows, static_cast<double>(data_->NumTuples()));
  const Json* probes = stats.Find("aimq_shard_probes_total");
  ASSERT_NE(probes, nullptr) << stats.Dump();
  ASSERT_EQ(probes->AsArr().size(), 3u);
  EXPECT_EQ(*probes->AsArr()[2].GetStr("shard"), "2");
  EXPECT_NE(stats.Find("aimq_probe_cache_coalesced_total"), nullptr)
      << stats.Dump();
  EXPECT_NE(stats.Find("aimq_tenant_completed_total"), nullptr)
      << stats.Dump();
}

TEST_F(ShardedServiceTest, PrometheusTextExposesShardAndTenantFamilies) {
  ServiceOptions sopts;
  sopts.num_workers = 2;
  sopts.num_shards = 2;
  AimqService service(db_, *knowledge_, *options_, sopts);
  ASSERT_TRUE(service.Start().ok());
  ASSERT_TRUE(service.Execute(ModelQuery("Camry"), 0, 0, "acme").ok());
  service.Stop();

  const std::string text = service.metrics_registry().PrometheusText();
  EXPECT_NE(text.find("aimq_shard_probes_total{shard=\"0\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("aimq_shard_probes_total{shard=\"1\"}"),
            std::string::npos);
  EXPECT_NE(text.find("aimq_shard_tuples_total{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("aimq_tenant_accepted_total{tenant=\"acme\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("aimq_tenant_completed_total{tenant=\"acme\"}"),
            std::string::npos);
  EXPECT_NE(text.find("aimq_probe_cache_coalesced_total"), std::string::npos);
}

// An unsharded service over a packed source serves it as a one-shard plan,
// so BlockStats() reports exactly the source's own store, at index 0.
TEST_F(ShardedServiceTest, UnshardedPackedSourceReportsItsStoreAtIndexZero) {
  ColumnarBuilder::Options copts;
  copts.store.block_size = 128;
  auto builder = ColumnarBuilder::Create(data_->schema(), std::move(copts));
  ASSERT_TRUE(builder.ok()) << builder.status().ToString();
  for (size_t row = 0; row < data_->NumTuples(); ++row) {
    ASSERT_TRUE((*builder)->AppendRow(data_->tuple(row)).ok());
  }
  auto packed = (*builder)->Finish();
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  const WebDatabase source("CarDB", *packed);
  const storage::CodeBlockStore* store = source.columnar()->block_store();
  ASSERT_NE(store, nullptr);

  AimqService service(&source, *knowledge_, *options_, ServiceOptions{});
  ASSERT_EQ(service.num_shards(), 1u);
  const auto stats = service.BlockStats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].first, 0u);
  const storage::BlockStoreStats want = store->GetStats();
  EXPECT_EQ(stats[0].second.num_rows, want.num_rows);
  EXPECT_EQ(stats[0].second.num_blocks, want.num_blocks);
  EXPECT_EQ(stats[0].second.stored_bytes, want.stored_bytes);
  EXPECT_EQ(stats[0].second.cache.misses, want.cache.misses);
}

TEST_F(TenantAdmissionTest, QuotaRejectsOnlyTheNoisyTenant) {
  ServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.queue_depth = 64;
  sopts.tenant_quota = 2;
  GatedDb gated("CarDB", *data_);
  AimqService service(&gated, *knowledge_, *options_, sopts);
  ASSERT_TRUE(service.Start().ok());

  std::atomic<int> completions{0};
  const auto done = [&](Result<QueryResponse> r) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    ++completions;
  };

  // Pin the lone worker inside a probe, then shape the queue underneath it.
  ASSERT_TRUE(service.Submit(ModelQuery("Camry"), done, 0, 0, "noisy").ok());
  ASSERT_TRUE(WaitFor([&] { return gated.arrivals() >= 1; }));

  ASSERT_TRUE(service.Submit(ModelQuery("Civic"), done, 0, 0, "noisy").ok());
  ASSERT_TRUE(service.Submit(ModelQuery("Altima"), done, 0, 0, "noisy").ok());
  const Status rejected =
      service.Submit(ModelQuery("Accord"), done, 0, 0, "noisy");
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
  EXPECT_NE(rejected.ToString().find("tenant quota exceeded"),
            std::string::npos)
      << rejected.ToString();
  EXPECT_NE(rejected.ToString().find("noisy"), std::string::npos);

  // The quota is per tenant: a quiet tenant still gets in.
  EXPECT_TRUE(service.Submit(ModelQuery("Accord"), done, 0, 0, "quiet").ok());

  gated.Release();
  service.Stop();  // drains the four accepted requests
  EXPECT_EQ(completions.load(), 4);

  const auto tenants = service.metrics().TenantSnapshot();
  ASSERT_EQ(tenants.count("noisy"), 1u);
  EXPECT_EQ(tenants.at("noisy").accepted, 3u);
  EXPECT_EQ(tenants.at("noisy").rejected, 1u);
  EXPECT_EQ(tenants.at("noisy").completed, 3u);
  EXPECT_EQ(tenants.at("quiet").accepted, 1u);
  EXPECT_EQ(tenants.at("quiet").rejected, 0u);
}

TEST_F(TenantAdmissionTest, StrideSchedulingDrainsTenantsByWeight) {
  ServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.queue_depth = 64;
  sopts.tenant_weights["btenant"] = 2.0;  // drains twice as fast as weight 1
  GatedDb gated("CarDB", *data_);
  AimqService service(&gated, *knowledge_, *options_, sopts);
  ASSERT_TRUE(service.Start().ok());

  std::mutex order_mu;
  std::vector<std::string> order;
  const auto record = [&](const std::string& tenant) {
    return [&, tenant](Result<QueryResponse> r) {
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(tenant);
    };
  };

  // Pin the worker so the six follow-ups queue while it is busy; the single
  // worker then completes them in exactly the stride-schedule dequeue order.
  ASSERT_TRUE(
      service.Submit(ModelQuery("Camry"), record("pin"), 0, 0, "pin").ok());
  ASSERT_TRUE(WaitFor([&] { return gated.arrivals() >= 1; }));
  for (const char* tenant :
       {"atenant", "atenant", "btenant", "btenant", "btenant", "btenant"}) {
    ASSERT_TRUE(
        service.Submit(ModelQuery("Civic"), record(tenant), 0, 0, tenant)
            .ok());
  }

  gated.Release();
  service.Stop();

  // Both tenants join at the same pass level; "atenant" wins the first tie
  // on name, then weight 2 lets "btenant" dequeue twice per "atenant" turn.
  const std::vector<std::string> expected = {
      "pin",     "atenant", "btenant", "btenant",
      "atenant", "btenant", "btenant"};
  EXPECT_EQ(order, expected);
}

TEST_F(TenantAdmissionTest, DefaultTenantPreservesFifoOrder) {
  ServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.queue_depth = 64;
  GatedDb gated("CarDB", *data_);
  AimqService service(&gated, *knowledge_, *options_, sopts);
  ASSERT_TRUE(service.Start().ok());

  std::mutex order_mu;
  std::vector<int> order;
  const auto record = [&](int i) {
    return [&, i](Result<QueryResponse> r) {
      EXPECT_TRUE(r.ok());
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(i);
    };
  };
  ASSERT_TRUE(service.Submit(ModelQuery("Camry"), record(0)).ok());
  ASSERT_TRUE(WaitFor([&] { return gated.arrivals() >= 1; }));
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(service.Submit(ModelQuery("Civic"), record(i)).ok());
  }
  gated.Release();
  service.Stop();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace aimq
