#include "service/service.h"

#include <chrono>
#include <cstdio>
#include <future>
#include <utility>

#include "service/prometheus.h"

namespace aimq {

namespace {

// In-memory slow-query records retained for SlowQueries().
constexpr size_t kSlowQueryRingCap = 128;

// The tenant label requests without one run under.
const char kDefaultTenant[] = "default";

// Ring capacity, in events, of the trace recorder (oldest overwritten).
constexpr size_t kTraceCapacity = 1 << 16;

ShardedEngineOptions ShardOptionsFrom(const ServiceOptions& service_options) {
  ShardedEngineOptions opts;
  opts.num_shards = service_options.num_shards;
  opts.packed_shards = service_options.packed_shards;
  opts.shard_cache_capacity = service_options.shard_cache_capacity;
  opts.coalesce_probes = service_options.coalesce_probes;
  return opts;
}

}  // namespace

AimqService::AimqService(const WebDatabase* source, MinedKnowledge knowledge,
                         AimqOptions engine_options,
                         ServiceOptions service_options)
    : source_(source), service_options_(service_options) {
  LiveOptions live_options;
  live_options.engine = std::move(engine_options);
  live_options.shards = ShardOptionsFrom(service_options);
  // Create cannot fail: the one-shard plan serves the source as it is, and
  // packed shards build into in-memory block stores.
  live_ = LiveEngine::Create(source, std::move(knowledge),
                             std::move(live_options))
              .TakeValue();
  if (service_options_.enable_tracing) {
    trace_ = std::make_unique<TraceRecorder>(kTraceCapacity);
    live_->SetTraceRecorder(trace_.get());
  }
  // One pull collector covers the whole engine: every subsystem keeps its
  // native stats struct, and a scrape adapts them through the shared Emit*
  // helpers — the same families (and renderer) at any sharding / storage /
  // tenancy configuration. Runs under the registry lock; everything it
  // reads takes only leaf locks (tenants_mu_, cache/store mutexes, mu_),
  // none of which ever wait on the registry.
  registry_.AddCollector([this](obs::MetricsRegistry::Emitter* out) {
    EmitServiceMetrics(metrics_, out);
    if (const auto& cache = live_->probe_cache(); cache != nullptr) {
      EmitProbeCache(cache->stats(), out);
    }
    EmitLiveIngest(live_->Stats(), out);
    EmitTenants(metrics_.TenantSnapshot(), out);
    EmitShards(ShardStats(), out);
    EmitBlockStores(BlockStats(), out);
    EmitSimd(out);
    if (trace_ != nullptr) EmitTraceRecorder(*trace_, out);
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [name, tq] : tenants_) {
        out->Gauge("aimq_tenant_queue_depth",
                   "Requests waiting for a worker, by tenant.",
                   static_cast<double>(tq.queue.size()), {{"tenant", name}});
      }
    }
  });
}

AimqService::~AimqService() { Stop(); }

Status AimqService::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) {
    return Status::FailedPrecondition("service already started");
  }
  started_ = true;
  stopping_ = false;
  const size_t n = service_options_.num_workers == 0
                       ? 1
                       : service_options_.num_workers;
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  if (service_options_.ingest_trigger_rows > 0 ||
      service_options_.ingest_trigger_seconds > 0.0) {
    {
      std::lock_guard<std::mutex> refresh_lock(refresh_mu_);
      refresh_stop_ = false;
    }
    refresher_ = std::thread([this] { RefreshLoop(); });
  }
  return Status::OK();
}

Status AimqService::Submit(ImpreciseQuery query, Callback done,
                           uint64_t deadline_ms, uint64_t request_id,
                           const std::string& tenant) {
  Request request;
  request.query = std::move(query);
  request.done = std::move(done);
  request.tenant = tenant.empty() ? kDefaultTenant : tenant;
  request.control = std::make_shared<QueryControl>();
  request.request_id = request_id != 0
                           ? request_id
                           : next_request_id_.fetch_add(
                                 1, std::memory_order_relaxed);
  request.control->set_trace_id(request.request_id);
  // Version capture happens here, at admission: however long the request
  // queues, it runs on this (snapshot, knowledge) pair.
  request.version = live_->Acquire();
  if (trace_ != nullptr) request.submit_nanos = trace_->NowNanos();
  const uint64_t effective_deadline =
      deadline_ms != 0 ? deadline_ms : service_options_.default_deadline_ms;
  if (effective_deadline != 0) {
    // The clock starts now: time spent queued counts against the deadline.
    request.control->SetDeadlineAfterMillis(effective_deadline);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    Status reject = Status::OK();
    if (!started_ || stopping_) {
      reject = Status::Unavailable("service is not accepting requests")
                   .WithContext("AimqService::Submit");
    } else if (queued_total_ >= service_options_.queue_depth) {
      reject = Status::Unavailable("request queue full")
                   .WithContext("queue_depth=" +
                                std::to_string(service_options_.queue_depth));
    } else if (service_options_.tenant_quota > 0) {
      auto it = tenants_.find(request.tenant);
      if (it != tenants_.end() &&
          it->second.queue.size() >= service_options_.tenant_quota) {
        reject = Status::Unavailable("tenant quota exceeded")
                     .WithContext(
                         "tenant=" + request.tenant + " quota=" +
                         std::to_string(service_options_.tenant_quota));
      }
    }
    if (!reject.ok()) {
      metrics_.OnRejected();
      metrics_.OnTenantRejected(request.tenant);
      if (trace_ != nullptr && trace_->enabled()) {
        TraceEvent e;
        e.name = "rejected";
        e.category = "service";
        e.request_id = request.request_id;
        e.thread_id = TraceRecorder::CurrentThreadId();
        e.start_nanos = request.submit_nanos;
        trace_->Record(std::move(e));
      }
      return reject;
    }
    metrics_.OnAccepted();
    metrics_.OnTenantAccepted(request.tenant);
    TenantQueue& tq = tenants_[request.tenant];
    if (tq.queue.empty()) {
      // (Re)activation: resolve the stride from the configured weight and
      // join the schedule at the current pass level — idle time must not
      // bank credit that would later starve active tenants.
      double weight = 1.0;
      const auto w = service_options_.tenant_weights.find(request.tenant);
      if (w != service_options_.tenant_weights.end() && w->second > 0.0) {
        weight = w->second;
      }
      tq.stride = 1.0 / weight;
      if (tq.pass < base_pass_) tq.pass = base_pass_;
    }
    tq.queue.push_back(std::move(request));
    ++queued_total_;
  }
  work_cv_.notify_one();
  return Status::OK();
}

Result<QueryResponse> AimqService::Execute(const ImpreciseQuery& query,
                                           uint64_t deadline_ms,
                                           uint64_t request_id,
                                           const std::string& tenant) {
  auto promise = std::make_shared<std::promise<Result<QueryResponse>>>();
  auto future = promise->get_future();
  AIMQ_RETURN_NOT_OK(Submit(
      query,
      [promise](Result<QueryResponse> r) { promise->set_value(std::move(r)); },
      deadline_ms, request_id, tenant));
  return future.get();
}

void AimqService::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock,
                 [this] { return queued_total_ == 0 && active_workers_ == 0; });
}

void AimqService::Stop() {
  std::vector<std::thread> workers;
  std::thread refresher;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stopping_ = true;  // admission closes; queued requests still run
    // Claim the threads under the lock so a concurrent Stop() never
    // double-joins.
    workers = std::move(workers_);
    workers_.clear();
    refresher = std::move(refresher_);
  }
  work_cv_.notify_all();
  {
    std::lock_guard<std::mutex> refresh_lock(refresh_mu_);
    refresh_stop_ = true;
  }
  refresh_cv_.notify_all();
  for (std::thread& w : workers) {
    if (w.joinable()) w.join();
  }
  if (refresher.joinable()) refresher.join();
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
}

bool AimqService::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return started_ && !stopping_;
}

Result<uint64_t> AimqService::Ingest(std::vector<Tuple> rows) {
  AIMQ_RETURN_NOT_OK(live_->Ingest(std::move(rows)));
  AIMQ_ASSIGN_OR_RETURN(const uint64_t version, live_->PublishSnapshot());
  // Wake the refresher: the row trigger may have just crossed. The flag
  // makes the wakeup sticky — a notify that lands while the refresher is
  // between waits (e.g. mid re-mine) is observed on its next pass instead
  // of being lost.
  {
    std::lock_guard<std::mutex> lock(refresh_mu_);
    refresh_ping_ = true;
  }
  refresh_cv_.notify_all();
  return version;
}

Result<uint64_t> AimqService::RefreshKnowledge() {
  return live_->RefreshKnowledge();
}

void AimqService::RefreshLoop() {
  const uint64_t trigger_rows = service_options_.ingest_trigger_rows;
  const double trigger_seconds = service_options_.ingest_trigger_seconds;
  std::unique_lock<std::mutex> lock(refresh_mu_);
  while (!refresh_stop_) {
    bool timed_out = false;
    if (trigger_seconds > 0.0) {
      timed_out = !refresh_cv_.wait_for(
          lock, std::chrono::duration<double>(trigger_seconds),
          [this] { return refresh_stop_ || refresh_ping_; });
    } else {
      refresh_cv_.wait(lock,
                       [this] { return refresh_stop_ || refresh_ping_; });
    }
    refresh_ping_ = false;
    if (refresh_stop_) return;
    const LiveIngestStats live = live_->Stats();
    // Row trigger fires on any wakeup; the time trigger only on its own
    // period (an ingest wakeup must not turn "every T seconds" into
    // "after every ingest").
    const bool rows_due = trigger_rows > 0 &&
                          live.knowledge_staleness_rows >= trigger_rows;
    const bool time_due = timed_out && trigger_seconds > 0.0 &&
                          live.knowledge_staleness_rows > 0;
    if (!rows_due && !time_due) continue;
    lock.unlock();
    // A failed re-mine keeps the previous edition serving; the next trigger
    // retries.
    (void)live_->RefreshKnowledge();
    lock.lock();
  }
}

size_t AimqService::QueueSize() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_total_;
}

AimqService::Request AimqService::PopNextLocked() {
  // Stride schedule: the non-empty tenant with the smallest pass goes next;
  // std::map iteration breaks pass ties by tenant name, so the dequeue order
  // is a pure function of the submission history — independent of worker
  // scheduling.
  std::map<std::string, TenantQueue>::iterator best = tenants_.end();
  for (auto it = tenants_.begin(); it != tenants_.end(); ++it) {
    if (it->second.queue.empty()) continue;
    if (best == tenants_.end() || it->second.pass < best->second.pass) {
      best = it;
    }
  }
  TenantQueue& tq = best->second;
  Request request = std::move(tq.queue.front());
  tq.queue.pop_front();
  --queued_total_;
  base_pass_ = tq.pass;
  tq.pass += tq.stride;
  return request;
}

void AimqService::WorkerLoop() {
  for (;;) {
    Request request;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || queued_total_ > 0; });
      if (queued_total_ == 0) return;  // stopping_ && drained: exit
      request = PopNextLocked();
      ++active_workers_;
    }
    RunRequest(std::move(request));
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_workers_;
    }
    drain_cv_.notify_all();
  }
}

void AimqService::RunRequest(Request request) {
  const bool tracing = trace_ != nullptr && trace_->enabled();
  if (tracing) {
    // Queue wait, reconstructed at pickup: submit time was stamped on the
    // request, so the span covers exactly the time no worker had it.
    TraceEvent e;
    e.name = "queue_wait";
    e.category = "service";
    e.request_id = request.request_id;
    e.thread_id = TraceRecorder::CurrentThreadId();
    e.start_nanos = request.submit_nanos;
    const uint64_t now = trace_->NowNanos();
    e.duration_nanos = now > request.submit_nanos
                           ? now - request.submit_nanos
                           : 0;
    trace_->Record(std::move(e));
  }
  QueryResponse response;
  response.request_id = request.request_id;
  response.queue_seconds = request.since_submit.ElapsedSeconds();
  bool truncated = false;
  // Seeded with an empty value, not a Status: Result asserts on OK statuses.
  Result<std::vector<RankedAnswer>> answers{std::vector<RankedAnswer>{}};
  {
    TraceSpan execute(trace_.get(), "execute", "service", request.request_id);
    answers = request.version->engine->Answer(
        request.query, RelaxationStrategy::kGuided, &response.stats,
        request.control.get(), &truncated);
  }
  response.total_seconds = request.since_submit.ElapsedSeconds();
  response.truncated = truncated;
  // Cost attribution from accounting that already exists — the engine's
  // phase timers and probe counters plus the queue stopwatch. FinishPhases
  // derives `other` so the phase identity holds against total_seconds.
  obs::QueryProfile& profile = response.profile;
  profile.total_seconds = response.total_seconds;
  profile.queue_seconds = response.queue_seconds;
  profile.base_set_seconds = response.stats.base_set_seconds;
  profile.relax_seconds = response.stats.relax_seconds;
  profile.rank_seconds = response.stats.rank_seconds;
  profile.probes_issued =
      response.stats.queries_issued.load(std::memory_order_relaxed);
  profile.cache_hits =
      response.stats.cache_hits.load(std::memory_order_relaxed);
  profile.deduped_probes =
      response.stats.deduped_probes.load(std::memory_order_relaxed);
  profile.tuples_extracted =
      response.stats.tuples_extracted.load(std::memory_order_relaxed);
  profile.tuples_relevant =
      response.stats.tuples_relevant.load(std::memory_order_relaxed);
  profile.relax_depth =
      response.stats.max_relax_depth.load(std::memory_order_relaxed);
  profile.expansions =
      response.stats.expansions.load(std::memory_order_relaxed);
  profile.expansions_reused =
      response.stats.expansions_reused.load(std::memory_order_relaxed);
  profile.truncated = truncated;
  profile.FinishPhases();
  metrics_.OnRelaxDepth(profile.relax_depth);
  metrics_.OnExpansions(profile.expansions, profile.expansions_reused);
  if (tracing) {
    // The whole request, submit to completion — the root of the span tree.
    TraceEvent e;
    e.name = "request";
    e.category = "service";
    e.request_id = request.request_id;
    e.thread_id = TraceRecorder::CurrentThreadId();
    e.start_nanos = request.submit_nanos;
    const uint64_t now = trace_->NowNanos();
    e.duration_nanos = now > request.submit_nanos
                           ? now - request.submit_nanos
                           : 0;
    e.args.emplace_back("ok", answers.ok() ? 1.0 : 0.0);
    e.args.emplace_back("truncated", truncated ? 1.0 : 0.0);
    trace_->Record(std::move(e));
  }
  metrics_.OnPhases(response.stats.base_set_seconds,
                    response.stats.relax_seconds,
                    response.stats.rank_seconds);
  RecordSlowQuery(request, response, answers.status());
  if (answers.ok()) {
    response.answers = answers.TakeValue();
    metrics_.OnCompleted(response.queue_seconds, response.total_seconds);
    metrics_.OnTenantCompleted(request.tenant);
    if (truncated) metrics_.OnTruncated();
    request.done(std::move(response));
  } else {
    metrics_.OnFailed(response.queue_seconds, response.total_seconds);
    metrics_.OnTenantFailed(request.tenant);
    request.done(answers.status());
  }
}

void AimqService::RecordSlowQuery(const Request& request,
                                  const QueryResponse& response,
                                  const Status& status) {
  if (service_options_.slow_query_ms <= 0.0) return;
  const double total_ms = response.total_seconds * 1e3;
  if (total_ms < service_options_.slow_query_ms) return;
  Json record = Json::Obj();
  record.Set("request_id",
             Json::Num(static_cast<double>(request.request_id)));
  record.Set("query", Json::Str(request.query.ToString()));
  record.Set("ok", Json::Bool(status.ok()));
  record.Set("truncated", Json::Bool(response.truncated));
  record.Set("total_ms", Json::Num(total_ms));
  record.Set("queue_ms", Json::Num(response.queue_seconds * 1e3));
  Json phases = Json::Obj();
  phases.Set("base_set_ms", Json::Num(response.stats.base_set_seconds * 1e3));
  phases.Set("relax_ms", Json::Num(response.stats.relax_seconds * 1e3));
  phases.Set("rank_ms", Json::Num(response.stats.rank_seconds * 1e3));
  record.Set("phases", std::move(phases));
  record.Set("relax_depth",
             Json::Num(static_cast<double>(response.profile.relax_depth)));
  // Deadline-miss attribution: the phase that ate the largest share of the
  // budget. Meaningful for every slow request, not only truncated ones.
  record.Set("budget_attribution",
             Json::Str(response.profile.DominantPhase()));
  Json spans = Json::Arr();
  if (trace_ != nullptr) {
    // Slow path only: one O(ring) scan per slow request is the price of
    // keeping Record() free of per-request indexing.
    for (const TraceEvent& e : trace_->Snapshot()) {
      if (e.request_id != request.request_id) continue;
      Json span = Json::Obj();
      span.Set("name", Json::Str(e.name));
      span.Set("cat", Json::Str(e.category));
      span.Set("tid", Json::Num(static_cast<double>(e.thread_id)));
      span.Set("ts_us", Json::Num(static_cast<double>(e.start_nanos) / 1e3));
      span.Set("dur_us",
               Json::Num(static_cast<double>(e.duration_nanos) / 1e3));
      spans.Push(std::move(span));
    }
  }
  record.Set("spans", std::move(spans));
  std::lock_guard<std::mutex> lock(slow_mu_);
  if (!service_options_.slow_query_log_path.empty()) {
    if (std::FILE* f = std::fopen(
            service_options_.slow_query_log_path.c_str(), "a")) {
      const std::string line = record.Dump();
      std::fwrite(line.data(), 1, line.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
    }
  }
  slow_queries_.push_back(std::move(record));
  while (slow_queries_.size() > kSlowQueryRingCap) slow_queries_.pop_front();
}

Json AimqService::ChromeTraceJson() const {
  return trace_ != nullptr ? trace_->ChromeTraceJson()
                           : TraceRecorder::ToChromeTraceJson({});
}

std::vector<Json> AimqService::SlowQueries() const {
  std::lock_guard<std::mutex> lock(slow_mu_);
  return std::vector<Json>(slow_queries_.begin(), slow_queries_.end());
}

}  // namespace aimq
