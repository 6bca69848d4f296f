// AimqService: an embeddable concurrent query service over one autonomous
// source. Owns a LiveEngine — a lineage of immutable serving versions, each
// bundling (snapshot, source, facade, knowledge, AimqEngine) — and serves
// many concurrent sessions through a bounded request queue and a fixed
// worker pool. Each request captures the current serving version at
// admission; ingest and knowledge refresh publish new versions with a single
// atomic swap that never disturbs in-flight requests (DESIGN.md §5i).
//
// Threading / ownership model (see DESIGN.md, "Serving layer"):
//
//   callers ──Submit──▶ [bounded queue] ──▶ worker pool ──▶ AimqEngine
//                │                              │
//                └── kUnavailable when full     └── callback(Result)
//
//  - Admission control: Submit() never blocks. A full queue (or a stopping
//    service) answers Status::Unavailable immediately; the caller decides
//    whether to retry. This keeps a slow engine from wedging the listener.
//  - Tenancy: requests carry a tenant label. The bounded queue is split per
//    tenant with an optional per-tenant quota (one noisy tenant cannot fill
//    the global queue) and stride-scheduled weighted-fair dequeue. With one
//    tenant and no quota this degenerates to the original FIFO exactly.
//  - Sharding: every serving version probes through a scatter/gather
//    facade over ServiceOptions::num_shards row-range shards; one shard is
//    the source itself. Answers are bit-identical at any shard count
//    (DESIGN.md §5h).
//  - Deadlines: each request carries a QueryControl whose deadline starts at
//    *submit* time, so queue wait counts against it. Workers pass the
//    control into AimqEngine::Answer, which checks it between relaxation
//    probes; a deadline that fires mid-relaxation yields a partial top-k
//    flagged `truncated`.
//  - Shutdown: Stop() drains — admission closes, queued requests still run
//    to completion, workers then exit and are joined. Every accepted
//    request's callback fires exactly once, Stop() or not.
//  - The engine is shared by all workers; Answer() is concurrency-safe and
//    bit-deterministic, so the same query answered by any worker (or by a
//    serial reference engine) ranks identically.

#ifndef AIMQ_SERVICE_SERVICE_H_
#define AIMQ_SERVICE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/control.h"
#include "core/engine.h"
#include "live/live_engine.h"
#include "obs/metrics_registry.h"
#include "obs/query_profile.h"
#include "service/metrics.h"
#include "shard/sharded_engine.h"
#include "util/json.h"
#include "util/stopwatch.h"
#include "util/trace.h"

namespace aimq {

/// Tunables of the serving layer (the engine has its own AimqOptions).
struct ServiceOptions {
  /// Worker threads executing queries (>= 1).
  size_t num_workers = 4;

  /// Bounded queue depth; a Submit() beyond this is rejected kUnavailable.
  size_t queue_depth = 64;

  /// Deadline applied to requests that do not carry their own, in ms from
  /// submission. 0 = no default deadline.
  uint64_t default_deadline_ms = 0;

  /// End-to-end tracing: when true the service owns a TraceRecorder, wires
  /// it into the engine, and every request emits a span tree (queue wait,
  /// execution, engine phases, probes) correlated by its request id. Off by
  /// default — disabled tracing costs one pointer test per span site.
  bool enable_tracing = false;

  /// Slow-query log: a finished request whose total latency (queue wait
  /// included) is >= this threshold is captured — with its span tree when
  /// tracing is on — as one NDJSON record. 0 disables.
  double slow_query_ms = 0.0;

  /// File the slow-query NDJSON is appended to. Empty keeps records only in
  /// the in-memory ring (AimqService::SlowQueries()).
  std::string slow_query_log_path;

  // -- Scale-out (see DESIGN.md §5h) ---------------------------------------

  /// Row-range engine shards behind the scatter/gather facade; <= 1 is the
  /// one-shard plan, whose shard is the source itself. Answers are
  /// bit-identical at any count.
  size_t num_shards = 1;

  /// Store shard snapshots packed (block-compressed) instead of plain.
  bool packed_shards = false;

  /// Per-shard ProbeCache capacity in entries (0 disables shard caches).
  size_t shard_cache_capacity = 4096;

  /// Cross-query probe coalescing on the engine-level shared ProbeCache:
  /// concurrent identical probes park on one source scan.
  bool coalesce_probes = true;

  /// Per-tenant admission quota: a tenant with this many requests already
  /// queued has further submissions rejected kUnavailable, so one noisy
  /// tenant cannot fill the global queue. 0 disables (single-tenant
  /// behavior, exactly the pre-tenant FIFO).
  size_t tenant_quota = 0;

  /// Relative scheduling weights for stride-scheduled dequeue (weight 2
  /// drains twice as fast as weight 1). Tenants absent here weigh 1.0.
  std::map<std::string, double> tenant_weights;

  // -- Live ingest (see DESIGN.md §5i) -------------------------------------

  /// Background knowledge refresh: re-mine once this many published rows
  /// have not been seen by the current knowledge edition. 0 disables the
  /// row trigger.
  uint64_t ingest_trigger_rows = 0;

  /// Background knowledge refresh: re-mine every this many seconds while
  /// any published rows are unseen by the current edition. 0 disables the
  /// time trigger. (With both triggers 0 no refresher thread is spawned;
  /// RefreshKnowledge() remains available on demand.)
  double ingest_trigger_seconds = 0.0;
};

/// Everything one answered request returns.
struct QueryResponse {
  /// Correlation id of this request (assigned at admission unless the
  /// caller supplied one); tags every trace span and slow-query record.
  uint64_t request_id = 0;
  std::vector<RankedAnswer> answers;
  /// The top-k was cut short by a deadline/cancel mid-relaxation.
  bool truncated = false;
  /// Probe accounting for this request.
  RelaxationStats stats;
  /// Time the request waited for a worker.
  double queue_seconds = 0.0;
  /// Submit-to-completion latency.
  double total_seconds = 0.0;
  /// Per-phase cost attribution, filled for every request from accounting
  /// that already exists (no extra hot-path clock reads). Its phase times
  /// partition total_seconds exactly; see obs/query_profile.h. The
  /// cross-request delta fields stay zero here — the explain wire op's
  /// handler fills them.
  obs::QueryProfile profile;
};

/// \brief Concurrent query service: bounded queue + worker pool over one
/// AimqEngine.
class AimqService {
 public:
  using Callback = std::function<void(Result<QueryResponse>)>;

  /// \p source must outlive the service. Worker threads do not start until
  /// Start().
  AimqService(const WebDatabase* source, MinedKnowledge knowledge,
              AimqOptions engine_options, ServiceOptions service_options);

  /// Joins all workers (calls Stop() if still running).
  ~AimqService();

  AimqService(const AimqService&) = delete;
  AimqService& operator=(const AimqService&) = delete;

  /// Spawns the worker pool. FailedPrecondition when already started.
  Status Start();

  /// Enqueues \p query; \p done fires exactly once from a worker thread with
  /// the outcome. Never blocks: a full queue or a stopped/stopping service
  /// returns kUnavailable *and \p done is not invoked*. \p deadline_ms
  /// overrides the service default (0 = use the default); the clock starts
  /// now, so time spent queued counts against it. \p request_id correlates
  /// the request's trace spans and slow-query record (0 = service-assigned;
  /// the id used is echoed in QueryResponse::request_id either way).
  /// \p tenant names the submitting tenant for quota enforcement, weighted
  /// scheduling, and labelled metrics; empty maps to "default".
  Status Submit(ImpreciseQuery query, Callback done, uint64_t deadline_ms = 0,
                uint64_t request_id = 0, const std::string& tenant = "");

  /// Synchronous convenience over Submit(): blocks the calling thread until
  /// the request completes. Queue-full rejections surface as kUnavailable
  /// without blocking.
  Result<QueryResponse> Execute(const ImpreciseQuery& query,
                                uint64_t deadline_ms = 0,
                                uint64_t request_id = 0,
                                const std::string& tenant = "");

  /// Blocks until every accepted request has completed (queue empty, all
  /// workers idle). New submissions remain allowed; a steady stream of them
  /// can extend the wait.
  void Drain();

  /// Graceful drain-then-stop: closes admission, lets queued requests run to
  /// completion, then joins the workers. Idempotent.
  void Stop();

  bool running() const;

  /// The source's schema (what wire sessions parse query text against).
  /// Stable across ingest: live ingest grows rows, never the schema.
  const Schema& schema() const { return source_->schema(); }

  /// The engine of the *currently published* serving version. Valid until
  /// the next snapshot publish or knowledge refresh — callers that must
  /// survive a concurrent swap hold CurrentVersion() instead.
  const AimqEngine& engine() const { return *live_->Acquire()->engine; }

  /// The full serving version queries admitted right now would capture
  /// (snapshot, source, facade, knowledge, engine). The returned shared_ptr
  /// keeps every part alive across any number of publishes.
  std::shared_ptr<const ServingVersion> CurrentVersion() const {
    return live_->Acquire();
  }

  /// The probe cache shared across all serving versions (null when the
  /// engine options disabled it). Unlike engine().probe_cache(), this
  /// handle never goes stale across a publish.
  const std::shared_ptr<ProbeCache>& probe_cache() const {
    return live_->probe_cache();
  }

  /// Validates and buffers \p rows, then synchronously publishes a new
  /// snapshot version containing them (atomic swap; in-flight queries keep
  /// their captured version). Returns the new snapshot version. Wakes the
  /// background refresher so the row trigger is evaluated promptly.
  Result<uint64_t> Ingest(std::vector<Tuple> rows);

  /// Re-mines knowledge against the current rows and publishes the new
  /// edition (snapshot version unchanged). Returns the knowledge version.
  Result<uint64_t> RefreshKnowledge();

  /// Live-ingest accounting (versions, row counts, staleness, publish
  /// latency) — the aimq_snapshot_* / aimq_knowledge_* / aimq_ingest_*
  /// metric families.
  LiveIngestStats LiveStats() const { return live_->Stats(); }

  const ServiceOptions& service_options() const { return service_options_; }
  ServiceMetrics& metrics() { return metrics_; }
  const ServiceMetrics& metrics() const { return metrics_; }

  /// The metric registry behind `GET /metrics` (PrometheusText()) and
  /// `GET /metrics.json` plus the stats/metrics wire ops (JsonSnapshot()).
  /// A collector wired in at construction pulls every subsystem — service
  /// counters, probe cache, tenants (counters + live queue depth), shards,
  /// block stores, SIMD dispatch, trace ring — so one call renders the
  /// whole engine.
  obs::MetricsRegistry& metrics_registry() { return registry_; }
  const obs::MetricsRegistry& metrics_registry() const { return registry_; }

  /// Effective shard count (1 when unsharded).
  size_t num_shards() const { return live_->Acquire()->facade->num_shards(); }

  /// Per-shard probe + cache accounting of the current serving version.
  std::vector<ShardProbeSnapshot> ShardStats() const {
    return live_->Acquire()->facade->ShardStats();
  }

  /// (shard index, block-store stats) of every packed store the current
  /// serving version reads: the per-shard stores when sharding is packed,
  /// a packed source's own store (index 0) when serving it as one shard,
  /// empty for plain storage. Feeds the block-cache metric families and the
  /// explain op's blocks-decoded delta.
  std::vector<std::pair<size_t, storage::BlockStoreStats>> BlockStats() const {
    return live_->Acquire()->facade->ShardBlockStats();
  }

  /// Always OK: a shard build cannot fail. Kept only for callers that
  /// still check it; do not add new ones.
  Status shard_build_status() const { return Status::OK(); }

  /// The span recorder, or nullptr when ServiceOptions::enable_tracing was
  /// false. Owned by the service; shared read-only with the engine.
  TraceRecorder* trace() { return trace_.get(); }
  const TraceRecorder* trace() const { return trace_.get(); }

  /// Every retained span as one Chrome trace-event JSON document (empty
  /// traceEvents when tracing is off). Load the dump in Perfetto.
  Json ChromeTraceJson() const;

  /// The most recent slow-query records (newest last, bounded ring), each
  /// {"request_id":..,"query":..,"total_ms":..,"spans":[...]}.
  std::vector<Json> SlowQueries() const;

  /// Queued-but-not-yet-running requests (diagnostics).
  size_t QueueSize() const;

 private:
  struct Request {
    ImpreciseQuery query;
    Callback done;
    std::shared_ptr<QueryControl> control;
    Stopwatch since_submit;   // runs from admission
    uint64_t request_id = 0;  // trace/slow-log correlation id
    uint64_t submit_nanos = 0;  // recorder clock at admission (0: untraced)
    std::string tenant;         // normalized (never empty)
    // The serving version captured at admission: the request runs on this
    // version's engine no matter how many publishes happen while it queues,
    // so every answer is a pure function of (captured version, query).
    std::shared_ptr<const ServingVersion> version;
  };

  // One tenant's pending requests plus its stride-scheduling state. Stride
  // scheduling gives weighted fair dequeue with a deterministic total order:
  // each dequeue picks the non-empty tenant with the smallest pass (ties by
  // tenant name — map order), then advances its pass by stride = 1/weight.
  struct TenantQueue {
    std::deque<Request> queue;
    double pass = 0.0;
    double stride = 1.0;
  };

  void WorkerLoop();
  void RunRequest(Request request);
  void RecordSlowQuery(const Request& request, const QueryResponse& response,
                       const Status& status);
  // Pops the next request per the stride schedule. Caller holds mu_ and has
  // checked queued_total_ > 0.
  Request PopNextLocked();
  // Background knowledge-refresh thread body (spawned iff a trigger is
  // configured): waits on the time trigger / ingest wakeups, re-mines when
  // staleness crosses a trigger.
  void RefreshLoop();

  const WebDatabase* source_;
  std::unique_ptr<LiveEngine> live_;
  const ServiceOptions service_options_;
  ServiceMetrics metrics_;
  obs::MetricsRegistry registry_;
  // Span recorder (created iff enable_tracing); the engine holds a raw
  // pointer into it, so it lives exactly as long as the service.
  std::unique_ptr<TraceRecorder> trace_;
  std::atomic<uint64_t> next_request_id_{1};
  mutable std::mutex slow_mu_;
  std::deque<Json> slow_queries_;  // bounded ring, guarded by slow_mu_

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // queue became non-empty / stopping
  std::condition_variable drain_cv_;  // a request finished / queue emptied
  std::map<std::string, TenantQueue> tenants_;  // guarded by mu_
  size_t queued_total_ = 0;           // sum of tenant queue sizes
  double base_pass_ = 0.0;            // pass of the last dequeue (newly
                                      // active tenants join at this level so
                                      // idle time earns no backlog credit)
  size_t active_workers_ = 0;         // requests currently inside a worker
  bool started_ = false;              // guarded by mu_
  bool stopping_ = false;             // admission closed
  std::vector<std::thread> workers_;

  // Background knowledge refresher (see ServiceOptions ingest triggers).
  mutable std::mutex refresh_mu_;
  std::condition_variable refresh_cv_;  // ingest happened / stopping
  bool refresh_stop_ = false;           // guarded by refresh_mu_
  bool refresh_ping_ = false;           // sticky ingest wakeup, same guard
  std::thread refresher_;
};

}  // namespace aimq

#endif  // AIMQ_SERVICE_SERVICE_H_
