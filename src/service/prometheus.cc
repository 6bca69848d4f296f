#include "service/prometheus.h"

#include "simd/dispatch.h"

namespace aimq {

namespace {

using Emitter = obs::MetricsRegistry::Emitter;

obs::MetricLabels ShardLabel(size_t shard) {
  return {{"shard", std::to_string(shard)}};
}

}  // namespace

void EmitServiceMetrics(const ServiceMetrics& metrics, Emitter* out) {
  out->Counter("aimq_requests_accepted_total",
               "Requests admitted to the queue.",
               static_cast<double>(metrics.accepted()));
  out->Counter("aimq_requests_rejected_total",
               "Submissions refused by admission control.",
               static_cast<double>(metrics.rejected()));
  out->Counter("aimq_requests_completed_total", "Requests answered OK.",
               static_cast<double>(metrics.completed()));
  out->Counter("aimq_requests_failed_total",
               "Requests finished with a non-OK status.",
               static_cast<double>(metrics.failed()));
  out->Counter("aimq_requests_truncated_total",
               "OK requests whose top-k was cut short by deadline/cancel.",
               static_cast<double>(metrics.truncated()));
  out->Gauge("aimq_requests_in_flight",
             "Requests admitted but not yet finished.",
             static_cast<double>(metrics.InFlight()));
  out->Gauge("aimq_request_rejection_rate",
             "rejected / (accepted + rejected); 0 before any submission.",
             metrics.RejectionRate());
  out->Histogram("aimq_request_latency_seconds",
                 "Submit-to-completion latency.",
                 metrics.latency().Snapshot());
  out->Histogram("aimq_queue_wait_seconds",
                 "Time a request waited for a worker.",
                 metrics.queue_wait().Snapshot());
  out->Histogram("aimq_phase_base_set_seconds",
                 "Per-request base-set derivation time.",
                 metrics.phase_base_set().Snapshot());
  out->Histogram("aimq_phase_relax_seconds",
                 "Per-request relaxation fan-out (probe) time.",
                 metrics.phase_relax().Snapshot());
  out->Histogram("aimq_phase_rank_seconds",
                 "Per-request similarity scoring/ranking time.",
                 metrics.phase_rank().Snapshot());
  // One counter per depth, as ServiceMetrics stores them; the last sample
  // counts every request at or beyond the overflow depth.
  const auto depths = metrics.RelaxDepthSnapshot();
  for (size_t d = 0; d < depths.size(); ++d) {
    const std::string depth = d + 1 < depths.size()
                                  ? std::to_string(d)
                                  : std::to_string(d) + "+";
    out->Counter("aimq_relax_depth_requests_total",
                 "Requests by the deepest relaxation level they reached "
                 "(attributes relaxed simultaneously in the deepest probe).",
                 static_cast<double>(depths[d]), {{"depth", depth}});
  }
  const char* const kExpansionsHelp =
      "Base tuples expanded by answered requests, by whether the engine's "
      "expansion memo answered them (hit) or their probes ran (miss).";
  out->Counter("aimq_relax_expansions_total", kExpansionsHelp,
               static_cast<double>(metrics.expansions_memo_hit()),
               {{"memo", "hit"}});
  out->Counter("aimq_relax_expansions_total", kExpansionsHelp,
               static_cast<double>(metrics.expansions_memo_miss()),
               {{"memo", "miss"}});
}

void EmitProbeCache(const ProbeCacheStats& stats, Emitter* out) {
  out->Counter("aimq_probe_cache_lookups_total",
               "Logical probes that consulted the shared cache.",
               static_cast<double>(stats.lookups));
  out->Counter("aimq_probe_cache_hits_total",
               "Logical probes served without touching the source.",
               static_cast<double>(stats.hits));
  out->Counter("aimq_probe_cache_misses_total",
               "Logical probes that had to probe the source.",
               static_cast<double>(stats.misses));
  out->Counter("aimq_probe_cache_evictions_total",
               "Entries evicted by LRU pressure.",
               static_cast<double>(stats.evictions));
  out->Counter("aimq_probe_cache_coalesced_total",
               "Probes served by parking on an identical probe already in "
               "flight.",
               static_cast<double>(stats.coalesced));
  out->Counter("aimq_probe_cache_extended_total",
               "Probes served by extending an entry cached for an earlier "
               "snapshot over the rows published since (counted as hits).",
               static_cast<double>(stats.extended));
  out->Gauge("aimq_probe_cache_hit_rate",
             "hits / lookups; 0 before any lookup.", stats.HitRate());
}

void EmitLiveIngest(const LiveIngestStats& live, Emitter* out) {
  out->Gauge("aimq_snapshot_version",
             "Snapshot version of the currently published serving stack.",
             static_cast<double>(live.snapshot_version));
  out->Gauge("aimq_knowledge_version",
             "Knowledge edition answering newly admitted queries.",
             static_cast<double>(live.knowledge_version));
  out->Gauge("aimq_rows", "Rows in the published snapshot.",
             static_cast<double>(live.rows_total));
  out->Counter("aimq_ingest_rows_total",
               "Rows accepted by ingest since startup (published or "
               "pending).",
               static_cast<double>(live.ingested_rows_total));
  out->Gauge("aimq_ingest_pending_rows",
             "Rows buffered but not yet published into a snapshot.",
             static_cast<double>(live.pending_rows));
  out->Gauge("aimq_knowledge_staleness_rows",
             "Published rows the current knowledge edition has not seen.",
             static_cast<double>(live.knowledge_staleness_rows));
  out->Counter("aimq_snapshot_publishes_total",
               "Snapshot versions published since startup.",
               static_cast<double>(live.publishes_total));
  out->Counter("aimq_knowledge_refreshes_total",
               "Knowledge editions published since startup (initial mine "
               "excluded).",
               static_cast<double>(live.refreshes_total));
  out->Gauge("aimq_snapshot_delta_rows",
             "Rows added by the most recent snapshot publish.",
             static_cast<double>(live.last_delta_rows));
  out->Histogram("aimq_snapshot_publish_seconds",
                 "Wall-clock of each snapshot publish (incremental build + "
                 "atomic swap).",
                 live.publish_latency);
}

void EmitTenants(const std::map<std::string, TenantCounters>& tenants,
                 Emitter* out) {
  for (const auto& [name, c] : tenants) {
    const obs::MetricLabels labels = {{"tenant", name}};
    out->Counter("aimq_tenant_accepted_total",
                 "Requests admitted, by tenant.",
                 static_cast<double>(c.accepted), labels);
    out->Counter("aimq_tenant_rejected_total",
                 "Submissions refused by admission control, by tenant.",
                 static_cast<double>(c.rejected), labels);
    out->Counter("aimq_tenant_completed_total",
                 "Requests answered OK, by tenant.",
                 static_cast<double>(c.completed), labels);
    out->Counter("aimq_tenant_failed_total",
                 "Requests finished non-OK, by tenant.",
                 static_cast<double>(c.failed), labels);
  }
}

void EmitShards(const std::vector<ShardProbeSnapshot>& shards, Emitter* out) {
  for (const ShardProbeSnapshot& s : shards) {
    const obs::MetricLabels labels = ShardLabel(s.shard);
    out->Counter("aimq_shard_probes_total",
                 "Probes answered by each row-range shard.",
                 static_cast<double>(s.queries_issued), labels);
    out->Counter("aimq_shard_tuples_total",
                 "Tuples shipped by each row-range shard.",
                 static_cast<double>(s.tuples_returned), labels);
    out->Counter("aimq_shard_cache_lookups_total",
                 "Shard probe-cache lookups.",
                 static_cast<double>(s.cache.lookups), labels);
    out->Counter("aimq_shard_cache_hits_total", "Shard probe-cache hits.",
                 static_cast<double>(s.cache.hits), labels);
    out->Histogram("aimq_shard_probe_seconds",
                   "Scatter-leg latency of each row-range shard (cache hits "
                   "included).",
                   s.latency, labels);
    out->Gauge("aimq_shard_rows", "Rows held by each row-range shard.",
               static_cast<double>(s.end_row - s.begin_row), labels);
  }
}

void EmitBlockStores(
    const std::vector<std::pair<size_t, storage::BlockStoreStats>>& stores,
    Emitter* out) {
  for (const auto& [shard, stats] : stores) {
    const obs::MetricLabels labels = ShardLabel(shard);
    out->Counter("aimq_block_cache_hits_total",
                 "Decoded-block cache hits, by packed store.",
                 static_cast<double>(stats.cache.hits), labels);
    out->Counter("aimq_block_cache_misses_total",
                 "Decoded-block cache misses (each ran a loader), by packed "
                 "store.",
                 static_cast<double>(stats.cache.misses), labels);
    out->Counter("aimq_block_cache_evictions_total",
                 "Decoded blocks evicted by the memory budget, by packed "
                 "store.",
                 static_cast<double>(stats.cache.evictions), labels);
    out->Counter("aimq_block_decode_seconds_total",
                 "Wall time spent unpacking missed blocks, by packed store.",
                 static_cast<double>(stats.cache.decode_nanos) * 1e-9,
                 labels);
    out->Gauge("aimq_block_cache_resident_bytes",
               "Decoded bytes held by the block cache.",
               static_cast<double>(stats.cache.resident_bytes), labels);
    out->Gauge("aimq_block_stored_bytes",
               "Bit-packed bytes of the store.",
               static_cast<double>(stats.stored_bytes), labels);
  }
}

void EmitSimd(Emitter* out) {
  const simd::Isa active = simd::ActiveIsa();
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kSse42, simd::Isa::kAvx2}) {
    out->Gauge("aimq_simd_dispatch_tier",
               "Active SIMD dispatch tier: 1 on the active ISA's sample, 0 "
               "elsewhere.",
               isa == active ? 1.0 : 0.0,
               {{"isa", simd::IsaName(isa)}});
  }
  const simd::KernelCallCounters calls = simd::KernelCallCounts();
  const std::pair<const char*, uint64_t> kernels[] = {
      {"eq_mask", calls.eq_mask},
      {"table_mask", calls.table_mask},
      {"histogram", calls.histogram},
      {"mask_to_rows", calls.mask_to_rows},
      {"intersect_size", calls.intersect_size},
  };
  for (const auto& [kernel, count] : kernels) {
    out->Counter("aimq_simd_kernel_calls_total",
                 "Dispatched SIMD kernel invocations (one per code block "
                 "processed), by kernel.",
                 static_cast<double>(count), {{"kernel", kernel}});
  }
}

void EmitTraceRecorder(const TraceRecorder& trace, Emitter* out) {
  out->Counter("aimq_trace_dropped_total",
               "Trace spans dropped because the ring buffer was full.",
               static_cast<double>(trace.dropped()));
  out->Gauge("aimq_trace_capacity",
             "Span capacity of the trace ring buffer.",
             static_cast<double>(trace.capacity()));
}

}  // namespace aimq
