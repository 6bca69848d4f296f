// The engine's metric-family catalogue: Emit* helpers that adapt each
// subsystem's native stats struct into obs::MetricsRegistry families.
// AimqService wires them into its registry's one pull collector at
// construction, and the benches build throwaway registries from the same
// helpers — one family catalogue, one renderer, one escaping rule. The
// registry renders them as Prometheus text on `GET /metrics`, so a stock
// Prometheus scrape_config pointed at the wire port just works:
//
//   aimq_requests_accepted_total 1042
//   aimq_request_latency_seconds_bucket{le="0.004"} 963
//   aimq_shard_probe_seconds_bucket{shard="3",le="0.004"} 241
//   aimq_simd_kernel_calls_total{kernel="eq_mask"} 52110
//
// and as JSON (same names, same values) on `GET /metrics.json` and the
// stats/metrics wire ops. Histogram families carry full LatencyHistogram
// snapshots; the renderer coarsens them for the text form (see
// obs::RenderPrometheusText).

#ifndef AIMQ_SERVICE_PROMETHEUS_H_
#define AIMQ_SERVICE_PROMETHEUS_H_

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "live/live_engine.h"
#include "obs/metrics_registry.h"
#include "service/metrics.h"
#include "shard/sharded_engine.h"
#include "storage/code_block_store.h"
#include "util/trace.h"
#include "webdb/probe_cache.h"

namespace aimq {

/// Request/latency/phase families plus the relaxation-depth counters
/// (aimq_requests_*, aimq_request_latency_seconds, aimq_queue_wait_seconds,
/// aimq_phase_*_seconds, aimq_relax_depth_requests_total{depth="0".."15",
/// "16+"}, aimq_relax_expansions_total{memo="hit"|"miss"}).
void EmitServiceMetrics(const ServiceMetrics& metrics,
                        obs::MetricsRegistry::Emitter* out);

/// Shared probe-cache families (aimq_probe_cache_*), including the
/// coalescing counter.
void EmitProbeCache(const ProbeCacheStats& stats,
                    obs::MetricsRegistry::Emitter* out);

/// Live-ingest families: snapshot/knowledge version gauges, ingest and
/// publish counters, knowledge staleness, delta size, and the publish
/// (build + swap) latency histogram aimq_snapshot_publish_seconds.
void EmitLiveIngest(const LiveIngestStats& live,
                    obs::MetricsRegistry::Emitter* out);

/// Per-tenant admission/outcome counters as `{tenant="..."}`-labelled
/// families; emits nothing for an empty map.
void EmitTenants(const std::map<std::string, TenantCounters>& tenants,
                 obs::MetricsRegistry::Emitter* out);

/// Per-shard probe accounting as `{shard="N"}`-labelled families, including
/// the scatter-leg latency histogram aimq_shard_probe_seconds and the
/// shard's row count aimq_shard_rows.
void EmitShards(const std::vector<ShardProbeSnapshot>& shards,
                obs::MetricsRegistry::Emitter* out);

/// Block-store / block-cache families per packed store, labelled
/// `{shard="N"}` (an unsharded packed source passes index 0).
void EmitBlockStores(
    const std::vector<std::pair<size_t, storage::BlockStoreStats>>& stores,
    obs::MetricsRegistry::Emitter* out);

/// SIMD dispatch families: the active tier (an info-style gauge, 1 on the
/// active ISA's sample) and per-kernel invocation counters.
void EmitSimd(obs::MetricsRegistry::Emitter* out);

/// Trace ring-buffer accounting: spans dropped to backpressure + capacity.
void EmitTraceRecorder(const TraceRecorder& trace,
                       obs::MetricsRegistry::Emitter* out);

}  // namespace aimq

#endif  // AIMQ_SERVICE_PROMETHEUS_H_
