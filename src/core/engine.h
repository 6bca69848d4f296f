// AimqEngine: the Query Engine of Figure 1, implementing paper Algorithm 1
// ("Finding Relevant Answers").

#ifndef AIMQ_CORE_ENGINE_H_
#define AIMQ_CORE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/control.h"
#include "core/explain.h"
#include "core/feedback.h"
#include "core/knowledge.h"
#include "core/options.h"
#include "core/relaxation.h"
#include "core/sim.h"
#include "query/imprecise_query.h"
#include "util/lru.h"
#include "util/trace.h"
#include "webdb/probe_cache.h"
#include "webdb/web_database.h"

namespace aimq {

/// One answer tuple with its similarity to the query.
struct RankedAnswer {
  Tuple tuple;
  double similarity = 0.0;
};

/// Probe-level accounting of one relaxation run (Figures 6 and 7 report
/// Work/RelevantTuple = tuples extracted / tuples relevant).
///
/// Counters are atomic so one stats object can be shared across the parallel
/// relaxation fan-out (and across concurrent engine calls); the struct stays
/// copyable with snapshot semantics. Counter values are order-independent
/// sums, but `queries_issued` / `cache_hits` may vary by ±a few under
/// concurrency when two workers race to probe the same fresh query — ranked
/// answers never vary.
///
///  - queries_issued:  physical probes sent to the source
///  - tuples_extracted: tuples shipped back by those physical probes
///  - tuples_relevant: extracted tuples above Tsim
///  - cache_hits:      logical probes served by the shared ProbeCache
///  - deduped_probes:  logical probes answered without a fresh source probe
///                     (shared-cache hits plus per-call memo hits when the
///                     shared cache is disabled)
///  - expansions:      base tuples Answer() expanded (steps 3-8 run or
///                     replayed once per base tuple)
///  - expansions_reused: of those, expansions answered from the engine's
///                     expansion memo: no probe, no key, no relaxer (their
///                     tuples_relevant and depth are replayed, their probes
///                     are not counted because none ran)
///
/// The `*_seconds` phase timers are written only by the coordinating thread
/// of Answer() (base-set derivation / relaxation fan-out / ranking). Each
/// phase timer is flushed when the phase ends for *any* reason — success,
/// error, cancellation, or deadline — so a cancelled session still accounts
/// the time it burned.
struct RelaxationStats {
  std::atomic<uint64_t> queries_issued{0};
  std::atomic<uint64_t> tuples_extracted{0};
  std::atomic<uint64_t> tuples_relevant{0};
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> deduped_probes{0};
  std::atomic<uint64_t> expansions{0};
  std::atomic<uint64_t> expansions_reused{0};
  /// Deepest relaxation any probe of this run reached (attributes relaxed by
  /// the weakest query issued). A running max, not a sum.
  std::atomic<uint64_t> max_relax_depth{0};
  double base_set_seconds = 0.0;
  double relax_seconds = 0.0;
  double rank_seconds = 0.0;

  RelaxationStats() = default;
  RelaxationStats(const RelaxationStats& other) { *this = other; }
  RelaxationStats& operator=(const RelaxationStats& other) {
    queries_issued.store(other.queries_issued.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    tuples_extracted.store(
        other.tuples_extracted.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    tuples_relevant.store(other.tuples_relevant.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    cache_hits.store(other.cache_hits.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    deduped_probes.store(other.deduped_probes.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    expansions.store(other.expansions.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    expansions_reused.store(
        other.expansions_reused.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    max_relax_depth.store(
        other.max_relax_depth.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    base_set_seconds = other.base_set_seconds;
    relax_seconds = other.relax_seconds;
    rank_seconds = other.rank_seconds;
    return *this;
  }

  /// Folds \p depth into max_relax_depth (lock-free running max).
  void NoteRelaxDepth(uint64_t depth) {
    uint64_t cur = max_relax_depth.load(std::memory_order_relaxed);
    while (depth > cur &&
           !max_relax_depth.compare_exchange_weak(cur, depth,
                                                  std::memory_order_relaxed)) {
    }
  }

  /// Merges another run's counters and timers into this one.
  void Accumulate(const RelaxationStats& other) {
    queries_issued += other.queries_issued.load(std::memory_order_relaxed);
    tuples_extracted += other.tuples_extracted.load(std::memory_order_relaxed);
    tuples_relevant += other.tuples_relevant.load(std::memory_order_relaxed);
    cache_hits += other.cache_hits.load(std::memory_order_relaxed);
    deduped_probes += other.deduped_probes.load(std::memory_order_relaxed);
    expansions += other.expansions.load(std::memory_order_relaxed);
    expansions_reused +=
        other.expansions_reused.load(std::memory_order_relaxed);
    NoteRelaxDepth(other.max_relax_depth.load(std::memory_order_relaxed));
    base_set_seconds += other.base_set_seconds;
    relax_seconds += other.relax_seconds;
    rank_seconds += other.rank_seconds;
  }

  double WorkPerRelevantTuple() const {
    const uint64_t extracted = tuples_extracted.load(std::memory_order_relaxed);
    const uint64_t relevant = tuples_relevant.load(std::memory_order_relaxed);
    return relevant == 0 ? static_cast<double>(extracted)
                         : static_cast<double>(extracted) /
                               static_cast<double>(relevant);
  }
};

/// \brief Answers imprecise queries over one autonomous source using mined
/// knowledge.
///
/// Expansion memo. Under GuidedRelax, Algorithm 1's steps 3-8 for one base
/// tuple (relax it in the mined order, probe, keep the tuples above Tsim)
/// are a pure function of the base row, the source snapshot and the
/// knowledge edition; only step 9's Sim(Q, t) depends on Q. The engine
/// keeps the completed expansions of recently expanded base rows, keyed by
/// row id: the canonical rows offered in discovery order, the expansion's
/// tuples_relevant count and its deepest relaxation. A repeated base row
/// rebuilds its offers by scoring each stored row against Q — the same
/// Score call a computed expansion makes — so answers are bit-identical,
/// and the hit costs no probe. The memo lives and dies with the engine: a
/// LiveEngine builds one engine per (snapshot, knowledge) version, so no
/// entry outlives its version, and ApplyFeedback clears it. Only complete
/// GuidedRelax expansions are stored (RandomRelax orders depend on the
/// base-set position; a truncated or failed expansion is partial). Its
/// bound follows from the probe cache's: see kMemoEntriesPerProbeEntry.
/// FindSimilar never uses it.
class AimqEngine {
 public:
  /// \p source must outlive the engine; \p knowledge is what BuildKnowledge
  /// mined from it.
  AimqEngine(const WebDatabase* source, MinedKnowledge knowledge,
             AimqOptions options);

  // The similarity function holds pointers into knowledge_, so the engine
  // must stay at a fixed address: construct it in place (or behind a
  // unique_ptr) and never copy/move it.
  AimqEngine(const AimqEngine&) = delete;
  AimqEngine& operator=(const AimqEngine&) = delete;
  AimqEngine(AimqEngine&&) = delete;
  AimqEngine& operator=(AimqEngine&&) = delete;

  const MinedKnowledge& knowledge() const { return knowledge_; }
  const AimqOptions& options() const { return options_; }
  const SimilarityFunction& similarity() const { return sim_; }

  /// Algorithm 1: map Q to a base query, expand the base set via relaxation
  /// queries, keep tuples above Tsim, return the top-k ranked by Sim(Q, t).
  /// \p stats (optional) accumulates probe accounting.
  ///
  /// The per-base-tuple relaxation loop fans out over options().num_threads
  /// workers; ranked answers are bit-identical at any thread count (see
  /// DESIGN.md, "Query-time concurrency model"). RandomRelax orders are
  /// derived deterministically from options().seed and the base-set
  /// position, so they too are independent of scheduling; vary the seed for
  /// different shuffles. Safe to call concurrently with other Answer() /
  /// FindSimilar() calls on the same engine (but not with ApplyFeedback,
  /// which retunes the weights the rankers read).
  ///
  /// \p control (optional) carries a cooperative cancel flag and deadline,
  /// checked between relaxation probes. Cancellation during base-set
  /// derivation aborts with kCancelled / kDeadlineExceeded (there is nothing
  /// useful to return yet); cancellation during the relaxation fan-out stops
  /// probing and ranks the candidates gathered so far, returning a *partial*
  /// top-k and setting \p truncated.
  Result<std::vector<RankedAnswer>> Answer(
      const ImpreciseQuery& query,
      RelaxationStrategy strategy = RelaxationStrategy::kGuided,
      RelaxationStats* stats = nullptr, const QueryControl* control = nullptr,
      bool* truncated = nullptr);

  /// The Figures 6/7 protocol: starting from \p anchor (a database tuple),
  /// extract tuples until \p target distinct ones with Sim(anchor, t) >=
  /// \p tsim are found or the relaxation sequence is exhausted. The anchor
  /// itself is excluded. Results are sorted by descending similarity.
  /// Safe to call concurrently for distinct or identical anchors; RandomRelax
  /// orders derive deterministically from options().seed and the anchor, so
  /// results never depend on call order or scheduling. \p control stops the
  /// descent between probes, returning what was gathered so far.
  Result<std::vector<RankedAnswer>> FindSimilar(const Tuple& anchor,
                                                size_t target, double tsim,
                                                RelaxationStrategy strategy,
                                                RelaxationStats* stats =
                                                    nullptr,
                                                const QueryControl* control =
                                                    nullptr);

  /// Derives the base set for Q: execute Qpr, and if the answer set is empty
  /// generalize Qpr along the relaxation order until it is not (footnote 2).
  /// \p control aborts the derivation between probes.
  Result<std::vector<Tuple>> DeriveBaseSet(const ImpreciseQuery& query,
                                           RelaxationStats* stats = nullptr,
                                           const QueryControl* control =
                                               nullptr);

  /// Per-attribute breakdown of one answer's similarity score (why was this
  /// tuple returned?). The contributions sum to the similarity Answer()
  /// reported for the tuple.
  Result<AnswerExplanation> Explain(const ImpreciseQuery& query,
                                    const Tuple& answer) const {
    return ExplainAnswer(sim_, source_->schema(), query, answer);
  }

  /// Relevance-feedback tuning (paper §7 future work): folds the user's
  /// re-ranking of one answer list into the attribute importance weights.
  /// Returns the updated, normalized weight vector; subsequent queries rank
  /// with the tuned weights. Clears the expansion memo.
  Result<std::vector<double>> ApplyFeedback(
      const RelevanceFeedback& feedback, const Tuple& query_tuple,
      const std::vector<JudgedAnswer>& judged);

  /// The expansion memo's bound: one memoized expansion per this many
  /// probe-cache entries (options().probe_cache_capacity). A 2^18-entry
  /// probe cache keeps 16,384 expansions, more than the ~6.7k base rows a
  /// 400-query Zipf catalog over 50k CarDB rows expands; a 1024-entry one
  /// keeps 64; a disabled probe cache (capacity 0) disables the memo, which
  /// is what keeps a serial reference engine an independent oracle.
  static constexpr size_t kMemoEntriesPerProbeEntry = 16;
  /// Expansions currently memoized (testing/diagnostics).
  size_t expansion_memo_size() const;

  /// Replaces the shared probe cache. Sharing one ProbeCache across engines
  /// over the same source dedupes relaxation probes across sessions; pass
  /// nullptr to probe the source directly (per-call dedup still applies).
  /// Not thread-safe against in-flight queries — set it between calls.
  void SetProbeCache(std::shared_ptr<ProbeCache> cache) {
    probe_cache_ = std::move(cache);
  }

  /// The probe cache in front of WebDatabase::Execute (never null unless
  /// options().probe_cache_capacity was 0 and no cache was attached).
  const std::shared_ptr<ProbeCache>& probe_cache() const {
    return probe_cache_;
  }

  /// Adjusts the relaxation fan-out width (see AimqOptions::num_threads).
  void SetNumThreads(size_t num_threads) { options_.num_threads = num_threads; }

  /// Attaches a span recorder: every Answer()/FindSimilar() phase and every
  /// probe emits a trace span tagged with the QueryControl's trace_id (0 for
  /// untraced calls). Pass nullptr to detach (the default — spans then cost
  /// one pointer test). The recorder must outlive the engine; not
  /// thread-safe against in-flight queries, set it before serving.
  void SetTraceRecorder(TraceRecorder* recorder) { trace_ = recorder; }

 private:
  // Per-call probe bookkeeping: when no shared ProbeCache is attached, memo
  // preserves the historical per-Answer dedup of identical relaxed queries.
  // Entries are shared row lists keyed on ProbeKeys, like the shared cache.
  // Guarded by mu so parallel workers share it.
  struct ProbeContext {
    std::mutex mu;
    std::unordered_map<ProbeKey, SharedRows, ProbeKeyHash> memo;
  };

  // A completed GuidedRelax expansion of one base row, as the memo keeps
  // it: everything TupleExpansion holds except the Q-dependent scores.
  struct MemoizedExpansion {
    std::vector<uint32_t> rows;  // canonical rows offered, discovery order
    uint64_t tuples_relevant = 0;
    uint64_t relax_depth = 0;  // deepest relaxation probed
  };

  // One base tuple's contribution to the candidate pool, produced by a
  // worker of the relaxation fan-out and merged in base-set order.
  struct TupleExpansion {
    Status status = Status::OK();
    // (canonical candidate row, Sim(Q, candidate)) in discovery order,
    // deduped per worker. Rows are canonicalized so duplicate tuples under
    // distinct row ids merge exactly as Tuple-keyed dedup did.
    std::vector<std::pair<uint32_t, double>> offers;
    // The expansion stopped early because the query was cancelled or
    // deadlined; offers hold only what was gathered before the stop.
    bool truncated = false;
  };

  // Bound (non-null) attribute order for relaxation, least important first.
  std::vector<size_t> MinedOrderFor(const Tuple& tuple) const;

  // All source probes of the query path go through here: shared ProbeCache
  // if attached, per-call memo otherwise. Probes travel as shared row-id
  // lists end to end; nothing materializes until the API edge. \p key must
  // be the key of make_query(), which is called only when the source must be
  // probed. \p fresh (optional) reports whether the source was physically
  // probed. \p trace_id tags the probe's trace span with the request being
  // served.
  template <typename MakeQuery>
  Result<SharedRows> Probe(const ProbeKey& key, MakeQuery&& make_query,
                           RelaxationStats* stats, ProbeContext* ctx,
                           bool* fresh, uint64_t trace_id);

  // Probe() of a query the caller already built.
  Result<SharedRows> ProbeQuery(const SelectionQuery& query,
                                RelaxationStats* stats, ProbeContext* ctx,
                                bool* fresh, uint64_t trace_id);

  // Algorithm 1 steps 2-8 for one base tuple (runs on a worker thread),
  // replayed from the expansion memo when it holds \p base_row.
  // \p enc_query is Q pre-encoded against the source's columnar snapshot,
  // shared read-only by all workers of one Answer() call.
  TupleExpansion ExpandBaseTuple(
      const CodedSimilarityFunction::EncodedQuery& enc_query,
      uint32_t base_row, size_t base_index, RelaxationStrategy strategy,
      RelaxationStats* stats, ProbeContext* ctx, const QueryControl* control);

  // DeriveBaseSet against an existing probe context, as row ids.
  Result<std::vector<uint32_t>> DeriveBaseSetImpl(const ImpreciseQuery& query,
                                                  RelaxationStats* stats,
                                                  ProbeContext* ctx,
                                                  const QueryControl* control);

  const WebDatabase* source_;
  MinedKnowledge knowledge_;
  AimqOptions options_;
  SimilarityFunction sim_;
  // Code-level scorer over the source's columnar snapshot: the hot paths
  // (base-set ranking, relaxation scoring) run on dictionary codes and
  // produce bit-identical doubles to sim_.
  CodedSimilarityFunction coded_sim_;
  std::vector<size_t> all_attrs_;
  // Probe dedup layer shared by every query this engine (and any engine
  // sharing the pointer) answers.
  std::shared_ptr<ProbeCache> probe_cache_;
  // Expansion memo: base row -> its completed GuidedRelax expansion (see
  // the class comment). LRU, guarded by memo_mu_; entries are shared so a
  // hit copies a handle under the lock and scores outside it.
  mutable std::mutex memo_mu_;
  LruCache<uint32_t, std::shared_ptr<const MemoizedExpansion>> memo_;
  // Span recorder for end-to-end tracing; nullptr = tracing off (default).
  TraceRecorder* trace_ = nullptr;
};

}  // namespace aimq

#endif  // AIMQ_CORE_ENGINE_H_
