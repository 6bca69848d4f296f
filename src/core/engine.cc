#include "core/engine.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "util/parallel.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/topk.h"

namespace aimq {

namespace {

// splitmix64-style mixer: derives an independent, well-distributed Rng seed
// for one unit of work (a base-set position, an anchor hash) so stochastic
// relaxation orders are a pure function of (engine seed, work item) and
// never of thread scheduling or call order.
uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Accumulates the elapsed time of one Answer() phase into *out when the
// scope exits — on success, error return, cancellation, or deadline alike.
// Phase timers must never be finalized only on the happy path: a cancelled
// session still has to account the time it burned (the serving layer bills
// it against the request's deadline budget).
class PhaseTimer {
 public:
  explicit PhaseTimer(double* out) : out_(out) {}
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;
  ~PhaseTimer() {
    if (out_ != nullptr) *out_ += watch_.ElapsedSeconds();
  }

 private:
  Stopwatch watch_;
  double* out_;
};

}  // namespace

AimqEngine::AimqEngine(const WebDatabase* source, MinedKnowledge knowledge,
                       AimqOptions options)
    : source_(source),
      knowledge_(std::move(knowledge)),
      options_(options),
      sim_(&source->schema(), &knowledge_.ordering, &knowledge_.vsim,
           options.numeric_sim),
      memo_(options.probe_cache_capacity / kMemoEntriesPerProbeEntry) {
  if (options_.probe_cache_capacity > 0) {
    probe_cache_ = std::make_shared<ProbeCache>(options_.probe_cache_capacity);
  }
  const Schema& schema = source_->schema();
  for (size_t i = 0; i < schema.NumAttributes(); ++i) {
    all_attrs_.push_back(i);
  }
  // Numeric attribute ranges observed in the sample, for min-max scaling.
  // The sample's dictionaries list each distinct value once in first-seen
  // order, which folds to the same extrema as a full row scan.
  std::vector<std::pair<double, double>> ranges(schema.NumAttributes(),
                                                {0.0, 0.0});
  const std::shared_ptr<const ColumnarRelation> sample_cols =
      knowledge_.sample.columnar();
  for (size_t attr : schema.NumericIndices()) {
    bool seen = false;
    for (const Value& v : sample_cols->dict(attr).values()) {
      if (!v.is_numeric()) continue;
      double d = v.AsNum();
      if (!seen) {
        ranges[attr] = {d, d};
        seen = true;
      } else {
        ranges[attr].first = std::min(ranges[attr].first, d);
        ranges[attr].second = std::max(ranges[attr].second, d);
      }
    }
  }
  sim_.SetNumericRanges(std::move(ranges));
  coded_sim_ = CodedSimilarityFunction(&sim_, source_->columnar());
}

std::vector<size_t> AimqEngine::MinedOrderFor(const Tuple& tuple) const {
  std::vector<size_t> order;
  for (size_t attr : knowledge_.ordering.relaxation_order()) {
    if (attr < tuple.Size() && !tuple.At(attr).is_null()) {
      order.push_back(attr);
    }
  }
  return order;
}

template <typename MakeQuery>
Result<SharedRows> AimqEngine::Probe(const ProbeKey& key,
                                     MakeQuery&& make_query,
                                     RelaxationStats* stats, ProbeContext* ctx,
                                     bool* fresh, uint64_t trace_id) {
  TraceSpan span(trace_, "probe", "engine", trace_id);
  // Layers below the cache (a sharded source facade's scatter legs) have no
  // QueryControl in scope; the thread-local scope hands them the request id
  // so their spans correlate with this probe's.
  TraceRequestScope request_scope(trace_id);
  if (fresh != nullptr) *fresh = false;
  if (probe_cache_ != nullptr && probe_cache_->capacity() > 0) {
    bool hit = false;
    AIMQ_ASSIGN_OR_RETURN(
        SharedRows rows,
        probe_cache_->ExecuteRows(*source_, key, make_query, &hit));
    span.AddArg("cache_hit", hit ? 1.0 : 0.0);
    if (stats != nullptr) {
      if (hit) {
        ++stats->cache_hits;
        ++stats->deduped_probes;
      } else {
        ++stats->queries_issued;
      }
    }
    if (fresh != nullptr) *fresh = !hit;
    return rows;
  }

  // No shared cache: a per-call memo still folds identical relaxed queries
  // (base tuples of the same model share deep relaxations) into one probe.
  if (ctx != nullptr) {
    std::lock_guard<std::mutex> lock(ctx->mu);
    auto it = ctx->memo.find(key);
    if (it != ctx->memo.end()) {
      if (stats != nullptr) ++stats->deduped_probes;
      span.AddArg("cache_hit", 1.0);
      return it->second;
    }
  }
  AIMQ_ASSIGN_OR_RETURN(SharedRows rows,
                        ShareRows(source_->ExecuteRows(make_query())));
  span.AddArg("cache_hit", 0.0);
  if (stats != nullptr) ++stats->queries_issued;
  if (fresh != nullptr) *fresh = true;
  if (ctx != nullptr) {
    std::lock_guard<std::mutex> lock(ctx->mu);
    ctx->memo.emplace(key, rows);
  }
  return rows;
}

Result<SharedRows> AimqEngine::ProbeQuery(const SelectionQuery& query,
                                          RelaxationStats* stats,
                                          ProbeContext* ctx, bool* fresh,
                                          uint64_t trace_id) {
  return Probe(
      ProbeKey::ForQuery(*source_->columnar(), query),
      [&query]() -> const SelectionQuery& { return query; }, stats, ctx,
      fresh, trace_id);
}

Result<std::vector<Tuple>> AimqEngine::DeriveBaseSet(
    const ImpreciseQuery& query, RelaxationStats* stats,
    const QueryControl* control) {
  ProbeContext ctx;
  AIMQ_ASSIGN_OR_RETURN(std::vector<uint32_t> rows,
                        DeriveBaseSetImpl(query, stats, &ctx, control));
  return source_->Materialize(rows);
}

Result<std::vector<uint32_t>> AimqEngine::DeriveBaseSetImpl(
    const ImpreciseQuery& query, RelaxationStats* stats, ProbeContext* ctx,
    const QueryControl* control) {
  AIMQ_RETURN_NOT_OK(query.Validate(source_->schema()));
  if (query.Empty()) {
    return Status::InvalidArgument("imprecise query binds no attribute");
  }
  const uint64_t trace_id = control != nullptr ? control->trace_id() : 0;
  const SelectionQuery base = query.ToBaseQuery();
  if (control != nullptr) {
    AIMQ_RETURN_NOT_OK(control->Check("base-set derivation"));
  }
  bool fresh = false;
  AIMQ_ASSIGN_OR_RETURN(SharedRows answers,
                        ProbeQuery(base, stats, ctx, &fresh, trace_id));
  if (stats != nullptr && fresh) stats->tuples_extracted += answers->size();
  if (!answers->empty()) return *answers;

  // Footnote 2: generalize Qpr along the attribute ordering until some
  // answers appear — drop the least important bound attributes first.
  std::vector<size_t> bound_order;
  for (size_t attr : knowledge_.ordering.relaxation_order()) {
    if (query.BindingIndex(source_->schema().attribute(attr).name).ok()) {
      bound_order.push_back(attr);
    }
  }
  // Dropping every bound attribute would return the whole database; stop at
  // size-1 combinations short of that.
  RelaxationSequence sequence(bound_order,
                              bound_order.empty() ? 0 : bound_order.size() - 1);
  while (sequence.HasNext()) {
    if (control != nullptr) {
      AIMQ_RETURN_NOT_OK(control->Check("base-set generalization"));
    }
    std::vector<size_t> combo = sequence.Next();
    std::vector<std::string> drop;
    drop.reserve(combo.size());
    for (size_t attr : combo) {
      drop.push_back(source_->schema().attribute(attr).name);
    }
    SelectionQuery generalized = base.DropAttributes(drop);
    AIMQ_ASSIGN_OR_RETURN(
        SharedRows relaxed_answers,
        ProbeQuery(generalized, stats, ctx, &fresh, trace_id));
    if (stats != nullptr && fresh) {
      stats->tuples_extracted += relaxed_answers->size();
    }
    if (!relaxed_answers->empty()) return *relaxed_answers;
  }
  return Status::NotFound("no generalization of the base query " +
                          base.ToString() + " has a non-empty answer set");
}

size_t AimqEngine::expansion_memo_size() const {
  std::lock_guard<std::mutex> lock(memo_mu_);
  return memo_.size();
}

AimqEngine::TupleExpansion AimqEngine::ExpandBaseTuple(
    const CodedSimilarityFunction::EncodedQuery& enc_query, uint32_t base_row,
    size_t base_index, RelaxationStrategy strategy, RelaxationStats* stats,
    ProbeContext* ctx, const QueryControl* control) {
  const uint64_t trace_id = control != nullptr ? control->trace_id() : 0;
  TraceSpan span(trace_, "relax_tuple", "engine", trace_id);
  span.AddArg("base_index", static_cast<double>(base_index));
  const ColumnarRelation& cols = *coded_sim_.cols();
  TupleExpansion out;
  if (stats != nullptr) ++stats->expansions;

  // A memoized expansion only needs scoring against Q. The capacity is
  // fixed at construction, so it is read without the lock.
  const bool memoizable =
      strategy == RelaxationStrategy::kGuided && memo_.capacity() > 0;
  if (memoizable) {
    std::shared_ptr<const MemoizedExpansion> memo;
    {
      std::lock_guard<std::mutex> lock(memo_mu_);
      if (const auto* hit = memo_.Get(base_row)) memo = *hit;
    }
    span.AddArg("memo_hit", memo != nullptr ? 1.0 : 0.0);
    if (memo != nullptr) {
      out.offers.reserve(memo->rows.size());
      for (const uint32_t canon : memo->rows) {
        out.offers.emplace_back(canon, coded_sim_.Score(enc_query, canon));
      }
      if (stats != nullptr) {
        ++stats->expansions_reused;
        stats->tuples_relevant += memo->tuples_relevant;
        stats->NoteRelaxDepth(memo->relax_depth);
      }
      return out;
    }
  }

  std::unordered_set<uint32_t> offered;
  auto offer = [&](uint32_t row) {
    const uint32_t canon = cols.CanonicalRow(row);
    if (!offered.insert(canon).second) return;
    out.offers.emplace_back(canon, coded_sim_.Score(enc_query, canon));
  };

  // Base-set tuples match Q exactly on every bound attribute; the base tuple
  // leads its own expansion so merge order equals base-set order.
  offer(base_row);

  // The mined order, the banded probe bounds, and a missed probe's query
  // need the tuple's values; everything else in the loop runs on codes.
  const Tuple tuple = source_->MaterializeRow(base_row);
  const RelaxedProbeKeys keys(cols, base_row, tuple, options_.numeric_band);
  const uint32_t base_canon = cols.CanonicalRow(base_row);
  const CodedSimilarityFunction::EncodedQuery enc_anchor =
      coded_sim_.EncodeAnchorRow(base_row, all_attrs_);

  // RandomRelax order: a pure function of (seed, base-set position), never
  // of scheduling — answers stay identical at any thread count.
  Rng rng(MixSeed(options_.seed, base_index));
  std::vector<size_t> order = StrategyOrder(strategy, MinedOrderFor(tuple),
                                            &rng);
  TupleRelaxer relaxer(source_->schema(), tuple, std::move(order),
                       options_.max_relax_attrs, options_.numeric_band);
  size_t relevant_for_tuple = 0;
  size_t depth = 0;
  while (relaxer.HasNext()) {
    if (options_.relax_stop_after > 0 &&
        relevant_for_tuple >= options_.relax_stop_after) {
      break;
    }
    // Cooperative stop between probes: keep the candidates gathered so far
    // (they still rank into a useful partial top-k) and flag the truncation.
    if (control != nullptr && control->ShouldStop()) {
      out.truncated = true;
      break;
    }
    const std::vector<size_t> relaxed_attrs = relaxer.NextRelaxedAttrs();
    depth = std::max(depth, relaxed_attrs.size());
    if (stats != nullptr) stats->NoteRelaxDepth(relaxed_attrs.size());
    bool fresh = false;
    Result<SharedRows> extracted = Probe(
        keys.Key(relaxed_attrs),
        [&] {
          return RelaxTupleQuery(source_->schema(), tuple, relaxed_attrs,
                                 options_.numeric_band);
        },
        stats, ctx, &fresh, trace_id);
    if (!extracted.ok()) {
      out.status = extracted.status();
      return out;
    }
    const std::vector<uint32_t>& rows = **extracted;
    if (stats != nullptr && fresh) stats->tuples_extracted += rows.size();
    for (const uint32_t candidate : rows) {
      if (cols.CanonicalRow(candidate) == base_canon) continue;
      double s = coded_sim_.Score(enc_anchor, candidate);
      if (s > options_.tsim) {
        ++relevant_for_tuple;
        if (stats != nullptr) ++stats->tuples_relevant;
        offer(candidate);
      }
    }
  }
  // Only a complete expansion is the pure function the memo stands for; a
  // failed one returned above. Two workers expanding the same row store
  // the same data, so the last store wins.
  if (memoizable && !out.truncated) {
    auto memo = std::make_shared<MemoizedExpansion>();
    memo->rows.reserve(out.offers.size());
    for (const auto& [canon, score] : out.offers) memo->rows.push_back(canon);
    memo->tuples_relevant = relevant_for_tuple;
    memo->relax_depth = depth;
    std::lock_guard<std::mutex> lock(memo_mu_);
    memo_.Put(base_row, std::move(memo));
  }
  return out;
}

Result<std::vector<RankedAnswer>> AimqEngine::Answer(
    const ImpreciseQuery& query, RelaxationStrategy strategy,
    RelaxationStats* stats, const QueryControl* control, bool* truncated) {
  if (truncated != nullptr) *truncated = false;
  AIMQ_RETURN_NOT_OK(query.Validate(source_->schema()));
  const uint64_t trace_id = control != nullptr ? control->trace_id() : 0;
  ProbeContext ctx;
  // Q is validated, so encoding cannot fail; encode once and share the
  // integer-resolved bindings with every worker.
  AIMQ_ASSIGN_OR_RETURN(const CodedSimilarityFunction::EncodedQuery enc_query,
                        coded_sim_.EncodeQuery(query));
  std::vector<uint32_t> base_set;
  {
    PhaseTimer phase(stats == nullptr ? nullptr : &stats->base_set_seconds);
    TraceSpan span(trace_, "base_set", "engine", trace_id);
    AIMQ_ASSIGN_OR_RETURN(base_set,
                          DeriveBaseSetImpl(query, stats, &ctx, control));
    if (options_.base_set_limit > 0 &&
        base_set.size() > options_.base_set_limit) {
      // Keep the base tuples closest to Q (matters when the base query had to
      // be generalized and its answers no longer satisfy Q exactly).
      if (shard_ranker_ != nullptr) {
        // Scatter/gather path: per-shard top-k merged by (score desc, row
        // asc) — bit-identical to the serial TopK below because base_set
        // arrives ascending, making insertion-order ties equal to row-id
        // ties.
        std::vector<std::pair<double, uint32_t>> best =
            shard_ranker_->RankTopK(
                base_set, options_.base_set_limit,
                [&](uint32_t row) { return coded_sim_.Score(enc_query, row); });
        base_set.clear();
        for (auto& [score, row] : best) {
          base_set.push_back(row);
        }
      } else {
        TopK<uint32_t> best(options_.base_set_limit);
        for (uint32_t row : base_set) {
          best.Add(coded_sim_.Score(enc_query, row), row);
        }
        base_set.clear();
        for (auto& [score, row] : best.Extract()) {
          base_set.push_back(row);
        }
      }
    }
  }

  // Steps 2-8: expand each base tuple through relaxation queries, fanned out
  // over the worker pool. Workers share only thread-safe state (the probe
  // cache / memo, atomic stats); each expansion is a pure function of its
  // base tuple, so the result is independent of scheduling.
  std::vector<TupleExpansion> expansions(base_set.size());
  {
    PhaseTimer phase(stats == nullptr ? nullptr : &stats->relax_seconds);
    TraceSpan span(trace_, "relax", "engine", trace_id);
    span.AddArg("base_set_size", static_cast<double>(base_set.size()));
    ParallelFor(base_set.size(), options_.num_threads, [&](size_t i) {
      expansions[i] = ExpandBaseTuple(enc_query, base_set[i], i, strategy,
                                      stats, &ctx, control);
    });
    for (const TupleExpansion& e : expansions) {
      AIMQ_RETURN_NOT_OK(e.status);
    }
  }
  if (truncated != nullptr) {
    for (const TupleExpansion& e : expansions) {
      if (e.truncated) {
        *truncated = true;
        break;
      }
    }
  }

  // Step 9: top-k by similarity to Q. Offers are merged in base-set order
  // (then discovery order within one tuple), so the pool's insertion
  // sequence — and therefore TopK's deterministic tie-breaking — is
  // bit-identical to the serial path at any thread count.
  PhaseTimer phase(stats == nullptr ? nullptr : &stats->rank_seconds);
  TraceSpan span(trace_, "similarity_rank", "engine", trace_id);
  // Pooled canonical rows (equality of tuples), one bit per source row.
  std::vector<uint64_t> pooled((coded_sim_.cols()->NumRows() + 63) / 64);
  TopK<uint32_t> topk(options_.top_k);
  for (const TupleExpansion& e : expansions) {
    for (const auto& [candidate, score] : e.offers) {
      uint64_t& word = pooled[candidate >> 6];
      const uint64_t bit = uint64_t{1} << (candidate & 63);
      if ((word & bit) != 0) continue;
      word |= bit;
      topk.Add(score, candidate);
    }
  }
  std::vector<RankedAnswer> out;
  for (auto& [score, row] : topk.Extract()) {
    out.push_back(RankedAnswer{source_->MaterializeRow(row), score});
  }
  return out;
}

Result<std::vector<RankedAnswer>> AimqEngine::FindSimilar(
    const Tuple& anchor, size_t target, double tsim,
    RelaxationStrategy strategy, RelaxationStats* stats,
    const QueryControl* control) {
  if (anchor.Size() != source_->schema().NumAttributes()) {
    return Status::InvalidArgument("anchor tuple arity mismatch");
  }
  const uint64_t trace_id = control != nullptr ? control->trace_id() : 0;
  TraceSpan span(trace_, "find_similar", "engine", trace_id);
  ProbeContext ctx;
  const ColumnarRelation& cols = *coded_sim_.cols();
  // The anchor is an arbitrary caller tuple: resolve it against the source's
  // dictionaries once. Values the source never stored get the absent code,
  // which no row carries — exactly Tuple inequality (including NaN ≠ NaN).
  const CodedSimilarityFunction::EncodedQuery enc_anchor =
      coded_sim_.EncodeAnchor(anchor, all_attrs_);
  std::vector<ValueId> anchor_codes;
  anchor_codes.reserve(anchor.Size());
  for (size_t a = 0; a < anchor.Size(); ++a) {
    anchor_codes.push_back(cols.dict(a).Lookup(anchor.At(a)));
  }
  auto equals_anchor = [&](uint32_t row) {
    for (size_t a = 0; a < anchor_codes.size(); ++a) {
      if (cols.CodeAt(a, row) != anchor_codes[a]) return false;
    }
    return true;
  };
  std::unordered_set<uint32_t> seen;  // canonical rows
  std::vector<RankedAnswer> relevant;

  // Progressive descent (paper §6.3 protocol): keep weakening one query —
  // relax one more attribute per step, in strategy order — until enough
  // relevant tuples have been extracted. Work counts each *distinct* tuple
  // the user would have to look at. The RandomRelax order derives from the
  // anchor itself, so concurrent FindSimilar calls are deterministic.
  Rng rng(MixSeed(options_.seed, TupleHash{}(anchor)));
  std::vector<size_t> order = StrategyOrder(strategy, MinedOrderFor(anchor),
                                            &rng);
  TupleRelaxer relaxer(source_->schema(), anchor, std::move(order),
                       /*max_relax_attrs=*/0, options_.numeric_band,
                       RelaxationMode::kProgressive);
  // Each descent step is evaluated in full before checking the target, so
  // the answer set is the *most similar* relevant tuples of the step that
  // satisfied the target, not an arbitrary first-come subset of it.
  while (relaxer.HasNext() && relevant.size() < target) {
    // Cooperative stop between descent steps: the protocol is inherently
    // progressive, so the tuples gathered so far are the answer.
    if (control != nullptr && control->ShouldStop()) break;
    std::vector<size_t> relaxed_attrs;
    SelectionQuery q = relaxer.Next(&relaxed_attrs);
    if (stats != nullptr) stats->NoteRelaxDepth(relaxed_attrs.size());
    AIMQ_ASSIGN_OR_RETURN(SharedRows extracted,
                          ProbeQuery(q, stats, &ctx, nullptr, trace_id));
    for (const uint32_t candidate : *extracted) {
      if (equals_anchor(candidate)) continue;
      if (!seen.insert(cols.CanonicalRow(candidate)).second) continue;
      if (stats != nullptr) ++stats->tuples_extracted;
      double s = coded_sim_.Score(enc_anchor, candidate);
      if (s >= tsim) {
        relevant.push_back(RankedAnswer{source_->MaterializeRow(candidate), s});
        if (stats != nullptr) ++stats->tuples_relevant;
      }
    }
  }
  std::sort(relevant.begin(), relevant.end(),
            [](const RankedAnswer& a, const RankedAnswer& b) {
              if (a.similarity != b.similarity) {
                return a.similarity > b.similarity;
              }
              return a.tuple.ToString() < b.tuple.ToString();  // determinism
            });
  if (relevant.size() > target) relevant.resize(target);
  return relevant;
}

Result<std::vector<double>> AimqEngine::ApplyFeedback(
    const RelevanceFeedback& feedback, const Tuple& query_tuple,
    const std::vector<JudgedAnswer>& judged) {
  AIMQ_ASSIGN_OR_RETURN(
      std::vector<double> updated,
      feedback.Round(sim_, source_->schema(), query_tuple, judged,
                     knowledge_.WimpVector()));
  AIMQ_RETURN_NOT_OK(knowledge_.ordering.SetWimp(updated));
  // Expansions under the old weights are stale: their Tsim test scores with
  // the weights.
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    memo_.Clear();
  }
  return knowledge_.WimpVector();
}

}  // namespace aimq
