#include "relation/columnar.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "relation/relation.h"

namespace aimq {
namespace {

// The storage layer restates the dictionary sentinels to stay
// dependency-free; packed columns are only correct if they agree.
static_assert(storage::kNullCode == ValueDict::kNullCode,
              "storage null sentinel must match ValueDict");
static_assert(storage::kAbsentCode == ValueDict::kAbsentCode,
              "storage absent sentinel must match ValueDict");

// Hash/equality over full code vectors, addressed by row index, for the
// canonical-row grouping below. Both read the columns through a pointer
// the index can re-aim when an heir takes it over.
using CodeColumns = std::vector<std::vector<ValueId>>;

struct RowCodesHash {
  const CodeColumns* const* codes;
  size_t operator()(uint32_t row) const {
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (const auto& column : **codes) {
      h ^= column[row] + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return static_cast<size_t>(h);
  }
};

struct RowCodesEq {
  const CodeColumns* const* codes;
  bool operator()(uint32_t a, uint32_t b) const {
    for (const auto& column : **codes) {
      if (column[a] != column[b]) return false;
    }
    return true;
  }
};

// Interns \p v into \p dict for a packed snapshot. On the first sighting of
// a numeric attribute's value it extends the code -> double table with the
// conversion the plain columns store per row.
ValueId InternPacked(const Value& v, bool numeric, ValueDict* dict,
                     std::vector<double>* code_num) {
  const ValueId code = dict->Intern(v);
  if (numeric && code != ValueDict::kNullCode && code == code_num->size()) {
    code_num->push_back(v.is_numeric() ? v.AsNum() : 0.0);
  }
  return code;
}

}  // namespace

struct ColumnarRelation::CanonicalIndex {
  CanonicalIndex(const CodeColumns* columns, size_t expected_rows)
      : codes(columns),
        reps(expected_rows + 1, RowCodesHash{&codes}, RowCodesEq{&codes}) {}

  // The owning snapshot's code columns; an heir re-aims it at its own,
  // which start with the same rows.
  const CodeColumns* codes;
  // First row of each distinct code vector; a row's canonical row is the
  // member it collides with (or itself, inserted).
  std::unordered_set<uint32_t, RowCodesHash, RowCodesEq> reps;
};

uint64_t ColumnarRelation::NextLineageUid() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void ColumnarRelation::AssignCanonical(CanonicalIndex* index,
                                       size_t from_row) {
  canonical_.resize(num_rows_);
  for (size_t row = from_row; row < num_rows_; ++row) {
    canonical_[row] = *index->reps.insert(static_cast<uint32_t>(row)).first;
  }
}

ColumnarRelation::ColumnarRelation(const Relation& relation)
    : schema_(relation.schema()), num_rows_(relation.NumTuples()) {
  const size_t num_attrs = schema_.NumAttributes();
  dicts_.resize(num_attrs);
  codes_.resize(num_attrs);
  nums_.resize(num_attrs);
  for (size_t a = 0; a < num_attrs; ++a) {
    // Pre-size columns exactly and dictionaries heuristically (most
    // attributes have far fewer distinct values than rows).
    codes_[a].reserve(num_rows_);
    dicts_[a].Reserve(std::min<size_t>(num_rows_, 4096));
    if (schema_.attribute(a).type == AttrType::kNumeric) {
      nums_[a].reserve(num_rows_);
    }
  }
  for (size_t row = 0; row < num_rows_; ++row) {
    const Tuple& tuple = relation.tuple(row);
    for (size_t a = 0; a < num_attrs; ++a) {
      const Value& v = tuple.At(a);
      codes_[a].push_back(dicts_[a].Intern(v));
      if (schema_.attribute(a).type == AttrType::kNumeric) {
        nums_[a].push_back(v.is_numeric() ? v.AsNum() : 0.0);
      }
    }
  }

  CanonicalIndex index(&codes_, num_rows_);
  AssignCanonical(&index, 0);
}

Result<std::shared_ptr<const ColumnarRelation>> ColumnarRelation::Extend(
    const ColumnarRelation& base, const std::vector<Tuple>& delta,
    uint64_t new_version) {
  for (const Tuple& t : delta) {
    AIMQ_RETURN_NOT_OK(ValidateTuple(base.schema_, t));
  }
  auto out_mut = std::shared_ptr<ColumnarRelation>(new ColumnarRelation());
  ColumnarRelation& out = *out_mut;
  out.schema_ = base.schema_;
  const size_t num_attrs = base.dicts_.size();
  const size_t base_rows = base.num_rows_;
  out.num_rows_ = base_rows + delta.size();
  out.snapshot_version_ = new_version;
  // Append-only dictionaries: copying the base dictionaries preserves every
  // base code's meaning; delta interning below can only add codes at the
  // end, exactly as a from-scratch encode of the concatenated stream would.
  out.dicts_ = base.dicts_;
  out.codes_.resize(num_attrs);
  out.nums_.resize(num_attrs);

  if (base.packed()) {
    // A new store on the base's block grid and budget.
    out.store_ =
        storage::CodeBlockStore::Create(base.store_->options(), num_attrs);
    for (size_t a = 0; a < num_attrs; ++a) {
      storage::CodeBlockStore::Cursor cursor = base.store_->ColumnCursor(a);
      while (cursor.Next()) {
        AIMQ_RETURN_NOT_OK(
            out.store_->Append(a, cursor.data(), cursor.size()));
      }
    }
    // Delta rows: the same row-major interning as ColumnarBuilder.
    out.code_num_ = base.code_num_;
    for (const Tuple& tuple : delta) {
      for (size_t a = 0; a < num_attrs; ++a) {
        const ValueId code = InternPacked(
            tuple.At(a), out.schema_.attribute(a).type == AttrType::kNumeric,
            &out.dicts_[a], &out.code_num_[a]);
        AIMQ_RETURN_NOT_OK(out.store_->Append(a, &code, 1));
      }
    }
    AIMQ_RETURN_NOT_OK(out.store_->FinishBuild());
  } else {
    for (size_t a = 0; a < num_attrs; ++a) {
      out.codes_[a].reserve(out.num_rows_);
      out.codes_[a].insert(out.codes_[a].end(), base.codes_[a].begin(),
                           base.codes_[a].end());
      if (out.schema_.attribute(a).type == AttrType::kNumeric) {
        out.nums_[a].reserve(out.num_rows_);
        out.nums_[a].insert(out.nums_[a].end(), base.nums_[a].begin(),
                            base.nums_[a].end());
      }
    }
    // Delta rows: the same row-major interning loop as the plain
    // constructor.
    for (const Tuple& tuple : delta) {
      for (size_t a = 0; a < num_attrs; ++a) {
        const Value& v = tuple.At(a);
        out.codes_[a].push_back(out.dicts_[a].Intern(v));
        if (out.schema_.attribute(a).type == AttrType::kNumeric) {
          out.nums_[a].push_back(v.is_numeric() ? v.AsNum() : 0.0);
        }
      }
    }
  }

  // The first heir continues the base's lineage and takes its canonical
  // index; a second Extend of the same base starts a new lineage.
  std::shared_ptr<CanonicalIndex> index;
  if (base.ClaimHeir()) {
    out.lineage_uid_ = base.lineage_uid_;
    index = std::move(base.canonical_index_);
  }
  // A packed snapshot builds its canonical rows lazily, like every packed
  // snapshot (EnsureCanonical).
  if (out.packed()) {
    return std::shared_ptr<const ColumnarRelation>(std::move(out_mut));
  }

  // Canonical partition extended on the delta: base rows keep their mapping
  // and only delta rows probe/extend the index. An inherited index already
  // holds the base's representatives; otherwise they are re-bucketed
  // (integer hashing of code vectors, no value re-interning). First in
  // stream order wins, exactly as in the from-scratch constructor.
  out.canonical_ = base.canonical_;
  if (index != nullptr) {
    index->codes = &out.codes_;
  } else {
    index = std::make_shared<CanonicalIndex>(&out.codes_, out.num_rows_);
    for (uint32_t row = 0; row < base_rows; ++row) {
      if (base.canonical_[row] == row) index->reps.insert(row);
    }
  }
  out.AssignCanonical(index.get(), base_rows);
  out.canonical_index_ = std::move(index);
  return std::shared_ptr<const ColumnarRelation>(std::move(out_mut));
}

ColumnarRelation::WindowCursor::WindowCursor(const ColumnarRelation* rel,
                                             std::vector<size_t> attrs,
                                             size_t from_row)
    : rel_(rel), attrs_(std::move(attrs)), from_row_(from_row) {
  if (rel_->packed()) {
    const size_t first_block = from_row_ / rel_->store_->block_size();
    cursors_.reserve(attrs_.size());
    for (size_t a : attrs_) {
      cursors_.push_back(rel_->store_->ColumnCursor(a, first_block));
    }
  }
}

bool ColumnarRelation::WindowCursor::Next(CodeWindow* w) {
  if (done_) return false;
  w->codes.resize(attrs_.size());
  if (!rel_->packed()) {
    // Plain mode: the scanned rows are one window of resident columns.
    done_ = true;
    if (from_row_ >= rel_->num_rows_) return false;
    w->begin_row = from_row_;
    w->num_rows = rel_->num_rows_ - from_row_;
    for (size_t i = 0; i < attrs_.size(); ++i) {
      w->codes[i] = rel_->codes_[attrs_[i]].data() + from_row_;
    }
    return true;
  }
  if (attrs_.empty()) {
    done_ = true;
    return false;
  }
  for (size_t i = 0; i < cursors_.size(); ++i) {
    if (!cursors_[i].Next()) {
      done_ = true;
      return false;
    }
    w->codes[i] = cursors_[i].data();
  }
  w->begin_row = cursors_[0].begin_row();
  w->num_rows = cursors_[0].size();
  if (w->begin_row < from_row_) {
    // The first block starts before the scan: skip its leading rows.
    const size_t skip = from_row_ - w->begin_row;
    if (skip >= w->num_rows) {
      done_ = true;
      return false;
    }
    for (const ValueId*& codes : w->codes) codes += skip;
    w->begin_row = from_row_;
    w->num_rows -= skip;
  }
  return true;
}

void ColumnarRelation::EnsureCanonical() const {
  std::call_once(canonical_once_, [this] {
    canonical_.resize(num_rows_);
    const size_t num_attrs = dicts_.size();
    std::vector<size_t> attrs(num_attrs);
    for (size_t a = 0; a < num_attrs; ++a) attrs[a] = a;

    // Streaming pass: hash every row's code vector, bucket rows by hash,
    // and verify candidate matches code-by-code so a hash collision can
    // never merge distinct rows. First row in stream order wins, exactly as
    // the plain constructor's insertion order does.
    auto rows_equal = [this, num_attrs](uint32_t a, uint32_t b) {
      for (size_t attr = 0; attr < num_attrs; ++attr) {
        if (store_->At(attr, a) != store_->At(attr, b)) return false;
      }
      return true;
    };

    std::unordered_map<uint64_t, std::vector<uint32_t>> buckets;
    buckets.reserve(num_rows_ + 1);
    WindowCursor cur = ScanBlocks(attrs);
    CodeWindow w;
    while (cur.Next(&w)) {
      for (size_t i = 0; i < w.num_rows; ++i) {
        const uint32_t row = static_cast<uint32_t>(w.begin_row + i);
        uint64_t h = 0x9e3779b97f4a7c15ull;
        for (size_t a = 0; a < num_attrs; ++a) {
          h ^= w.codes[a][i] + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        }
        std::vector<uint32_t>& bucket = buckets[h];
        uint32_t canon = row;
        for (uint32_t rep : bucket) {
          if (rows_equal(rep, row)) {
            canon = rep;
            break;
          }
        }
        if (canon == row) bucket.push_back(row);
        canonical_[row] = canon;
      }
    }
  });
}

Tuple ColumnarRelation::MaterializeTuple(size_t row) const {
  const size_t num_attrs = dicts_.size();
  std::vector<Value> values;
  values.reserve(num_attrs);
  for (size_t a = 0; a < num_attrs; ++a) {
    values.push_back(ValueAt(a, row));
  }
  return Tuple(std::move(values));
}

Value ColumnarRelation::ValueAt(size_t attr, size_t row) const {
  const ValueId code = CodeAt(attr, row);
  if (code == ValueDict::kNullCode) return Value();
  return dicts_[attr].value(code);
}

Result<std::unique_ptr<ColumnarBuilder>> ColumnarBuilder::Create(Schema schema,
                                                                 Options opts) {
  const size_t num_attrs = schema.NumAttributes();
  std::unique_ptr<ColumnarBuilder> b(new ColumnarBuilder());
  b->schema_ = std::move(schema);
  b->dicts_.resize(num_attrs);
  b->code_num_.resize(num_attrs);
  b->is_numeric_.resize(num_attrs);
  for (size_t a = 0; a < num_attrs; ++a) {
    b->is_numeric_[a] =
        b->schema_.attribute(a).type == AttrType::kNumeric ? 1 : 0;
  }
  b->store_ = storage::CodeBlockStore::Create(opts.store, num_attrs);
  return b;
}

Status ColumnarBuilder::AppendRow(const std::vector<Value>& values) {
  if (finished_) {
    return Status::FailedPrecondition("ColumnarBuilder: append after Finish");
  }
  if (values.size() != dicts_.size()) {
    return Status::InvalidArgument(
        "ColumnarBuilder: row arity does not match schema");
  }
  for (size_t a = 0; a < values.size(); ++a) {
    const ValueId code =
        InternPacked(values[a], is_numeric_[a], &dicts_[a], &code_num_[a]);
    AIMQ_RETURN_NOT_OK(store_->Append(a, &code, 1));
  }
  ++rows_;
  return Status::OK();
}

Result<std::shared_ptr<const ColumnarRelation>> ColumnarBuilder::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("ColumnarBuilder: Finish called twice");
  }
  finished_ = true;
  AIMQ_RETURN_NOT_OK(store_->FinishBuild());
  auto rel = std::shared_ptr<ColumnarRelation>(new ColumnarRelation());
  rel->schema_ = std::move(schema_);
  rel->num_rows_ = rows_;
  rel->dicts_ = std::move(dicts_);
  rel->codes_.resize(rel->dicts_.size());   // empty: packed mode
  rel->nums_.resize(rel->dicts_.size());    // empty: packed mode
  rel->code_num_ = std::move(code_num_);
  rel->store_ = std::move(store_);
  return std::shared_ptr<const ColumnarRelation>(std::move(rel));
}

}  // namespace aimq
