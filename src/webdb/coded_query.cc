#include "webdb/coded_query.h"

#include <algorithm>

#include "simd/dispatch.h"

namespace aimq {

namespace {

/// Bytes of gather padding behind a Pred::match_table (the simd table_mask
/// kernel loads 32 bits per lane).
constexpr size_t kMatchTablePad = 8;

}  // namespace

CodedConjunction CodedConjunction::Compile(const SelectionQuery& query,
                                           const ColumnarRelation& data) {
  CodedConjunction out;
  out.data_ = &data;
  out.preds_.reserve(query.NumPredicates());
  for (const Predicate& p : query.predicates()) {
    Pred c;
    c.op = p.op;
    auto index = data.schema().IndexOf(p.attribute);
    if (!index.ok()) {
      c.kind = Kind::kCompileError;
      c.error = index.status();
      out.preds_.push_back(std::move(c));
      continue;
    }
    c.attr = index.ValueOrDie();
    if (p.value.is_null()) {
      // Null query value: Predicate::Matches returns false before looking at
      // the operator, even for kLike.
      c.kind = Kind::kNeverMatch;
    } else if (p.op == CompareOp::kEq) {
      c.kind = Kind::kEqCode;
      // Lookup resolves through Value equality, so NaN yields the absent
      // sentinel (matches nothing) and -0.0 finds 0.0's code.
      c.target = data.dict(c.attr).Lookup(p.value);
    } else if (p.op == CompareOp::kLike) {
      c.kind = Kind::kErrorUnlessNull;
      c.error = Status::InvalidArgument(
          "'like' predicate is not executable under the boolean query model; "
          "map the imprecise query to a precise base query first");
    } else if (!p.value.is_numeric()) {
      c.kind = Kind::kErrorUnlessNull;
      c.error = Status::InvalidArgument(
          "range predicate on non-numeric attribute '" + p.attribute + "'");
    } else {
      c.kind = Kind::kRange;
      c.threshold = p.value.AsNum();
      const ValueDict& dict = data.dict(c.attr);
      c.code_numeric.resize(dict.size());
      c.code_num.resize(dict.size());
      bool all_numeric = true;
      for (ValueId code = 0; code < dict.size(); ++code) {
        const Value& v = dict.value(code);
        c.code_numeric[code] = v.is_numeric() ? 1 : 0;
        c.code_num[code] = v.is_numeric() ? v.AsNum() : 0.0;
        all_numeric = all_numeric && v.is_numeric();
      }
      if (!all_numeric) {
        // Only reachable through unvalidated appends; the error matches the
        // row-store message for a non-numeric stored operand.
        c.error = Status::InvalidArgument(
            "range predicate on non-numeric attribute '" + p.attribute + "'");
      } else {
        // Error-free range: fold the double comparison into a per-code bit
        // table so full scans can run as simd mask filters. Built from the
        // same code_num doubles the row path compares — bit-identical by
        // construction.
        c.match_table.assign(dict.size() + kMatchTablePad, 0);
        for (ValueId code = 0; code < dict.size(); ++code) {
          c.match_table[code] =
              RangeMatches(c.op, c.code_num[code], c.threshold) ? 1 : 0;
        }
      }
    }
    out.preds_.push_back(std::move(c));
  }
  return out;
}

template <typename CodeFn>
Result<bool> CodedConjunction::EvalRowWith(CodeFn&& code_at) const {
  for (size_t i = 0; i < preds_.size(); ++i) {
    const Pred& p = preds_[i];
    switch (p.kind) {
      case Kind::kCompileError:
        return p.error;
      case Kind::kNeverMatch:
        return false;
      case Kind::kEqCode: {
        if (code_at(i, p) != p.target) return false;
        break;
      }
      case Kind::kErrorUnlessNull: {
        if (code_at(i, p) == ValueDict::kNullCode) return false;
        return p.error;
      }
      case Kind::kRange: {
        const ValueId code = code_at(i, p);
        if (code == ValueDict::kNullCode) return false;
        if (!p.code_numeric[code]) return p.error;
        const double a = p.code_num[code];
        bool match = false;
        switch (p.op) {
          case CompareOp::kLt:
            match = a < p.threshold;
            break;
          case CompareOp::kLe:
            match = a <= p.threshold;
            break;
          case CompareOp::kGt:
            match = a > p.threshold;
            break;
          case CompareOp::kGe:
            match = a >= p.threshold;
            break;
          default:
            return Status::Internal("unhandled compare op");
        }
        if (!match) return false;
        break;
      }
    }
  }
  return true;
}

Result<bool> CodedConjunction::EvaluateRow(uint32_t row) const {
  return EvalRowWith(
      [this, row](size_t, const Pred& p) { return data_->CodeAt(p.attr, row); });
}

Result<std::vector<uint32_t>> CodedConjunction::EvaluateAll(
    size_t from_row) const {
  std::vector<uint32_t> rows;

  // One scan attribute per predicate that reads its column; predicates that
  // short-circuit without a column read (never-match, compile error) keep a
  // null window pointer.
  std::vector<size_t> scan_attrs;
  std::vector<size_t> pred_slot(preds_.size(), SIZE_MAX);
  for (size_t i = 0; i < preds_.size(); ++i) {
    const Kind k = preds_[i].kind;
    if (k == Kind::kEqCode || k == Kind::kErrorUnlessNull ||
        k == Kind::kRange) {
      pred_slot[i] = scan_attrs.size();
      scan_attrs.push_back(preds_[i].attr);
    }
  }
  if (scan_attrs.empty()) {
    // No predicate reads a column: evaluate once per row without a scan
    // (preserves "an empty relation scans clean" for compile errors).
    const uint32_t n = static_cast<uint32_t>(data_->NumRows());
    for (uint32_t r = static_cast<uint32_t>(from_row); r < n; ++r) {
      AIMQ_ASSIGN_OR_RETURN(bool match, EvaluateRow(r));
      if (match) rows.push_back(r);
    }
    return rows;
  }

  // Batched bitmask path: applicable when every predicate compiled to an
  // error-free code form — kEqCode (a pure code compare) or kRange with a
  // match table (all-numeric dictionary). Those kinds can never return a
  // Status for any row, so mask evaluation order is unobservable and the
  // per-predicate masks can be built independently and ANDed. Any other
  // kind (kNeverMatch, kCompileError, kErrorUnlessNull, error-carrying
  // kRange) falls back to the per-row path below, which reproduces the
  // row-store error-ordering semantics exactly.
  const bool vectorizable = std::all_of(
      preds_.begin(), preds_.end(), [](const Pred& p) {
        return p.kind == Kind::kEqCode ||
               (p.kind == Kind::kRange && !p.match_table.empty());
      });
  if (vectorizable) {
    const simd::KernelTable& kernels = simd::Kernels();
    std::vector<uint64_t> mask, pred_mask;
    ColumnarRelation::WindowCursor cur =
        data_->ScanBlocks(scan_attrs, from_row);
    ColumnarRelation::CodeWindow w;
    while (cur.Next(&w)) {
      const size_t words = (w.num_rows + 63) / 64;
      mask.resize(words);
      pred_mask.resize(words);
      for (size_t pi = 0; pi < preds_.size(); ++pi) {
        const Pred& p = preds_[pi];
        const uint32_t* codes = w.codes[pred_slot[pi]];
        uint64_t* dst = pi == 0 ? mask.data() : pred_mask.data();
        if (p.kind == Kind::kEqCode) {
          kernels.eq_mask(codes, w.num_rows, p.target, dst);
        } else {
          kernels.table_mask(
              codes, w.num_rows, p.match_table.data(),
              static_cast<uint32_t>(p.match_table.size() - kMatchTablePad),
              dst);
        }
        if (pi != 0) {
          for (size_t wi = 0; wi < words; ++wi) mask[wi] &= pred_mask[wi];
        }
      }
      kernels.mask_to_rows(mask.data(), words,
                           static_cast<uint32_t>(w.begin_row), &rows);
    }
    return rows;
  }

  ColumnarRelation::WindowCursor cur = data_->ScanBlocks(scan_attrs, from_row);
  ColumnarRelation::CodeWindow w;
  while (cur.Next(&w)) {
    for (size_t i = 0; i < w.num_rows; ++i) {
      AIMQ_ASSIGN_OR_RETURN(
          bool match,
          EvalRowWith([&w, &pred_slot, i](size_t pi, const Pred&) {
            return w.codes[pred_slot[pi]][i];
          }));
      if (match) rows.push_back(static_cast<uint32_t>(w.begin_row + i));
    }
  }
  return rows;
}

Result<std::vector<uint32_t>> CodedConjunction::EvaluateCandidates(
    std::span<const uint32_t> candidates) const {
  std::vector<uint32_t> rows;
  for (uint32_t r : candidates) {
    AIMQ_ASSIGN_OR_RETURN(bool match, EvaluateRow(r));
    if (match) rows.push_back(r);
  }
  return rows;
}

}  // namespace aimq
