#include "webdb/web_database.h"

#include <algorithm>
#include <span>

#include "webdb/coded_query.h"

namespace aimq {
void WebDatabase::BuildIndexes() {
  cols_ = data_.columnar();
  BuildPostingLists();
}

void WebDatabase::BuildPostingLists() {
  if (!postings_.empty()) return;
  const size_t n = cols_->NumAttributes();
  postings_.assign(n, {});
  std::vector<size_t> attrs;
  attrs.reserve(n);
  for (size_t a = 0; a < n; ++a) {
    postings_[a].resize(cols_->dict(a).size());
    attrs.push_back(a);
  }
  // One sequential pass over aligned block windows covers both storage
  // modes; plain mode yields a single window spanning the relation.
  ColumnarRelation::WindowCursor cursor = cols_->ScanBlocks(std::move(attrs));
  ColumnarRelation::CodeWindow w;
  while (cursor.Next(&w)) {
    for (size_t a = 0; a < n; ++a) {
      const ValueId* codes = w.codes[a];
      for (size_t i = 0; i < w.num_rows; ++i) {
        if (codes[i] == ValueDict::kNullCode) continue;
        postings_[a][codes[i]].push_back(
            static_cast<uint32_t>(w.begin_row + i));
      }
    }
  }
}

void WebDatabase::ExtendPostingLists(const WebDatabase& prev) {
  if (!postings_.empty() || prev.postings_.empty()) return;
  const size_t n = cols_->NumAttributes();
  const size_t from_row = prev.cols_->NumRows();
  // Old lists carry over verbatim: append-only dictionaries keep every old
  // code's row set, and all delta row ids are >= from_row, so appending
  // keeps each list ascending.
  postings_ = prev.postings_;
  std::vector<size_t> attrs;
  attrs.reserve(n);
  for (size_t a = 0; a < n; ++a) {
    postings_[a].resize(cols_->dict(a).size());
    attrs.push_back(a);
  }
  // Scan only the delta rows.
  ColumnarRelation::WindowCursor cursor =
      cols_->ScanBlocks(std::move(attrs), from_row);
  ColumnarRelation::CodeWindow w;
  while (cursor.Next(&w)) {
    for (size_t a = 0; a < n; ++a) {
      const ValueId* codes = w.codes[a];
      for (size_t i = 0; i < w.num_rows; ++i) {
        if (codes[i] == ValueDict::kNullCode) continue;
        postings_[a][codes[i]].push_back(
            static_cast<uint32_t>(w.begin_row + i));
      }
    }
  }
}

Status WebDatabase::ValidateBooleanQuery(const SelectionQuery& query) const {
  for (const Predicate& p : query.predicates()) {
    if (p.op == CompareOp::kLike) {
      return Status::InvalidArgument(
          "autonomous source '" + name_ +
          "' supports only boolean queries; got imprecise predicate: " +
          p.ToString());
    }
    if (!schema().Contains(p.attribute)) {
      return Status::NotFound("source '" + name_ +
                              "' has no attribute named '" + p.attribute +
                              "'");
    }
  }
  return Status::OK();
}

Result<std::vector<uint32_t>> WebDatabase::ExecuteRows(
    const SelectionQuery& query) const {
  return ExecuteRowsFrom(query, 0);
}

Result<std::vector<uint32_t>> WebDatabase::ExecuteRowsFrom(
    const SelectionQuery& query, size_t from_row) const {
  AIMQ_RETURN_NOT_OK(ValidateBooleanQuery(query));

  // Index-assisted evaluation: drive the scan from the most selective
  // equality predicate's posting list, verify the rest per candidate row.
  // Only the list's tail from from_row is scanned, so a delta evaluates the
  // rows a full probe would evaluate in that range. Packed sources keep no
  // posting lists; they use the block scan below.
  const std::vector<uint32_t>* candidates = nullptr;
  static const std::vector<uint32_t> kEmpty;
  if (!postings_.empty()) {
    for (const Predicate& p : query.predicates()) {
      if (p.op != CompareOp::kEq || p.value.is_null()) continue;
      size_t attr = schema().IndexOf(p.attribute).ValueOrDie();
      const ValueId code = cols_->dict(attr).Lookup(p.value);
      const std::vector<uint32_t>* rows =
          code < cols_->dict(attr).size() ? &postings_[attr][code] : &kEmpty;
      if (candidates == nullptr || rows->size() < candidates->size()) {
        candidates = rows;
      }
    }
  }

  Result<std::vector<uint32_t>> out = std::vector<uint32_t>();
  if (candidates == nullptr) {
    out = CodedConjunction::Compile(query, *cols_).EvaluateAll(from_row);
  } else {
    const auto tail = std::lower_bound(candidates->begin(), candidates->end(),
                                       static_cast<uint32_t>(from_row));
    if (tail != candidates->end()) {
      out = CodedConjunction::Compile(query, *cols_)
                .EvaluateCandidates(std::span(tail, candidates->end()));
    }
  }
  if (!out.ok()) return out;
  AccountProbe(out.ValueOrDie().size());
  return out;
}

Result<std::vector<uint32_t>> WebDatabase::ExecuteKeyFrom(
    const ProbeKey& key, size_t from_row) const {
  // A key that cannot fail holds code equalities and numeric ranges, tested
  // per row in any order; any other term it holds (a null operand, equality
  // on a value this snapshot's dictionary lacks) matches no row. Each test
  // reads column `column` of one scan over the key's attributes.
  struct CodeTest {
    size_t column;
    ValueId code;
  };
  struct RangeTest {
    size_t column;
    size_t attr;
    CompareOp op;
    double bound;
  };
  std::vector<size_t> attrs;
  const auto column_of = [&attrs](size_t attr) {
    const auto it = std::find(attrs.begin(), attrs.end(), attr);
    if (it != attrs.end()) return static_cast<size_t>(it - attrs.begin());
    attrs.push_back(attr);
    return attrs.size() - 1;
  };
  std::vector<CodeTest> eqs;
  std::vector<RangeTest> ranges;
  bool matches_nothing = false;
  ProbeKey::TermReader terms(key);
  ProbeKey::Term t;
  while (terms.Next(&t)) {
    if (t.CanError(schema())) {
      return Status::InvalidArgument(
          "source '" + name_ +
          "' cannot evaluate a probe key whose terms can fail; evaluate its "
          "query with ExecuteRowsFrom");
    }
    if (t.kind == ProbeKey::kCodeTerm) {
      eqs.push_back({column_of(t.attr), t.code});
    } else if (t.kind == ProbeKey::kNumTerm && t.op != CompareOp::kEq) {
      ranges.push_back({column_of(t.attr), t.attr, t.op, t.num});
    } else {
      matches_nothing = true;
    }
  }

  std::vector<uint32_t> out;
  if (matches_nothing) {
    AccountProbe(0);
    return out;
  }
  if (attrs.empty()) {
    // No terms: every row matches.
    const uint32_t n = static_cast<uint32_t>(cols_->NumRows());
    for (uint32_t row = static_cast<uint32_t>(from_row); row < n; ++row) {
      out.push_back(row);
    }
  } else {
    // One sequential scan of the key's attributes over the rows
    // [from_row, NumRows()); packed sources decode each block once.
    const auto matches = [&](const ColumnarRelation::CodeWindow& w,
                             size_t i) {
      for (const CodeTest& e : eqs) {
        if (w.codes[e.column][i] != e.code) return false;
      }
      for (const RangeTest& r : ranges) {
        const ValueId code = w.codes[r.column][i];
        if (code == ValueDict::kNullCode ||
            !RangeMatches(r.op, cols_->NumAt(r.attr, w.begin_row + i, code),
                          r.bound)) {
          return false;
        }
      }
      return true;
    };
    ColumnarRelation::WindowCursor cursor =
        cols_->ScanBlocks(std::move(attrs), from_row);
    ColumnarRelation::CodeWindow w;
    while (cursor.Next(&w)) {
      // Most rows fail the first equality: test it before the rest.
      const ValueId* lead = eqs.empty() ? nullptr : w.codes[eqs[0].column];
      for (size_t i = 0; i < w.num_rows; ++i) {
        if (lead != nullptr && lead[i] != eqs[0].code) continue;
        if (matches(w, i)) {
          out.push_back(static_cast<uint32_t>(w.begin_row + i));
        }
      }
    }
  }
  AccountProbe(out.size());
  return out;
}

Result<std::vector<Tuple>> WebDatabase::Execute(
    const SelectionQuery& query) const {
  AIMQ_ASSIGN_OR_RETURN(std::vector<uint32_t> rows, ExecuteRows(query));
  return Materialize(rows);
}

std::vector<Tuple> WebDatabase::Materialize(
    const std::vector<uint32_t>& rows) const {
  std::vector<Tuple> out;
  out.reserve(rows.size());
  for (uint32_t row : rows) out.push_back(MaterializeRow(row));
  return out;
}

Result<std::vector<Value>> WebDatabase::FormValues(
    const std::string& attribute) const {
  AIMQ_ASSIGN_OR_RETURN(size_t index, schema().IndexOf(attribute));
  if (schema().attribute(index).type != AttrType::kCategorical) {
    return Status::InvalidArgument(
        "form drop-downs exist only for categorical attributes; '" +
        attribute + "' is numeric");
  }
  // The dictionary holds exactly the distinct non-null values (first-seen
  // order), in either storage mode.
  std::vector<Value> values = cols_->dict(index).values();
  std::sort(values.begin(), values.end());
  return values;
}

}  // namespace aimq
