#include "oracles/row_oracles.h"

#include <algorithm>
#include <unordered_map>

namespace aimq {

Bag SuperTupleBag(const SuperTuple& st, size_t attr) {
  Bag out;
  if (st.vocab() == nullptr) return out;
  const std::vector<std::string>& keywords = st.vocab()->keywords[attr];
  const CodedBag& coded = st.coded_bag(attr);
  for (size_t e = 0; e < coded.ids().size(); ++e) {
    out.Add(keywords[coded.ids()[e]], coded.counts()[e]);
  }
  return out;
}

StrippedPartition RowStorePartition(const Relation& relation,
                                    size_t attr_index) {
  std::unordered_map<Value, std::vector<size_t>, ValueHash> groups;
  groups.reserve(relation.NumTuples());
  for (size_t r = 0; r < relation.NumTuples(); ++r) {
    groups[relation.tuple(r).At(attr_index)].push_back(r);
  }
  std::vector<std::vector<size_t>> classes;
  for (auto& [value, rows] : groups) {
    if (rows.size() >= 2) classes.push_back(std::move(rows));
  }
  // Deterministic class order (by first row) regardless of hash order.
  std::sort(classes.begin(), classes.end(),
            [](const auto& a, const auto& b) { return a[0] < b[0]; });
  return StrippedPartition(relation.NumTuples(), std::move(classes));
}

Result<std::vector<size_t>> ScanEvaluate(const SelectionQuery& query,
                                         const Relation& relation) {
  std::vector<size_t> rows;
  for (size_t r = 0; r < relation.NumTuples(); ++r) {
    AIMQ_ASSIGN_OR_RETURN(bool match,
                          query.Matches(relation.schema(), relation.tuple(r)));
    if (match) rows.push_back(r);
  }
  return rows;
}

}  // namespace aimq
