#include "query/selection_query.h"

#include <algorithm>

namespace aimq {

SelectionQuery SelectionQuery::FromTuple(const Schema& schema,
                                         const Tuple& tuple) {
  std::vector<Predicate> preds;
  for (size_t i = 0; i < schema.NumAttributes() && i < tuple.Size(); ++i) {
    if (tuple.At(i).is_null()) continue;
    preds.push_back(Predicate::Eq(schema.attribute(i).name, tuple.At(i)));
  }
  return SelectionQuery(std::move(preds));
}

SelectionQuery SelectionQuery::DropAttributes(
    const std::vector<std::string>& drop) const {
  std::vector<Predicate> kept;
  for (const Predicate& p : predicates_) {
    if (std::find(drop.begin(), drop.end(), p.attribute) == drop.end()) {
      kept.push_back(p);
    }
  }
  return SelectionQuery(std::move(kept));
}

bool SelectionQuery::Binds(const std::string& attribute) const {
  for (const Predicate& p : predicates_) {
    if (p.attribute == attribute) return true;
  }
  return false;
}

Result<bool> SelectionQuery::Matches(const Schema& schema,
                                     const Tuple& tuple) const {
  for (const Predicate& p : predicates_) {
    AIMQ_ASSIGN_OR_RETURN(bool match, p.Matches(schema, tuple));
    if (!match) return false;
  }
  return true;
}

std::string SelectionQuery::ToString() const {
  std::string out = "Q(";
  for (size_t i = 0; i < predicates_.size(); ++i) {
    if (i > 0) out += ", ";
    out += predicates_[i].ToString();
  }
  out += ')';
  return out;
}

}  // namespace aimq
