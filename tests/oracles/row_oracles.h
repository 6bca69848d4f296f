// Row-path oracles: the historical row-store (Value- and string-keyed)
// implementations that the library's coded paths must reproduce exactly.
// Tests check equivalence against them and bench/micro_kernels reports the
// coded paths' speedups over them; the library itself never calls them.

#ifndef AIMQ_ORACLES_ROW_ORACLES_H_
#define AIMQ_ORACLES_ROW_ORACLES_H_

#include <cstddef>
#include <vector>

#include "afd/partition.h"
#include "oracles/bag.h"
#include "query/selection_query.h"
#include "relation/relation.h"
#include "similarity/supertuple.h"
#include "util/status.h"

namespace aimq {

/// The keyword bag of \p st's attribute \p attr, materialized to strings
/// through its vocabulary (empty for the bound attribute, or without one).
Bag SuperTupleBag(const SuperTuple& st, size_t attr);

/// π_{A} by Value-keyed grouping of the row store: the oracle for
/// StrippedPartition::FromColumnCoded.
StrippedPartition RowStorePartition(const Relation& relation,
                                    size_t attr_index);

/// Full scan of \p relation, one SelectionQuery::Matches per tuple,
/// returning matching row indices: the oracle for the coded probe paths.
Result<std::vector<size_t>> ScanEvaluate(const SelectionQuery& query,
                                         const Relation& relation);

}  // namespace aimq

#endif  // AIMQ_ORACLES_ROW_ORACLES_H_
