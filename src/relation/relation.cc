#include "relation/relation.h"

#include "util/csv.h"

namespace aimq {

Relation::Relation(const Relation& other) {
  std::lock_guard<std::mutex> lock(other.columnar_cache_mu_);
  schema_ = other.schema_;
  tuples_ = other.tuples_;
  columnar_ = other.columnar_;
}

Relation& Relation::operator=(const Relation& other) {
  if (this == &other) return *this;
  std::scoped_lock lock(columnar_cache_mu_, other.columnar_cache_mu_);
  schema_ = other.schema_;
  tuples_ = other.tuples_;
  columnar_ = other.columnar_;
  ++columnar_generation_;
  return *this;
}

Relation::Relation(Relation&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.columnar_cache_mu_);
  schema_ = std::move(other.schema_);
  tuples_ = std::move(other.tuples_);
  columnar_ = std::move(other.columnar_);
}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this == &other) return *this;
  std::scoped_lock lock(columnar_cache_mu_, other.columnar_cache_mu_);
  schema_ = std::move(other.schema_);
  tuples_ = std::move(other.tuples_);
  columnar_ = std::move(other.columnar_);
  ++columnar_generation_;
  return *this;
}

std::shared_ptr<const ColumnarRelation> Relation::columnar() const {
  {
    std::lock_guard<std::mutex> lock(columnar_cache_mu_);
    if (columnar_) return columnar_;
  }
  // Build under the dedicated build mutex, NOT the cache mutex: encoding is
  // O(rows), and mutators (Append / InvalidateColumnar) must only ever wait
  // behind the O(1) pointer update, never behind a rebuild (DESIGN.md §5e).
  std::lock_guard<std::mutex> build_lock(columnar_build_mu_);
  uint64_t generation;
  {
    std::lock_guard<std::mutex> lock(columnar_cache_mu_);
    if (columnar_) return columnar_;  // built while we waited for build_lock
    generation = columnar_generation_;
  }
  auto built = std::make_shared<const ColumnarRelation>(*this);
  std::lock_guard<std::mutex> lock(columnar_cache_mu_);
  // Publish only if no mutation raced the build; a stale snapshot is still
  // correct for this caller (it saw the pre-mutation rows) but must not be
  // cached.
  if (columnar_generation_ == generation) columnar_ = built;
  return built;
}

Status ValidateTuple(const Schema& schema, const Tuple& tuple,
                     std::string_view label) {
  if (tuple.Size() != schema.NumAttributes()) {
    return Status::InvalidArgument(
        std::string(label) + " arity " + std::to_string(tuple.Size()) +
        " does not match schema arity " +
        std::to_string(schema.NumAttributes()));
  }
  for (size_t i = 0; i < tuple.Size(); ++i) {
    const Value& v = tuple.At(i);
    if (v.is_null()) continue;
    const AttrType type = schema.attribute(i).type;
    if (type == AttrType::kCategorical && !v.is_categorical()) {
      return Status::InvalidArgument("attribute '" + schema.attribute(i).name +
                                     "' expects a categorical value");
    }
    if (type == AttrType::kNumeric && !v.is_numeric()) {
      return Status::InvalidArgument("attribute '" + schema.attribute(i).name +
                                     "' expects a numeric value");
    }
  }
  return Status::OK();
}

Status Relation::Append(Tuple tuple) {
  AIMQ_RETURN_NOT_OK(ValidateTuple(schema_, tuple));
  InvalidateColumnar();
  tuples_.push_back(std::move(tuple));
  return Status::OK();
}

std::vector<Value> Relation::DistinctValues(size_t attr_index) const {
  // The dictionary interns non-null values in first-seen order, so its value
  // list is exactly the historical answer — without the per-collision rescan
  // of the old hash-prefilter implementation.
  return columnar()->dict(attr_index).values();
}

size_t Relation::DistinctCount(size_t attr_index) const {
  return columnar()->dict(attr_index).size();
}

Relation Relation::SampleWithoutReplacement(size_t sample_size,
                                            Rng* rng) const {
  Relation out(schema_);
  std::vector<size_t> picks =
      rng->SampleWithoutReplacement(tuples_.size(), sample_size);
  out.tuples_.reserve(picks.size());
  for (size_t row : picks) out.tuples_.push_back(tuples_[row]);
  return out;
}

Relation Relation::Head(size_t n) const {
  Relation out(schema_);
  size_t limit = n < tuples_.size() ? n : tuples_.size();
  out.tuples_.assign(tuples_.begin(), tuples_.begin() + limit);
  return out;
}

Status Relation::WriteCsv(const std::string& path) const {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(tuples_.size() + 1);
  std::vector<std::string> header;
  for (const Attribute& a : schema_.attributes()) header.push_back(a.name);
  rows.push_back(std::move(header));
  for (const Tuple& t : tuples_) {
    std::vector<std::string> row;
    row.reserve(t.Size());
    for (const Value& v : t.values()) row.push_back(v.ToString());
    rows.push_back(std::move(row));
  }
  return CsvWriteFile(path, rows);
}

Result<Relation> Relation::ReadCsv(const std::string& path,
                                   const Schema& schema) {
  AIMQ_ASSIGN_OR_RETURN(auto rows, CsvReadFile(path));
  if (rows.empty()) {
    return Status::InvalidArgument("CSV file has no header row: " + path);
  }
  if (rows[0].size() != schema.NumAttributes()) {
    return Status::InvalidArgument("CSV header arity mismatch in " + path);
  }
  for (size_t i = 0; i < rows[0].size(); ++i) {
    if (rows[0][i] != schema.attribute(i).name) {
      return Status::InvalidArgument("CSV header mismatch: expected '" +
                                     schema.attribute(i).name + "', got '" +
                                     rows[0][i] + "'");
    }
  }
  Relation rel(schema);
  for (size_t r = 1; r < rows.size(); ++r) {
    if (rows[r].size() != schema.NumAttributes()) {
      return Status::InvalidArgument("CSV row arity mismatch at line " +
                                     std::to_string(r + 1));
    }
    std::vector<Value> values;
    values.reserve(rows[r].size());
    for (size_t i = 0; i < rows[r].size(); ++i) {
      AIMQ_ASSIGN_OR_RETURN(
          Value v, Value::Parse(rows[r][i], schema.attribute(i).type));
      values.push_back(std::move(v));
    }
    AIMQ_RETURN_NOT_OK(rel.Append(Tuple(std::move(values))));
  }
  return rel;
}

}  // namespace aimq
