// CarDB generator — the substitute for the paper's Yahoo Autos scrape.
//
// The paper evaluated on 100k used-car listings with schema
// CarDB(Make, Model, Year, Price, Mileage, Location, Color), treating Make,
// Model, Year, Location and Color as categorical. AIMQ's machinery feeds on
// (a) inter-attribute correlations (AFDs such as Model → Make) and (b) value
// co-occurrence statistics (models of the same segment share price/mileage/
// year distributions). The generator plants exactly those structures from a
// hand-built catalog of makes and models, and keeps the catalog's hidden
// features available as a ground-truth similarity oracle for the simulated
// user study (Figure 8).

#ifndef AIMQ_DATAGEN_CARDB_H_
#define AIMQ_DATAGEN_CARDB_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "relation/columnar.h"
#include "relation/relation.h"
#include "util/status.h"

namespace aimq {

/// Vehicle segment of a catalog model (hidden feature).
enum class CarSegment {
  kCompact,
  kMidsize,
  kFullsize,
  kLuxury,
  kSports,
  kSuv,
  kTruck,
  kVan,
};

const char* CarSegmentName(CarSegment s);

/// One catalog model with its hidden features.
struct CarModelInfo {
  std::string make;
  std::string model;
  CarSegment segment = CarSegment::kMidsize;
  double base_price = 20000.0;  ///< new-vehicle price anchor (USD)
  double popularity = 1.0;      ///< relative sampling weight
  int first_year = 0;           ///< first production year (0 = open)
  int last_year = 9999;         ///< last production year (9999 = open)
};

/// Generator parameters.
struct CarDbSpec {
  size_t num_tuples = 100000;
  uint64_t seed = 2006;
  int min_year = 1985;
  int max_year = 2005;
};

/// \brief Synthetic CarDB with planted correlations + ground-truth oracle.
class CarDbGenerator {
 public:
  explicit CarDbGenerator(CarDbSpec spec);

  /// CarDB(Make, Model, Year, Price, Mileage, Location, Color); Year,
  /// Make, Model, Location, Color categorical; Price, Mileage numeric.
  static Schema MakeSchema();

  /// Attribute indices in the schema, for readable call sites.
  enum Attr : size_t {
    kMake = 0,
    kModel = 1,
    kYear = 2,
    kPrice = 3,
    kMileage = 4,
    kLocation = 5,
    kColor = 6,
  };

  /// Generates the dataset (deterministic per spec).
  Relation Generate() const;

  /// Streams the dataset row-by-row into \p emit — the exact tuple sequence
  /// Generate() materializes (same RNG call pattern, so the two are
  /// value-identical). A non-OK status from \p emit aborts the stream and is
  /// returned. Peak memory is one row.
  Status StreamTuples(
      const std::function<Status(std::vector<Value>&&)>& emit) const;

  /// Streams the dataset straight into a packed columnar snapshot (block
  /// bit-packing; block size and decoded-block budget per \p opts) without
  /// ever materializing a row-store Relation.
  Result<std::shared_ptr<const ColumnarRelation>> GenerateColumnar(
      ColumnarBuilder::Options opts) const;

  /// The hidden catalog.
  const std::vector<CarModelInfo>& catalog() const { return catalog_; }

  /// Ground-truth similarity between two catalog models in [0,1]
  /// (1 for identical). Unknown models have similarity 0.
  double ModelSimilarity(const std::string& a, const std::string& b) const;

  /// Ground-truth similarity between two makes: mean pairwise similarity of
  /// their catalogs (1 for identical makes).
  double MakeSimilarity(const std::string& a, const std::string& b) const;

  /// Ground-truth tuple similarity used by the simulated user: weighted mix
  /// of model similarity and price/year/mileage closeness, with small
  /// location/color contributions. Both tuples must follow MakeSchema().
  double TupleSimilarity(const Tuple& a, const Tuple& b) const;

 private:
  const CarModelInfo* FindModel(const std::string& model) const;
  double CountrySimilarity(const std::string& make_a,
                           const std::string& make_b) const;

  CarDbSpec spec_;
  std::vector<CarModelInfo> catalog_;
};

}  // namespace aimq

#endif  // AIMQ_DATAGEN_CARDB_H_
