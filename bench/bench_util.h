// Shared helpers for the experiment-reproduction harnesses. Each bench
// binary regenerates one table or figure of the paper and prints it in a
// paper-comparable layout.

#ifndef AIMQ_BENCH_BENCH_UTIL_H_
#define AIMQ_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/knowledge.h"
#include "datagen/cardb.h"
#include "datagen/censusdb.h"
#include "util/json.h"

namespace aimq {
namespace bench {

/// Prints a boxed section header.
inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Prints an aligned text table: one header row plus data rows. Column
/// widths adapt to content.
inline void PrintTable(const std::vector<std::string>& header,
                       const std::vector<std::vector<std::string>>& rows) {
  std::vector<size_t> width(header.size());
  for (size_t c = 0; c < header.size(); ++c) width[c] = header[c].size();
  for (const auto& row : rows) {
    for (size_t c = 0; c < row.size() && c < width.size(); ++c) {
      if (row[c].size() > width[c]) width[c] = row[c].size();
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    std::printf("  ");
    for (size_t c = 0; c < row.size() && c < width.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(width[c]), row[c].c_str());
    }
    std::printf("\n");
  };
  print_row(header);
  std::vector<std::string> rule;
  for (size_t w : width) rule.push_back(std::string(w, '-'));
  print_row(rule);
  for (const auto& row : rows) print_row(row);
}

/// The git commit the binary was built from, for machine-readable bench
/// baselines: GITHUB_SHA when set (CI), else `git rev-parse HEAD`, else
/// "unknown". Never fails.
inline std::string GitSha() {
  if (const char* sha = std::getenv("GITHUB_SHA");
      sha != nullptr && sha[0] != '\0') {
    return sha;
  }
  std::string out;
  if (std::FILE* p = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[128];
    if (std::fgets(buf, sizeof(buf), p) != nullptr) out = buf;
    ::pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

/// Writes \p doc to \p path as one JSON document + newline. A baseline file
/// CI archives as an artifact, so regressions are diffable across commits.
inline bool WriteJsonFile(const std::string& path, const Json& doc) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const std::string dump = doc.Dump();
  std::fwrite(dump.data(), 1, dump.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("baseline written to %s\n", path.c_str());
  return true;
}

/// Peak resident set size of this process (Linux VmHWM), in bytes; 0 when
/// unavailable. Recorded into bench baselines so memory regressions are as
/// diffable as ns/op regressions.
inline size_t PeakRssBytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %zu", &kb) == 1) break;
  }
  std::fclose(f);
  return kb * 1024;
}

/// Code-column footprint of one columnar snapshot as bytes per tuple:
/// "plain" is the resident 4-bytes-per-code layout; packed snapshots add
/// "stored" (the bit-packed payloads they keep) from the block store's
/// stats.
inline Json BytesPerTupleJson(const ColumnarRelation& cols) {
  Json j = Json::Obj();
  const double rows =
      cols.NumRows() > 0 ? static_cast<double>(cols.NumRows()) : 1.0;
  j.Set("plain", Json::Num(4.0 * static_cast<double>(cols.NumAttributes())));
  if (cols.packed()) {
    const storage::BlockStoreStats stats = cols.block_store()->GetStats();
    j.Set("stored", Json::Num(static_cast<double>(stats.stored_bytes) / rows));
  }
  return j;
}

/// The canonical 100k CarDB instance every CarDB experiment derives from
/// (paper §6.1). Seed fixed so all benches see the same database.
inline Relation FullCarDb() {
  CarDbSpec spec;
  spec.num_tuples = 100000;
  spec.seed = 2006;
  return CarDbGenerator(spec).Generate();
}

/// The generator paired with FullCarDb (same spec), used for ground truth.
inline CarDbGenerator FullCarDbGenerator() {
  CarDbSpec spec;
  spec.num_tuples = 100000;
  spec.seed = 2006;
  return CarDbGenerator(spec);
}

/// The canonical 45k CensusDB instance (paper §6.1).
inline CensusDataset FullCensusDb() {
  CensusDbSpec spec;
  spec.num_tuples = 45000;
  spec.seed = 1994;
  return CensusDbGenerator(spec).Generate();
}

/// Standard AIMQ options used across the CarDB experiments.
inline AimqOptions CarDbOptions() {
  AimqOptions options;
  options.tsim = 0.5;
  options.top_k = 10;
  options.tane.error_threshold = 0.30;
  options.tane.max_lhs_size = 3;
  options.tane.max_key_size = 4;
  return options;
}

/// Standard AIMQ options used across the CensusDB experiments. CensusDB's
/// correlations are much weaker than CarDB's (no Model→Make-style FD), so a
/// wider Terr is needed for moderate dependencies (education↔occupation,
/// age→marital-status) to register in the importance weights; min_gain
/// keeps the skew-dominated columns (capital gains, race, country) out.
inline AimqOptions CensusOptions() {
  AimqOptions options;
  options.tsim = 0.4;
  options.top_k = 10;
  options.tane.error_threshold = 0.65;
  options.tane.key_error_threshold = 0.10;
  options.tane.min_gain = 0.10;
  options.tane.max_lhs_size = 3;
  options.tane.max_key_size = 3;
  options.max_relax_attrs = 6;
  options.numeric_band = 0.25;
  return options;
}

/// A copy of \p mined with all attribute-importance information removed:
/// uniform Wimp (derived from the dependency set stripped of AFDs) and a
/// similarity model re-mined with uniform feature weights. This is the
/// "equal importance to all attributes" configuration the paper gives its
/// RandomRelax arm in the user study (§6.4) and its ROCK baseline.
inline Result<MinedKnowledge> UniformWeightVariant(
    const MinedKnowledge& mined, const Schema& schema,
    const SimilarityMinerOptions& sopts) {
  MinedKnowledge uniform;
  uniform.sample = mined.sample;
  uniform.dependencies = mined.dependencies;
  MinedDependencies no_afds = mined.dependencies;
  no_afds.afds.clear();
  AIMQ_ASSIGN_OR_RETURN(uniform.ordering,
                        AttributeOrdering::Derive(schema, no_afds));
  std::vector<double> weights(schema.NumAttributes(),
                              1.0 / static_cast<double>(schema.NumAttributes()));
  AIMQ_ASSIGN_OR_RETURN(uniform.vsim,
                        SimilarityMiner(sopts).Mine(mined.sample, weights));
  return uniform;
}

}  // namespace bench
}  // namespace aimq

#endif  // AIMQ_BENCH_BENCH_UTIL_H_
