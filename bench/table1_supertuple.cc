// Table 1 — Supertuple for Make='Ford'.
//
// The paper's Table 1 illustrates the supertuple representation:
//
//   Model    Focus:5, ZX2:7, F150:8 ...
//   Mileage  10k-15k:3, 20k-25k:5, ..
//   Price    1k-5k:5, 15k-20k:3, ..
//   Color    White:5, Black:5, ...
//   Year     2000:6, 1999:5, ....
//
// This harness prints our CarDB's Make=Ford supertuple in the same layout:
// one bag of keyword:count entries per unbound attribute, with numeric
// attributes discretized into equi-width bins.

#include "bench_util.h"
#include "similarity/supertuple.h"

using namespace aimq;
using namespace aimq::bench;

int main() {
  PrintHeader("Table 1: Supertuple for Make='Ford' (CarDB 100k)");

  Relation data = FullCarDb();
  SuperTupleBuilder builder(data, SuperTupleOptions{});
  auto supertuple = builder.Build(AVPair(CarDbGenerator::kMake,
                                         Value::Cat("Ford")));
  if (!supertuple.ok()) {
    std::fprintf(stderr, "supertuple construction failed: %s\n",
                 supertuple.status().ToString().c_str());
    return 1;
  }

  std::printf("\n%s", supertuple->ToString(data.schema(), 6).c_str());
  std::printf(
      "\nPaper shape: one keyword bag per unbound attribute; numeric "
      "attributes appear as range buckets (the paper's '10k-15k:3' style); "
      "counts are answerset frequencies. Support = %zu Ford listings.\n",
      supertuple->support());

  // The bag counts must sum to the support for every fully-populated
  // attribute — the structural invariant behind bag-Jaccard similarity.
  bool consistent = true;
  for (size_t attr = 0; attr < data.schema().NumAttributes(); ++attr) {
    if (attr == CarDbGenerator::kMake) continue;
    if (supertuple->coded_bag(attr).TotalSize() != supertuple->support()) {
      consistent = false;
    }
  }
  std::printf("Bag totals equal the AV-pair support on every attribute: %s\n",
              consistent ? "yes (REPRODUCED)" : "NO");
  return consistent ? 0 : 1;
}
