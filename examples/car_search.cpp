// car_search: a deeper tour of AIMQ over the used-car database —
// several imprecise queries, a look inside the mined knowledge (AFDs,
// approximate keys, attribute ordering, supertuples, similarity graph), and
// probe accounting against the autonomous source.
//
//   $ ./build/examples/car_search [num_tuples] [sample_size]

#include <cstdio>
#include <cstdlib>

#include "core/engine.h"
#include "core/knowledge.h"
#include "datagen/cardb.h"
#include "similarity/similarity_graph.h"
#include "similarity/supertuple.h"
#include "util/strings.h"

using namespace aimq;

namespace {

void PrintAnswers(const char* title,
                  const std::vector<RankedAnswer>& answers) {
  std::printf("\n%s\n", title);
  std::printf("  %-4s %-10s %-14s %-6s %-8s %-9s %-12s %-8s %s\n", "#",
              "Make", "Model", "Year", "Price", "Mileage", "Location",
              "Color", "Sim");
  int rank = 1;
  for (const RankedAnswer& a : answers) {
    const Tuple& t = a.tuple;
    std::printf("  %-4d %-10s %-14s %-6s %-8s %-9s %-12s %-8s %.3f\n",
                rank++, t.At(0).ToString().c_str(),
                t.At(1).ToString().c_str(), t.At(2).ToString().c_str(),
                t.At(3).ToString().c_str(), t.At(4).ToString().c_str(),
                t.At(5).ToString().c_str(), t.At(6).ToString().c_str(),
                a.similarity);
  }
}

}  // namespace

int main(int argc, char** argv) {
  CarDbSpec spec;
  spec.num_tuples = argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 50000;
  CarDbGenerator generator(spec);
  WebDatabase cardb("CarDB", generator.Generate());

  AimqOptions options;
  options.collector.sample_size =
      argc > 2 ? static_cast<size_t>(std::atoll(argv[2])) : 20000;
  options.tsim = 0.5;
  options.top_k = 8;

  std::printf("CarDB: %zu listings. Probing a %zu-tuple sample...\n",
              cardb.NumTuples(), options.collector.sample_size);
  auto knowledge = BuildKnowledge(cardb, options);
  if (!knowledge.ok()) {
    std::fprintf(stderr, "offline learning failed: %s\n",
                 knowledge.status().ToString().c_str());
    return 1;
  }

  // --- What the Dependency Miner learned -----------------------------------
  const MinedDependencies& deps = knowledge->dependencies;
  std::printf("\nMined %zu AFDs and %zu approximate keys. Strongest AFDs:\n",
              deps.afds.size(), deps.keys.size());
  int shown = 0;
  for (const Afd& afd : deps.afds) {
    if (afd.Support() > 0.9 && shown++ < 5) {
      std::printf("  %s\n", afd.ToString(cardb.schema()).c_str());
    }
  }
  std::printf("\n%s\n", knowledge->ordering.ToString(cardb.schema()).c_str());

  // --- What the Similarity Miner learned ------------------------------------
  SuperTupleBuilder builder(knowledge->sample, options.similarity.supertuple);
  auto st = builder.Build(AVPair(CarDbGenerator::kMake, Value::Cat("Ford")));
  if (st.ok()) {
    std::printf("Supertuple for Make=Ford (paper Table 1 analogue):\n%s\n",
                st->ToString(cardb.schema(), 4).c_str());
  }
  SimilarityGraph graph =
      SimilarityGraph::Extract(knowledge->vsim, CarDbGenerator::kMake, 0.30);
  std::printf("Make similarity graph (VSim >= 0.30): %zu edges\n",
              graph.edges().size());
  for (const SimilarityEdge& e : graph.edges()) {
    std::printf("  %-10s -- %-10s %.3f\n", e.a.ToString().c_str(),
                e.b.ToString().c_str(), e.similarity);
  }

  // --- Queries ---------------------------------------------------------------
  AimqEngine engine(&cardb, knowledge.TakeValue(), options);
  cardb.ResetStats();

  struct Scenario {
    const char* title;
    ImpreciseQuery query;
  };
  std::vector<Scenario> scenarios;
  {
    ImpreciseQuery q;
    q.Bind("Model", Value::Cat("Accord"));
    scenarios.push_back({"Q1: CarDB(Model like Accord)", q});
  }
  {
    ImpreciseQuery q;
    q.Bind("Make", Value::Cat("Kia"));
    q.Bind("Price", Value::Num(7000));
    scenarios.push_back({"Q2: CarDB(Make like Kia, Price like 7000)", q});
  }
  {
    ImpreciseQuery q;
    q.Bind("Model", Value::Cat("F-150"));
    q.Bind("Year", Value::Cat("1999"));
    q.Bind("Mileage", Value::Num(80000));
    scenarios.push_back(
        {"Q3: CarDB(Model like F-150, Year like 1999, Mileage like 80000)",
         q});
  }

  for (Scenario& s : scenarios) {
    RelaxationStats stats;
    auto answers = engine.Answer(s.query, RelaxationStrategy::kGuided, &stats);
    if (!answers.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", s.title,
                   answers.status().ToString().c_str());
      continue;
    }
    PrintAnswers(s.title, *answers);
    std::printf("  (issued %llu probe queries, extracted %llu tuples)\n",
                static_cast<unsigned long long>(stats.queries_issued),
                static_cast<unsigned long long>(stats.tuples_extracted));
  }

  std::printf("\nTotal source probes this session: %llu queries, %llu tuples "
              "shipped\n",
              static_cast<unsigned long long>(cardb.stats().queries_issued),
              static_cast<unsigned long long>(cardb.stats().tuples_returned));
  return 0;
}
