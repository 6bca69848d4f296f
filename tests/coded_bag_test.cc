#include "util/coded_bag.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "oracles/bag.h"
#include "util/rng.h"

namespace aimq {
namespace {

TEST(CodedBagTest, CountsAndSizes) {
  CodedBag b;
  b.Add(3);
  b.Add(1);
  b.Add(3);
  b.Add(7, 2);
  b.Finalize();
  EXPECT_EQ(b.Count(3), 2u);
  EXPECT_EQ(b.Count(1), 1u);
  EXPECT_EQ(b.Count(7), 2u);
  EXPECT_EQ(b.Count(99), 0u);
  EXPECT_EQ(b.DistinctSize(), 3u);
  EXPECT_EQ(b.TotalSize(), 5u);
  EXPECT_FALSE(b.Empty());
  // entries() is sorted by id.
  ASSERT_EQ(b.entries().size(), 3u);
  EXPECT_EQ(b.entries()[0].first, 1u);
  EXPECT_EQ(b.entries()[1].first, 3u);
  EXPECT_EQ(b.entries()[2].first, 7u);
}

TEST(CodedBagTest, FinalizeIsIdempotent) {
  CodedBag b;
  b.Add(5);
  b.Finalize();
  b.Finalize();
  EXPECT_EQ(b.Count(5), 1u);
  b.Add(5);
  b.Finalize();
  EXPECT_EQ(b.Count(5), 2u);
}

TEST(CodedBagTest, EmptyBagsHaveZeroJaccard) {
  CodedBag a, b;
  EXPECT_EQ(a.JaccardSimilarity(b), 0.0);
  EXPECT_EQ(a.IntersectionSize(b), 0u);
  EXPECT_EQ(a.UnionSize(b), 0u);
}

TEST(CodedBagTest, MergeIntersectionMatchesMinSemantics) {
  CodedBag a, b;
  a.Add(1, 3);
  a.Add(2, 1);
  a.Add(4, 2);
  b.Add(1, 1);
  b.Add(3, 5);
  b.Add(4, 4);
  a.Finalize();
  b.Finalize();
  // min(3,1) + 0 + 0 + min(2,4) = 3
  EXPECT_EQ(a.IntersectionSize(b), 3u);
  // max-per-id union = |A| + |B| - |A∩B| = 6 + 10 - 3
  EXPECT_EQ(a.UnionSize(b), 13u);
  EXPECT_DOUBLE_EQ(a.JaccardSimilarity(b), 3.0 / 13.0);
  EXPECT_EQ(a.IntersectionSize(b), b.IntersectionSize(a));
  EXPECT_EQ(a.UnionSize(b), b.UnionSize(a));
}

// The invariant the supertuple refactor rests on: when ids are in bijection
// with keywords, CodedBag computes the exact integers Bag computes, and the
// final Jaccard double is the same single division — bit-identical.
TEST(CodedBagTest, MatchesStringBagOnRandomData) {
  Rng rng(2006);
  for (int trial = 0; trial < 50; ++trial) {
    Bag sa, sb;
    CodedBag ca, cb;
    const size_t vocab = 1 + rng.Uniform(20);
    const size_t adds_a = rng.Uniform(60);
    const size_t adds_b = rng.Uniform(60);
    for (size_t i = 0; i < adds_a; ++i) {
      uint32_t id = static_cast<uint32_t>(rng.Uniform(vocab));
      sa.Add("kw" + std::to_string(id));
      ca.Add(id);
    }
    for (size_t i = 0; i < adds_b; ++i) {
      uint32_t id = static_cast<uint32_t>(rng.Uniform(vocab));
      sb.Add("kw" + std::to_string(id));
      cb.Add(id);
    }
    ca.Finalize();
    cb.Finalize();
    ASSERT_EQ(ca.TotalSize(), sa.TotalSize());
    ASSERT_EQ(ca.DistinctSize(), sa.DistinctSize());
    ASSERT_EQ(ca.IntersectionSize(cb), sa.IntersectionSize(sb));
    ASSERT_EQ(ca.UnionSize(cb), sa.UnionSize(sb));
    // Same integer operands, same division: exact double equality.
    double coded = ca.JaccardSimilarity(cb);
    double strung = sa.JaccardSimilarity(sb);
    ASSERT_EQ(coded, strung) << "trial " << trial;
  }
}

}  // namespace
}  // namespace aimq
