#include "oracles/bag.h"

#include <gtest/gtest.h>

namespace aimq {
namespace {

TEST(BagTest, EmptyBag) {
  Bag b;
  EXPECT_TRUE(b.Empty());
  EXPECT_EQ(b.DistinctSize(), 0u);
  EXPECT_EQ(b.TotalSize(), 0u);
  EXPECT_EQ(b.Count("x"), 0u);
}

TEST(BagTest, AddAccumulatesCounts) {
  Bag b;
  b.Add("white");
  b.Add("white", 4);
  b.Add("black", 2);
  EXPECT_EQ(b.Count("white"), 5u);
  EXPECT_EQ(b.Count("black"), 2u);
  EXPECT_EQ(b.DistinctSize(), 2u);
  EXPECT_EQ(b.TotalSize(), 7u);
}

TEST(BagTest, AddZeroIsNoop) {
  Bag b;
  b.Add("x", 0);
  EXPECT_TRUE(b.Empty());
}

TEST(BagTest, IntersectionUsesMinCounts) {
  Bag a, b;
  a.Add("x", 3);
  a.Add("y", 1);
  b.Add("x", 2);
  b.Add("z", 5);
  EXPECT_EQ(a.IntersectionSize(b), 2u);
  EXPECT_EQ(b.IntersectionSize(a), 2u);
}

TEST(BagTest, UnionUsesMaxCounts) {
  Bag a, b;
  a.Add("x", 3);
  a.Add("y", 1);
  b.Add("x", 2);
  b.Add("z", 5);
  // max(3,2) + max(1,0) + max(0,5) = 3 + 1 + 5 = 9
  EXPECT_EQ(a.UnionSize(b), 9u);
  EXPECT_EQ(b.UnionSize(a), 9u);
}

TEST(BagTest, JaccardIdenticalBagsIsOne) {
  Bag a;
  a.Add("x", 3);
  a.Add("y", 2);
  EXPECT_DOUBLE_EQ(a.JaccardSimilarity(a), 1.0);
}

TEST(BagTest, JaccardDisjointBagsIsZero) {
  Bag a, b;
  a.Add("x", 3);
  b.Add("y", 3);
  EXPECT_DOUBLE_EQ(a.JaccardSimilarity(b), 0.0);
}

TEST(BagTest, JaccardBothEmptyIsZero) {
  Bag a, b;
  EXPECT_DOUBLE_EQ(a.JaccardSimilarity(b), 0.0);
}

TEST(BagTest, JaccardPartialOverlap) {
  Bag a, b;
  a.Add("x", 2);
  b.Add("x", 2);
  b.Add("y", 2);
  // inter = 2, union = 4.
  EXPECT_DOUBLE_EQ(a.JaccardSimilarity(b), 0.5);
}

TEST(BagTest, JaccardIsSymmetric) {
  Bag a, b;
  a.Add("x", 7);
  a.Add("y", 1);
  a.Add("z", 2);
  b.Add("x", 3);
  b.Add("w", 4);
  EXPECT_DOUBLE_EQ(a.JaccardSimilarity(b), b.JaccardSimilarity(a));
}

TEST(BagTest, SortedEntriesByCountThenKeyword) {
  Bag b;
  b.Add("beta", 5);
  b.Add("alpha", 5);
  b.Add("gamma", 9);
  auto entries = b.SortedEntries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].first, "gamma");
  EXPECT_EQ(entries[1].first, "alpha");  // tie at 5 → alphabetical
  EXPECT_EQ(entries[2].first, "beta");
}

}  // namespace
}  // namespace aimq
