//===- perfbench/tests/selftest.cpp - The benchmark's own tests -----------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <gtest/gtest.h>

using namespace perfbench;
using talft::Verdict;

/// The number of Figure 10 kernels serve-mix submits.
unsigned mixKernels() {
  unsigned N = 0;
  for (const CorpusProgram &C : corpus())
    N += C.Kind == "fig10";
  return N;
}

TEST(ServeMix, SameSeedSameKeySequence) {
  const unsigned K = mixKernels();
  std::vector<MixKey> A =
      serveMixSequence(7, K, ServeMixVariants, ServeMixRepeats);
  std::vector<MixKey> B =
      serveMixSequence(7, K, ServeMixVariants, ServeMixRepeats);
  ASSERT_EQ(A.size(), K * ServeMixVariants + ServeMixRepeats);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, serveMixSequence(8, K, ServeMixVariants, ServeMixRepeats));
}

TEST(ServeMix, EveryKeyAppearsAndTheDrawIsSkewed) {
  const unsigned K = mixKernels(), Keys = K * ServeMixVariants;
  std::vector<MixKey> Seq =
      serveMixSequence(3, K, ServeMixVariants, ServeMixRepeats);
  std::vector<unsigned> Count(Keys, 0);
  for (const MixKey &Key : Seq) {
    ASSERT_LT(Key.Kernel, K);
    ASSERT_LT(Key.Variant, ServeMixVariants);
    ++Count[Key.Kernel * ServeMixVariants + Key.Variant];
  }
  unsigned Max = 0;
  for (unsigned C : Count) {
    EXPECT_GE(C, 1u);
    Max = std::max(Max, C);
  }
  // Zipf(1) over 30 keys gives the top key about a quarter of the draws;
  // a uniform draw would give it about 1/30.
  EXPECT_GT(Max, ServeMixRepeats / 10);
}

TEST(Percentile, NearestRank) {
  std::vector<double> V = {5, 1, 4, 2, 3, 10, 9, 8, 7, 6};
  EXPECT_EQ(percentile(V, 50), 5);  // rank ceil(5) = 5
  EXPECT_EQ(percentile(V, 90), 9);  // rank ceil(9) = 9
  EXPECT_EQ(percentile(V, 99), 10); // rank ceil(9.9) = 10
  EXPECT_EQ(percentile(V, 0), 1);   // clamped to rank 1
  EXPECT_EQ(percentile(V, 100), 10);
  EXPECT_EQ(percentile({4, 2, 3}, 50), 3); // rank ceil(1.5) = 2
  EXPECT_EQ(percentile({}, 50), 0);
}

VerdictTable sampleTable() {
  VerdictTable T;
  T[Verdict::Masked] = 100;
  T[Verdict::Detected] = 40;
  T[Verdict::StaticallyMasked] = 7;
  T[Verdict::StaticallyDetected] = 3;
  return T;
}

TEST(Golden, FoldedTablesMatch) {
  GoldenTables G;
  G.put("k", "prog", foldTable(sampleTable()));
  EXPECT_EQ(G.compare("k", sampleTable()), "");
  // The unpruned twin of the same campaign folds to the same table.
  VerdictTable Unpruned;
  Unpruned[Verdict::Masked] = 107;
  Unpruned[Verdict::Detected] = 43;
  EXPECT_EQ(G.compare("k", Unpruned), "");
}

TEST(Golden, RejectsOneCountMovedBetweenVerdicts) {
  GoldenTables G;
  G.put("k", "prog", sampleTable());
  VerdictTable Moved = sampleTable();
  --Moved[Verdict::Masked];
  ++Moved[Verdict::Detected];
  EXPECT_EQ(Moved.total(), sampleTable().total());
  EXPECT_NE(G.compare("k", Moved), "");
}

TEST(Golden, RejectsUnknownKey) {
  GoldenTables G;
  G.put("k", "prog", sampleTable());
  EXPECT_NE(G.compare("other", sampleTable()), "");
}

TEST(Golden, KeyCoversVerdictOptions) {
  talft::TheoremConfig A, B;
  B.InjectionStride = 2;
  EXPECT_NE(goldenKey(1, A), goldenKey(1, B));
  B = A;
  B.Recovery.Enabled = true;
  EXPECT_NE(goldenKey(1, A), goldenKey(1, B));
  EXPECT_NE(goldenKey(1, A), goldenKey(2, A));
  EXPECT_EQ(goldenKey(1, A), goldenKey(1, talft::TheoremConfig{}));
}
