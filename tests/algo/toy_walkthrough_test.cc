// Reproduces the paper's worked example end-to-end on the Figure 1 toy
// dataset: Example 3 (26 questions with dominating sets only), Example 6
// (12 questions with full pruning), Example 7 (ParallelDSet: 12 questions
// in 9 rounds) and Example 8 / Table 3 (ParallelSL: 12 questions in 6
// rounds).
#include <gtest/gtest.h>

#include "algo/baseline_sort.h"
#include "algo/crowdsky_algorithm.h"
#include "crowd/oracle.h"
#include "data/toy.h"
#include "skyline/algorithms.h"

namespace crowdsky {
namespace {

std::vector<int> PaperSkyline() {
  std::vector<int> sky;
  for (const char c : {'b', 'e', 'f', 'h', 'i', 'k', 'l'}) {
    sky.push_back(ToyId(c));
  }
  std::sort(sky.begin(), sky.end());
  return sky;
}

class ToyWalkthroughTest : public ::testing::Test {
 protected:
  ToyWalkthroughTest() : toy_(MakeToyDataset()), oracle_(toy_) {}

  AlgoResult Run(AlgoResult (*fn)(const Dataset&, CrowdSession*,
                                  const CrowdSkyOptions&),
                 PruningConfig pruning) {
    oracle_.ResetStats();
    CrowdSession session(&oracle_);
    CrowdSkyOptions options;
    options.pruning = pruning;
    return fn(toy_, &session, options);
  }

  Dataset toy_;
  PerfectOracle oracle_;
};

TEST_F(ToyWalkthroughTest, Example3ExhaustiveDSetAsks26Questions) {
  const AlgoResult r = Run(&RunCrowdSky, PruningConfig::DSetExhaustive());
  EXPECT_EQ(r.skyline, PaperSkyline());
  EXPECT_EQ(r.questions, 26);  // sum of |DS(t)| from Table 1
}

TEST_F(ToyWalkthroughTest, DSetWithCompletionBreakAsksFewer) {
  const AlgoResult r = Run(&RunCrowdSky, PruningConfig::DSetOnly());
  EXPECT_EQ(r.skyline, PaperSkyline());
  EXPECT_LT(r.questions, 26);
  EXPECT_GE(r.questions, 12);
}

TEST_F(ToyWalkthroughTest, Example4P1PrunesBelow18) {
  // The paper counts 18 questions with P1 and no early break; with the
  // early break of Algorithm 1 line 24 the count is lower still.
  const AlgoResult r = Run(&RunCrowdSky, PruningConfig::P1());
  EXPECT_EQ(r.skyline, PaperSkyline());
  EXPECT_LE(r.questions, 18);
  EXPECT_GE(r.questions, 12);
}

TEST_F(ToyWalkthroughTest, Example6FullPruningAsks12Questions) {
  const AlgoResult r = Run(&RunCrowdSky, PruningConfig::All());
  EXPECT_EQ(r.skyline, PaperSkyline());
  EXPECT_EQ(r.questions, 12);
  EXPECT_EQ(r.rounds, 12);  // Serial: one question per round
}

TEST_F(ToyWalkthroughTest, PruningLevelsAreMonotone) {
  const int64_t exhaustive =
      Run(&RunCrowdSky, PruningConfig::DSetExhaustive()).questions;
  const int64_t dset = Run(&RunCrowdSky, PruningConfig::DSetOnly()).questions;
  EXPECT_LE(dset, exhaustive);
  const int64_t p1 = Run(&RunCrowdSky, PruningConfig::P1()).questions;
  const int64_t p12 = Run(&RunCrowdSky, PruningConfig::P1P2()).questions;
  const int64_t all = Run(&RunCrowdSky, PruningConfig::All()).questions;
  EXPECT_LE(p1, dset);
  EXPECT_LE(p12, p1);
  EXPECT_LE(all, p12 + 2);  // probing may trade probe questions for Q(t) ones
  EXPECT_EQ(all, 12);
}

TEST_F(ToyWalkthroughTest, Example7ParallelDSetTwelveQuestionsNineRounds) {
  const AlgoResult r = Run(&RunParallelDSet, PruningConfig::All());
  EXPECT_EQ(r.skyline, PaperSkyline());
  EXPECT_EQ(r.questions, 12);
  EXPECT_EQ(r.rounds, 9);
}

TEST_F(ToyWalkthroughTest, Example8ParallelSLTwelveQuestionsSixRounds) {
  const AlgoResult r = Run(&RunParallelSL, PruningConfig::All());
  EXPECT_EQ(r.skyline, PaperSkyline());
  EXPECT_EQ(r.questions, 12);
  EXPECT_EQ(r.rounds, 6);
}

TEST_F(ToyWalkthroughTest, Table3RoundStructure) {
  oracle_.ResetStats();
  CrowdSession session(&oracle_);
  const AlgoResult r = RunParallelSL(toy_, &session, {});
  // Round-by-round question counts from Table 3:
  // r1: (a,b), (g,e), (b,e), (i,l); r2: (d,e), (k,i), (c,e);
  // r3: (f,e), (e,i); r4: (h,e); r5: (f,h); r6: (j,f).
  const std::vector<int64_t> expected = {4, 3, 2, 1, 1, 1};
  EXPECT_EQ(r.questions_per_round, expected);
}

TEST_F(ToyWalkthroughTest, BaselineSortFindsSameSkylineWithMoreQuestions) {
  oracle_.ResetStats();
  CrowdSession session(&oracle_);
  const BaselineResult r = RunBaselineSort(toy_, &session);
  EXPECT_EQ(r.skyline, PaperSkyline());
  EXPECT_GT(r.questions, 12);
  // Tournament sort of 12 items: at most n log2(n-ish) comparisons.
  EXPECT_LE(r.questions, 66);  // all pairs upper bound
  // The crowd-derived order must equal the hidden total order on A3:
  // f h k e i b l j a c d g.
  const std::vector<int> expected_order = {
      ToyId('f'), ToyId('h'), ToyId('k'), ToyId('e'), ToyId('i'),
      ToyId('b'), ToyId('l'), ToyId('j'), ToyId('a'), ToyId('c'),
      ToyId('d'), ToyId('g')};
  ASSERT_EQ(r.orders.size(), 1u);
  EXPECT_EQ(r.orders[0], expected_order);
}

TEST_F(ToyWalkthroughTest, AntiCorrelatedToyProbingSavesQuestions) {
  // Section 3.4's motivating example on the Figure 3 dataset: the naive
  // dominating-set method needs 24 questions (4 x 6); probing needs 9
  // (3 probes among {b,e,i,j} + one question per remaining tuple).
  const Dataset ant = MakeAntiCorrelatedToyDataset();
  PerfectOracle oracle(ant);
  CrowdSession with_probe(&oracle);
  const AlgoResult probed = RunCrowdSky(ant, &with_probe, {});

  PerfectOracle oracle2(ant);
  CrowdSession exhaustive_session(&oracle2);
  CrowdSkyOptions exhaustive;
  exhaustive.pruning = PruningConfig::DSetExhaustive();
  const AlgoResult naive =
      RunCrowdSky(ant, &exhaustive_session, exhaustive);

  EXPECT_EQ(naive.questions, 24);  // 4 dominators x 6 dominated tuples
  EXPECT_EQ(probed.questions, 9);  // the paper's count
  EXPECT_EQ(probed.skyline, naive.skyline);
  EXPECT_EQ(probed.skyline, ComputeGroundTruthSkyline(ant));
}

TEST_F(ToyWalkthroughTest, TransitivityAnswersQuestionsForFree) {
  // Without cross-tuple pruning, several Q(t) questions are already
  // implied by earlier answers; the preference tree answers them for free.
  PruningConfig with_tree = PruningConfig::DSetOnly();
  with_tree.use_transitivity = true;
  const AlgoResult with_trans = Run(&RunCrowdSky, with_tree);
  EXPECT_GT(with_trans.free_lookups, 0);
  const AlgoResult without_trans =
      Run(&RunCrowdSky, PruningConfig::DSetOnly());
  EXPECT_GT(without_trans.questions, with_trans.questions);
  EXPECT_EQ(without_trans.skyline, with_trans.skyline);
}

}  // namespace
}  // namespace crowdsky
