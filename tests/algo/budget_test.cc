// Budget-constrained execution: the fixed-budget setting of [12] on top of
// CrowdSky. With the budget exhausted, undecided tuples stay in the
// skyline (tuples are in the skyline by default, Section 2.3) and are
// reported as incomplete.
#include <gtest/gtest.h>

#include "algo/crowdsky_algorithm.h"
#include "algo/metrics.h"
#include "core/engine.h"
#include "crowd/oracle.h"
#include "data/generator.h"
#include "skyline/algorithms.h"

namespace crowdsky {
namespace {

Dataset Make(int n, uint64_t seed = 1) {
  GeneratorOptions opt;
  opt.cardinality = n;
  opt.num_known = 3;
  opt.num_crowd = 1;
  opt.seed = seed;
  return GenerateDataset(opt).ValueOrDie();
}

TEST(BudgetTest, ZeroBudgetKeepsEveryUndecidedTuple) {
  const Dataset ds = Make(80);
  PerfectOracle oracle(ds);
  CrowdSession session(&oracle);
  session.SetQuestionBudget(0);
  const AlgoResult r = RunCrowdSky(ds, &session, {});
  EXPECT_EQ(r.questions, 0);
  // Nothing could be decided beyond machine-side knowledge: the result is
  // every tuple except... none; all non-AK-skyline tuples stay undecided.
  EXPECT_EQ(static_cast<int>(r.skyline.size()), ds.size());
  EXPECT_GT(r.incomplete_tuples, 0);
}

TEST(BudgetTest, BudgetIsRespectedExactly) {
  const Dataset ds = Make(150);
  for (const int64_t budget : {1, 5, 25, 100}) {
    PerfectOracle oracle(ds);
    CrowdSession session(&oracle);
    session.SetQuestionBudget(budget);
    const AlgoResult r = RunCrowdSky(ds, &session, {});
    EXPECT_LE(r.questions, budget) << budget;
  }
}

TEST(BudgetTest, LargeBudgetBehavesLikeUnlimited) {
  const Dataset ds = Make(120);
  PerfectOracle o1(ds), o2(ds);
  CrowdSession unlimited(&o1);
  const AlgoResult full = RunCrowdSky(ds, &unlimited, {});
  CrowdSession capped(&o2);
  capped.SetQuestionBudget(full.questions + 10);
  const AlgoResult r = RunCrowdSky(ds, &capped, {});
  EXPECT_EQ(r.skyline, full.skyline);
  EXPECT_EQ(r.incomplete_tuples, 0);
}

TEST(BudgetTest, AccuracyImprovesMonotonicallyWithBudget) {
  const Dataset ds = Make(200, 5);
  double prev_f1 = -1.0;
  // Precision improves as more non-skyline tuples get eliminated;
  // recall stays 1 under a perfect oracle (true skyline tuples are never
  // wrongly eliminated).
  for (const int64_t budget : {10, 50, 200, 1000}) {
    PerfectOracle oracle(ds);
    CrowdSession session(&oracle);
    session.SetQuestionBudget(budget);
    const AlgoResult r = RunCrowdSky(ds, &session, {});
    const AccuracyMetrics m = EvaluateNewSkylineAccuracy(ds, r.skyline);
    EXPECT_DOUBLE_EQ(m.recall, 1.0) << budget;
    EXPECT_GE(m.f1 + 1e-9, prev_f1) << budget;
    prev_f1 = m.f1;
  }
}

TEST(BudgetTest, SkylineIsSupersetOfTruthUnderPerfectOracle) {
  const Dataset ds = Make(150, 9);
  PerfectOracle oracle(ds);
  CrowdSession session(&oracle);
  session.SetQuestionBudget(40);
  const AlgoResult r = RunCrowdSky(ds, &session, {});
  const std::vector<int> truth = ComputeGroundTruthSkyline(ds);
  // Every true skyline tuple must be present (no false eliminations).
  for (const int t : truth) {
    EXPECT_TRUE(std::binary_search(r.skyline.begin(), r.skyline.end(), t))
        << t;
  }
}

TEST(BudgetTest, ParallelVariantsHonorBudgets) {
  const Dataset ds = Make(150, 3);
  {
    PerfectOracle oracle(ds);
    CrowdSession session(&oracle);
    session.SetQuestionBudget(30);
    const AlgoResult r = RunParallelDSet(ds, &session, {});
    EXPECT_LE(r.questions, 30);
    EXPECT_GT(r.incomplete_tuples, 0);
  }
  {
    PerfectOracle oracle(ds);
    CrowdSession session(&oracle);
    session.SetQuestionBudget(30);
    const AlgoResult r = RunParallelSL(ds, &session, {});
    EXPECT_LE(r.questions, 30);
    EXPECT_GT(r.incomplete_tuples, 0);
  }
}

TEST(BudgetTest, EngineExposesBudget) {
  const Dataset ds = Make(150, 7);
  EngineOptions opt;
  opt.algorithm = Algorithm::kCrowdSkySerial;
  opt.oracle = OracleKind::kPerfect;
  opt.max_questions = 20;
  const auto r = RunSkylineQuery(ds, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->algo.questions, 20);
  EXPECT_GT(r->algo.incomplete_tuples, 0);
}

TEST(BudgetTest, EngineRejectsBudgetForSortBaselines) {
  const Dataset ds = Make(50);
  EngineOptions opt;
  opt.algorithm = Algorithm::kBaselineSort;
  opt.max_questions = 20;
  EXPECT_TRUE(RunSkylineQuery(ds, opt).status().IsInvalidArgument());
  opt.algorithm = Algorithm::kUnary;
  EXPECT_TRUE(RunSkylineQuery(ds, opt).status().IsInvalidArgument());
}

// --- Budget-abort boundary regressions (evaluator.cc) -------------------
//
// The evaluator checks CanAsk() per *attribute*, not per pair, so the
// budget can run dry mid-pair. These pin the exact boundary behaviors:
// the abort on the last attribute of a pair, the off-by-one cases around
// an exactly-sufficient budget, and the unary path sharing one ledger
// with pairwise questions.

TEST(BudgetTest, MidPairAbortOnLastAttribute) {
  // Two crowd attributes: a budget of 1 pays for a pair's first attribute
  // and must abort before its last one, leaving the pair half-resolved.
  GeneratorOptions opt;
  opt.cardinality = 60;
  opt.num_known = 2;
  opt.num_crowd = 2;
  opt.seed = 11;
  const Dataset ds = GenerateDataset(opt).ValueOrDie();
  PerfectOracle oracle(ds);
  CrowdSession session(&oracle);
  session.SetQuestionBudget(1);
  const AlgoResult r = RunCrowdSky(ds, &session, {});
  EXPECT_EQ(r.questions, 1);  // the abort came after the paid attribute
  EXPECT_GT(r.incomplete_tuples, 0);
  const std::vector<int> truth = ComputeGroundTruthSkyline(ds);
  for (const int t : truth) {
    EXPECT_TRUE(std::binary_search(r.skyline.begin(), r.skyline.end(), t))
        << t;
  }
}

TEST(BudgetTest, ExactBudgetMatchesUnlimited) {
  // Boundary "exactly 0 remaining at the natural end": a budget equal to
  // the unlimited run's spend must not perturb anything — serial CrowdSky
  // is deterministic, so the capped run asks the identical prefix.
  const Dataset ds = Make(120, 13);
  PerfectOracle o1(ds), o2(ds);
  CrowdSession unlimited(&o1);
  const AlgoResult full = RunCrowdSky(ds, &unlimited, {});
  ASSERT_GT(full.questions, 1);
  CrowdSession exact(&o2);
  exact.SetQuestionBudget(full.questions);
  const AlgoResult r = RunCrowdSky(ds, &exact, {});
  EXPECT_EQ(r.questions, full.questions);
  EXPECT_EQ(r.skyline, full.skyline);
  EXPECT_EQ(r.incomplete_tuples, 0);
}

TEST(BudgetTest, OneQuestionShortSpendsWholeBudget) {
  // Boundary "exactly 1 remaining": one question short of completion, the
  // run spends its entire budget (the denied ask is the final one) and
  // whatever that last question would have decided stays undetermined.
  const Dataset ds = Make(120, 13);
  PerfectOracle o1(ds), o2(ds);
  CrowdSession unlimited(&o1);
  const AlgoResult full = RunCrowdSky(ds, &unlimited, {});
  ASSERT_GT(full.questions, 1);
  CrowdSession short_one(&o2);
  short_one.SetQuestionBudget(full.questions - 1);
  const AlgoResult r = RunCrowdSky(ds, &short_one, {});
  EXPECT_EQ(r.questions, full.questions - 1);
  EXPECT_GT(r.incomplete_tuples, 0);
  const std::vector<int> truth = ComputeGroundTruthSkyline(ds);
  for (const int t : truth) {
    EXPECT_TRUE(std::binary_search(r.skyline.begin(), r.skyline.end(), t))
        << t;
  }
}

TEST(BudgetTest, UnaryAsksShareThePairwiseBudget) {
  // One ledger for both question kinds: unary asks consume the same
  // budget the evaluator's pairwise gate checks.
  const Dataset ds = Make(40, 17);
  PerfectOracle oracle(ds);
  CrowdSession session(&oracle);
  session.SetQuestionBudget(3);
  session.AskUnary(0, 0);
  session.AskUnary(1, 0);
  EXPECT_TRUE(session.CanAsk());  // exactly 1 remaining
  session.AskUnary(2, 0);
  EXPECT_FALSE(session.CanAsk());  // exactly 0 remaining
  EXPECT_EQ(session.stats().unary_questions, 3);
}

TEST(BudgetDeathTest, UnaryAskPastBudgetDies) {
  // Asking past the budget is a caller bug, not a soft failure: the
  // entry CHECK must fire rather than silently over-spend.
  const Dataset ds = Make(40, 17);
  PerfectOracle oracle(ds);
  CrowdSession session(&oracle);
  session.SetQuestionBudget(1);
  session.AskUnary(0, 0);
  EXPECT_DEATH(session.AskUnary(1, 0), "question budget exhausted");
}

TEST(BudgetTest, BudgetWithDuplicatesInPrePass) {
  auto ds = Dataset::Make(
      Schema::MakeSynthetic(2, 1),
      {{1, 1, 0.9}, {1, 1, 0.1}, {2, 2, 0.5}, {3, 3, 0.7}});
  ds.status().CheckOK();
  PerfectOracle oracle(*ds);
  CrowdSession session(&oracle);
  session.SetQuestionBudget(1);
  const AlgoResult r = RunCrowdSky(*ds, &session, {});
  EXPECT_LE(r.questions, 1);
  EXPECT_FALSE(r.skyline.empty());
}

}  // namespace
}  // namespace crowdsky
