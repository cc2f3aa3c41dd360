#include "core/engine.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/crowdsky.h"

namespace crowdsky {
namespace {

Dataset Small(uint64_t seed = 1) {
  GeneratorOptions opt;
  opt.cardinality = 120;
  opt.num_known = 3;
  opt.num_crowd = 1;
  opt.seed = seed;
  return GenerateDataset(opt).ValueOrDie();
}

TEST(EngineTest, RejectsDatasetWithoutCrowdAttribute) {
  auto ds = Dataset::Make(Schema::MakeSynthetic(2, 0), {{1, 2}});
  ds.status().CheckOK();
  EXPECT_TRUE(RunSkylineQuery(*ds).status().IsInvalidArgument());
}

TEST(EngineTest, RejectsEmptyDataset) {
  auto ds = Dataset::Make(Schema::MakeSynthetic(2, 1), {});
  ds.status().CheckOK();
  EXPECT_TRUE(RunSkylineQuery(*ds).status().IsInvalidArgument());
}

TEST(EngineTest, RejectsEvenWorkerCount) {
  EngineOptions opt;
  opt.workers_per_question = 4;
  EXPECT_TRUE(RunSkylineQuery(Small(), opt).status().IsInvalidArgument());
}

TEST(EngineTest, RejectsDynamicVotingWithOneWorker) {
  EngineOptions opt;
  opt.workers_per_question = 1;
  opt.dynamic_voting = true;
  EXPECT_TRUE(RunSkylineQuery(Small(), opt).status().IsInvalidArgument());
}

TEST(EngineTest, RejectsZeroQuestionsPerHit) {
  EngineOptions opt;
  opt.cost_model.questions_per_hit = 0;
  EXPECT_TRUE(RunSkylineQuery(Small(), opt).status().IsInvalidArgument());
}

TEST(EngineTest, RejectsNanReward) {
  EngineOptions opt;
  opt.cost_model.reward_per_hit = std::nan("");
  EXPECT_TRUE(RunSkylineQuery(Small(), opt).status().IsInvalidArgument());
}

TEST(EngineTest, RejectsNegativeReward) {
  EngineOptions opt;
  opt.cost_model.reward_per_hit = -1.0;
  EXPECT_TRUE(RunSkylineQuery(Small(), opt).status().IsInvalidArgument());
}

TEST(EngineTest, PerfectOracleGivesPerfectAccuracy) {
  for (const Algorithm algo :
       {Algorithm::kBaselineSort, Algorithm::kBitonicSort,
        Algorithm::kCrowdSkySerial, Algorithm::kParallelDSet,
        Algorithm::kParallelSL, Algorithm::kUnary}) {
    EngineOptions opt;
    opt.algorithm = algo;
    opt.oracle = OracleKind::kPerfect;
    const auto r = RunSkylineQuery(Small(), opt);
    ASSERT_TRUE(r.ok()) << AlgorithmName(algo);
    EXPECT_DOUBLE_EQ(r->accuracy.precision, 1.0) << AlgorithmName(algo);
    EXPECT_DOUBLE_EQ(r->accuracy.recall, 1.0) << AlgorithmName(algo);
    EXPECT_GT(r->cost_usd, 0.0) << AlgorithmName(algo);
  }
}

TEST(EngineTest, SimulatedCrowdIsDefaultAndDeterministic) {
  EngineOptions opt;
  opt.algorithm = Algorithm::kParallelSL;
  opt.seed = 77;
  const auto a = RunSkylineQuery(Small(), opt);
  const auto b = RunSkylineQuery(Small(), opt);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->algo.skyline, b->algo.skyline);
  EXPECT_DOUBLE_EQ(a->cost_usd, b->cost_usd);
}

TEST(EngineTest, DynamicVotingRuns) {
  EngineOptions opt;
  opt.dynamic_voting = true;
  opt.worker.p_correct = 0.8;
  const auto r = RunSkylineQuery(Small(), opt);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->algo.worker_answers, r->algo.questions);
}

TEST(EngineTest, LabelsFollowSkyline) {
  const Dataset movies = MakeMoviesDataset();
  EngineOptions opt;
  opt.oracle = OracleKind::kPerfect;
  opt.algorithm = Algorithm::kCrowdSkySerial;
  const auto r = RunSkylineQuery(movies, opt);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->skyline_labels.size(), r->algo.skyline.size());
  for (size_t i = 0; i < r->algo.skyline.size(); ++i) {
    EXPECT_EQ(r->skyline_labels[i],
              movies.tuple(r->algo.skyline[i]).label);
  }
}

TEST(EngineTest, CostUsesConfiguredModel) {
  EngineOptions opt;
  opt.oracle = OracleKind::kPerfect;
  opt.algorithm = Algorithm::kCrowdSkySerial;
  const auto base = RunSkylineQuery(Small(), opt);
  ASSERT_TRUE(base.ok());
  opt.cost_model.reward_per_hit = 0.04;
  const auto pricier = RunSkylineQuery(Small(), opt);
  ASSERT_TRUE(pricier.ok());
  EXPECT_NEAR(pricier->cost_usd, 2.0 * base->cost_usd, 1e-9);
}

TEST(EngineTest, AlgorithmNames) {
  EXPECT_STREQ(AlgorithmName(Algorithm::kBaselineSort), "Baseline");
  EXPECT_STREQ(AlgorithmName(Algorithm::kCrowdSkySerial), "CrowdSky");
  EXPECT_STREQ(AlgorithmName(Algorithm::kParallelSL), "ParallelSL");
  EXPECT_STREQ(AlgorithmName(Algorithm::kUnary), "Unary");
}

TEST(EngineTest, UmbrellaHeaderCompiles) {
  // crowdsky.h is included above; touch a few symbols from each module.
  const Dataset toy = MakeToyDataset();
  EXPECT_EQ(toy.size(), 12);
  EXPECT_EQ(ComputeGroundTruthSkyline(toy).size(), 7u);
  AmtCostModel cost;
  EXPECT_DOUBLE_EQ(cost.Cost({5}), 0.1);  // one HIT, 5 workers, $0.02
}

}  // namespace
}  // namespace crowdsky
