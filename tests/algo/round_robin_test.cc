// The round-robin multi-attribute strategy (Section 6.1 mentions it as a
// possible refinement for |AC| > 1): ask one crowd-attribute question at a
// time and stop as soon as the pair's fate is decided.
#include <gtest/gtest.h>

#include "algo/crowdsky_algorithm.h"
#include "crowd/oracle.h"
#include "data/generator.h"
#include "skyline/algorithms.h"

namespace crowdsky {
namespace {

Dataset Make(int n, int num_crowd, uint64_t seed) {
  GeneratorOptions opt;
  opt.cardinality = n;
  opt.num_known = 3;
  opt.num_crowd = num_crowd;
  opt.seed = seed;
  return GenerateDataset(opt).ValueOrDie();
}

TEST(RoundRobinTest, SameSkylineAsAllAtOnce) {
  for (const int mc : {1, 2, 3}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      const Dataset ds = Make(120, mc, seed);
      PerfectOracle o1(ds), o2(ds);
      CrowdSession s1(&o1), s2(&o2);
      CrowdSkyOptions rr;
      rr.multi_attr = MultiAttributeStrategy::kRoundRobin;
      const AlgoResult a = RunCrowdSky(ds, &s1, {});
      const AlgoResult b = RunCrowdSky(ds, &s2, rr);
      EXPECT_EQ(a.skyline, b.skyline) << "mc=" << mc << " seed=" << seed;
      EXPECT_EQ(b.skyline, ComputeGroundTruthSkyline(ds));
    }
  }
}

TEST(RoundRobinTest, SavesQuestionsWithMultipleCrowdAttributes) {
  int64_t all_at_once = 0, round_robin = 0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const Dataset ds = Make(250, 3, seed);
    PerfectOracle o1(ds), o2(ds);
    CrowdSession s1(&o1), s2(&o2);
    CrowdSkyOptions rr;
    rr.multi_attr = MultiAttributeStrategy::kRoundRobin;
    all_at_once += RunCrowdSky(ds, &s1, {}).questions;
    round_robin += RunCrowdSky(ds, &s2, rr).questions;
  }
  // Once two tuples are incomparable within AC (or the dominator is
  // strictly beaten somewhere), the remaining attribute questions are
  // skipped. The net saving is modest — skipped answers also stop feeding
  // the preference tree, so later pairs get fewer free lookups — but it
  // must be a saving.
  EXPECT_LT(round_robin, all_at_once * 98 / 100);
}

TEST(RoundRobinTest, NoEffectWithSingleCrowdAttribute) {
  const Dataset ds = Make(150, 1, 5);
  PerfectOracle o1(ds), o2(ds);
  CrowdSession s1(&o1), s2(&o2);
  CrowdSkyOptions rr;
  rr.multi_attr = MultiAttributeStrategy::kRoundRobin;
  const AlgoResult a = RunCrowdSky(ds, &s1, {});
  const AlgoResult b = RunCrowdSky(ds, &s2, rr);
  EXPECT_EQ(a.questions, b.questions);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.skyline, b.skyline);
}

TEST(RoundRobinTest, CostsMoreRoundsInExchange) {
  const Dataset ds = Make(200, 3, 7);
  PerfectOracle o1(ds), o2(ds);
  CrowdSession s1(&o1), s2(&o2);
  CrowdSkyOptions rr;
  rr.multi_attr = MultiAttributeStrategy::kRoundRobin;
  const AlgoResult a = RunCrowdSky(ds, &s1, {});
  const AlgoResult b = RunCrowdSky(ds, &s2, rr);
  // All-at-once bundles a pair's m questions into one round; round-robin
  // spreads the asks it still needs over separate rounds.
  EXPECT_GE(b.rounds, a.rounds);
}

TEST(RoundRobinTest, WorksUnderParallelSL) {
  const Dataset ds = Make(150, 2, 9);
  PerfectOracle oracle(ds);
  CrowdSession session(&oracle);
  CrowdSkyOptions rr;
  rr.multi_attr = MultiAttributeStrategy::kRoundRobin;
  const AlgoResult r = RunParallelSL(ds, &session, rr);
  EXPECT_EQ(r.skyline, ComputeGroundTruthSkyline(ds));
}

TEST(RoundRobinTest, WorksUnderNoise) {
  const Dataset ds = Make(150, 2, 11);
  WorkerModel worker;
  worker.p_correct = 0.8;
  SimulatedCrowd crowd(ds, worker, VotingPolicy::MakeStatic(5), 13);
  CrowdSession session(&crowd);
  CrowdSkyOptions rr;
  rr.multi_attr = MultiAttributeStrategy::kRoundRobin;
  const AlgoResult r = RunCrowdSky(ds, &session, rr);
  EXPECT_FALSE(r.skyline.empty());
  EXPECT_TRUE(std::is_sorted(r.skyline.begin(), r.skyline.end()));
}

TEST(RoundRobinTest, WorksWithBudget) {
  const Dataset ds = Make(150, 2, 13);
  PerfectOracle oracle(ds);
  CrowdSession session(&oracle);
  session.SetQuestionBudget(25);
  CrowdSkyOptions rr;
  rr.multi_attr = MultiAttributeStrategy::kRoundRobin;
  const AlgoResult r = RunCrowdSky(ds, &session, rr);
  EXPECT_LE(r.questions, 25);
}

}  // namespace
}  // namespace crowdsky
