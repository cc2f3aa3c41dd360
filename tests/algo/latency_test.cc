// Latency (round count) properties of Section 4 / Figures 8-9.
#include <gtest/gtest.h>

#include "algo/baseline_sort.h"
#include "algo/crowdsky_algorithm.h"
#include "crowd/oracle.h"
#include "data/generator.h"

namespace crowdsky {
namespace {

struct Rounds {
  int64_t baseline;
  int64_t serial;
  int64_t pdset;
  int64_t psl;
};

Rounds MeasureRounds(const Dataset& ds) {
  Rounds r{};
  {
    PerfectOracle o(ds);
    CrowdSession s(&o);
    r.baseline = RunBaselineSort(ds, &s).rounds;
  }
  {
    PerfectOracle o(ds);
    CrowdSession s(&o);
    r.serial = RunCrowdSky(ds, &s, {}).rounds;
  }
  {
    PerfectOracle o(ds);
    CrowdSession s(&o);
    r.pdset = RunParallelDSet(ds, &s, {}).rounds;
  }
  {
    PerfectOracle o(ds);
    CrowdSession s(&o);
    r.psl = RunParallelSL(ds, &s, {}).rounds;
  }
  return r;
}

Dataset Make(DataDistribution dist, int n, uint64_t seed) {
  GeneratorOptions opt;
  opt.cardinality = n;
  opt.num_known = 4;
  opt.num_crowd = 1;
  opt.distribution = dist;
  opt.seed = seed;
  return GenerateDataset(opt).ValueOrDie();
}

TEST(LatencyTest, Figure8OrderingHolds) {
  for (const auto dist : {DataDistribution::kIndependent,
                          DataDistribution::kAntiCorrelated}) {
    const Dataset ds = Make(dist, 500, 3);
    const Rounds r = MeasureRounds(ds);
    // Baseline > Serial > ParallelDSet > ParallelSL.
    EXPECT_GT(r.baseline, r.serial) << DataDistributionName(dist);
    EXPECT_GT(r.serial, r.pdset) << DataDistributionName(dist);
    EXPECT_GT(r.pdset, r.psl) << DataDistributionName(dist);
  }
}

TEST(LatencyTest, ParallelSLRoundsStayTiny) {
  // The paper reports ~20-30 rounds regardless of cardinality.
  for (const int n : {300, 900}) {
    const Dataset ds = Make(DataDistribution::kIndependent, n, 5);
    PerfectOracle o(ds);
    CrowdSession s(&o);
    const AlgoResult r = RunParallelSL(ds, &s, {});
    EXPECT_LE(r.rounds, 60) << n;
    EXPECT_GE(r.rounds, 1) << n;
  }
}

TEST(LatencyTest, ParallelSLRoundsGrowSlowlyWithCardinality) {
  const Dataset small = Make(DataDistribution::kIndependent, 200, 7);
  const Dataset large = Make(DataDistribution::kIndependent, 1200, 7);
  PerfectOracle o1(small), o2(large);
  CrowdSession s1(&o1), s2(&o2);
  const int64_t r_small = RunParallelSL(small, &s1, {}).rounds;
  const int64_t r_large = RunParallelSL(large, &s2, {}).rounds;
  // 6x the data should cost far less than 6x the rounds.
  EXPECT_LT(r_large, 3 * r_small + 20);
}

TEST(LatencyTest, SerialRoundsEqualQuestions) {
  const Dataset ds = Make(DataDistribution::kIndependent, 250, 9);
  PerfectOracle o(ds);
  CrowdSession s(&o);
  const AlgoResult r = RunCrowdSky(ds, &s, {});
  EXPECT_EQ(r.rounds, r.questions);
}

TEST(LatencyTest, RoundsDecreaseWithMoreKnownAttributes) {
  // Figure 9: the degree of parallelization grows with |AK| for the
  // parallel variants.
  GeneratorOptions opt;
  opt.cardinality = 600;
  opt.num_crowd = 1;
  opt.seed = 11;
  opt.num_known = 2;
  const Dataset d2 = GenerateDataset(opt).ValueOrDie();
  opt.num_known = 5;
  const Dataset d5 = GenerateDataset(opt).ValueOrDie();
  PerfectOracle o1(d2), o2(d5);
  CrowdSession s1(&o1), s2(&o2);
  const int64_t r2 = RunParallelSL(d2, &s1, {}).rounds;
  const int64_t r5 = RunParallelSL(d5, &s2, {}).rounds;
  EXPECT_LT(r5, r2 + 15);
}

TEST(LatencyTest, QuestionsPerRoundSumsToQuestions) {
  const Dataset ds = Make(DataDistribution::kAntiCorrelated, 300, 13);
  using Runner = AlgoResult (*)(const Dataset&, CrowdSession*);
  const Runner runners[] = {
      [](const Dataset& d, CrowdSession* s) {
        return RunParallelSL(d, s, {});
      },
      [](const Dataset& d, CrowdSession* s) {
        return RunParallelDSet(d, s, {});
      }};
  for (const Runner runner : runners) {
    PerfectOracle o(ds);
    CrowdSession s(&o);
    const AlgoResult r = runner(ds, &s);
    int64_t total = 0;
    for (const int64_t q : r.questions_per_round) total += q;
    EXPECT_EQ(total, r.questions);
    EXPECT_EQ(static_cast<int64_t>(r.questions_per_round.size()), r.rounds);
  }
}

}  // namespace
}  // namespace crowdsky
