// Theorem 1 (completeness of CrowdSky): with correct answers every tuple
// becomes complete and the crowdsourced skyline equals the ground truth.
// This property must hold for every algorithm variant, pruning level,
// distribution, dimensionality and |AC| — a broad parameterized sweep.
#include <gtest/gtest.h>

#include <tuple>

#include "algo/baseline_sort.h"
#include "algo/crowdsky_algorithm.h"
#include "crowd/oracle.h"
#include "data/generator.h"
#include "skyline/algorithms.h"

namespace crowdsky {
namespace {

enum class Variant { kSerial, kParallelDSet, kParallelSL, kBaseline, kBitonic };

const char* VariantName(Variant v) {
  switch (v) {
    case Variant::kSerial:
      return "Serial";
    case Variant::kParallelDSet:
      return "ParallelDSet";
    case Variant::kParallelSL:
      return "ParallelSL";
    case Variant::kBaseline:
      return "Baseline";
    case Variant::kBitonic:
      return "Bitonic";
  }
  return "?";
}

AlgoResult RunVariant(Variant v, const Dataset& ds, CrowdSession* session,
                      const CrowdSkyOptions& options) {
  switch (v) {
    case Variant::kSerial:
      return RunCrowdSky(ds, session, options);
    case Variant::kParallelDSet:
      return RunParallelDSet(ds, session, options);
    case Variant::kParallelSL:
      return RunParallelSL(ds, session, options);
    case Variant::kBaseline:
      return RunBaselineSort(ds, session);
    case Variant::kBitonic:
      return RunBitonicBaseline(ds, session);
  }
  return {};
}

using Param = std::tuple<Variant, DataDistribution, int /*n*/,
                         int /*num_known*/, int /*num_crowd*/>;

class CompletenessTest : public ::testing::TestWithParam<Param> {};

TEST_P(CompletenessTest, MatchesGroundTruthWithPerfectOracle) {
  const auto [variant, dist, n, dk, mc] = GetParam();
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    GeneratorOptions opt;
    opt.cardinality = n;
    opt.num_known = dk;
    opt.num_crowd = mc;
    opt.distribution = dist;
    opt.seed = seed;
    const Dataset ds = GenerateDataset(opt).ValueOrDie();
    PerfectOracle oracle(ds);
    CrowdSession session(&oracle);
    const AlgoResult r = RunVariant(variant, ds, &session, {});
    EXPECT_EQ(r.skyline, ComputeGroundTruthSkyline(ds))
        << VariantName(variant) << " seed " << seed;
    EXPECT_EQ(r.contradictions, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CompletenessTest,
    ::testing::Combine(
        ::testing::Values(Variant::kSerial, Variant::kParallelDSet,
                          Variant::kParallelSL, Variant::kBaseline,
                          Variant::kBitonic),
        ::testing::Values(DataDistribution::kIndependent,
                          DataDistribution::kAntiCorrelated),
        ::testing::Values(40, 150),
        ::testing::Values(2, 4),
        ::testing::Values(1, 2)),
    [](const auto& pinfo) {
      return std::string(VariantName(std::get<0>(pinfo.param))) + "_" +
             DataDistributionName(std::get<1>(pinfo.param)) + "_n" +
             std::to_string(std::get<2>(pinfo.param)) + "_k" +
             std::to_string(std::get<3>(pinfo.param)) + "_c" +
             std::to_string(std::get<4>(pinfo.param));
    });

class PruningLevelTest : public ::testing::TestWithParam<int> {};

TEST_P(PruningLevelTest, EveryPruningLevelIsCorrect) {
  PruningConfig configs[] = {PruningConfig::DSetExhaustive(),
                             PruningConfig::DSetOnly(), PruningConfig::P1(),
                             PruningConfig::P1P2(), PruningConfig::All()};
  const PruningConfig pruning = configs[GetParam()];
  for (const auto dist : {DataDistribution::kIndependent,
                          DataDistribution::kAntiCorrelated}) {
    GeneratorOptions opt;
    opt.cardinality = 120;
    opt.num_known = 3;
    opt.num_crowd = 1;
    opt.distribution = dist;
    opt.seed = 3;
    const Dataset ds = GenerateDataset(opt).ValueOrDie();
    PerfectOracle oracle(ds);
    CrowdSession session(&oracle);
    CrowdSkyOptions options;
    options.pruning = pruning;
    const AlgoResult r = RunCrowdSky(ds, &session, options);
    EXPECT_EQ(r.skyline, ComputeGroundTruthSkyline(ds));
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, PruningLevelTest, ::testing::Range(0, 5));

TEST(CompletenessEdgeCasesTest, SingleTuple) {
  auto ds = Dataset::Make(Schema::MakeSynthetic(2, 1), {{1, 2, 3}});
  ds.status().CheckOK();
  PerfectOracle oracle(*ds);
  CrowdSession session(&oracle);
  const AlgoResult r = RunCrowdSky(*ds, &session, {});
  EXPECT_EQ(r.skyline, std::vector<int>{0});
  EXPECT_EQ(r.questions, 0);
}

TEST(CompletenessEdgeCasesTest, TotalOrderChain) {
  // 0 dominates everything in AK and AC: single-question-free skyline of
  // size 1 after the chain collapses.
  auto ds = Dataset::Make(
      Schema::MakeSynthetic(2, 1),
      {{1, 1, 0.1}, {2, 2, 0.2}, {3, 3, 0.3}, {4, 4, 0.4}});
  ds.status().CheckOK();
  PerfectOracle oracle(*ds);
  CrowdSession session(&oracle);
  const AlgoResult r = RunCrowdSky(*ds, &session, {});
  EXPECT_EQ(r.skyline, std::vector<int>{0});
  EXPECT_EQ(r.skyline, ComputeGroundTruthSkyline(*ds));
}

TEST(CompletenessEdgeCasesTest, PureAntichainNeedsNoQuestions) {
  // Everything incomparable in AK: all tuples are complete skyline tuples
  // without any crowd involvement (sharing of incomparability).
  auto ds = Dataset::Make(
      Schema::MakeSynthetic(2, 1),
      {{1, 4, 0.4}, {2, 3, 0.3}, {3, 2, 0.2}, {4, 1, 0.1}});
  ds.status().CheckOK();
  PerfectOracle oracle(*ds);
  CrowdSession session(&oracle);
  const AlgoResult r = RunCrowdSky(*ds, &session, {});
  EXPECT_EQ(r.skyline, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(r.questions, 0);
  EXPECT_EQ(r.rounds, 0);
}

TEST(CompletenessEdgeCasesTest, DuplicateKnownRowsResolvedByCrowd) {
  // Lines 1-3 of Algorithm 1: equal AK rows, the crowd separates them.
  auto ds = Dataset::Make(Schema::MakeSynthetic(2, 1),
                          {{1, 1, 0.9}, {1, 1, 0.1}, {2, 2, 0.5}});
  ds.status().CheckOK();
  PerfectOracle oracle(*ds);
  CrowdSession session(&oracle);
  const AlgoResult r = RunCrowdSky(*ds, &session, {});
  // Tuple 1 beats its duplicate 0 in AC; tuple 2 is dominated by 1 in AK
  // and in AC, so the skyline is {1}.
  EXPECT_EQ(r.skyline, std::vector<int>{1});
  EXPECT_EQ(r.skyline, ComputeGroundTruthSkyline(*ds));
}

TEST(CompletenessEdgeCasesTest, IdenticalTuplesBothSkyline) {
  auto ds = Dataset::Make(Schema::MakeSynthetic(2, 1),
                          {{1, 1, 0.5}, {1, 1, 0.5}, {3, 3, 0.9}});
  ds.status().CheckOK();
  PerfectOracle oracle(*ds);
  CrowdSession session(&oracle);
  const AlgoResult r = RunCrowdSky(*ds, &session, {});
  EXPECT_EQ(r.skyline, (std::vector<int>{0, 1}));
  EXPECT_EQ(r.skyline, ComputeGroundTruthSkyline(*ds));
}

TEST(CompletenessEdgeCasesTest, AllIdenticalTuples) {
  auto ds = Dataset::Make(Schema::MakeSynthetic(2, 1),
                          {{1, 1, 0.5}, {1, 1, 0.5}, {1, 1, 0.5}});
  ds.status().CheckOK();
  PerfectOracle oracle(*ds);
  CrowdSession session(&oracle);
  const AlgoResult r = RunCrowdSky(*ds, &session, {});
  EXPECT_EQ(r.skyline, (std::vector<int>{0, 1, 2}));
}

TEST(CompletenessEdgeCasesTest, EqualCrowdValuesWithDominance) {
  // s dominates t in AK and ties in AC: s weakly precedes t, so t is a
  // non-skyline tuple (Definition 1 requires strictness only somewhere).
  auto ds = Dataset::Make(Schema::MakeSynthetic(2, 1),
                          {{1, 1, 0.5}, {2, 2, 0.5}});
  ds.status().CheckOK();
  PerfectOracle oracle(*ds);
  CrowdSession session(&oracle);
  const AlgoResult r = RunCrowdSky(*ds, &session, {});
  EXPECT_EQ(r.skyline, std::vector<int>{0});
  EXPECT_EQ(r.skyline, ComputeGroundTruthSkyline(*ds));
}

TEST(CompletenessEdgeCasesTest, MaxDirectionCrowdAttribute) {
  auto schema = Schema::Make({
      {"k1", Direction::kMin, AttributeKind::kKnown},
      {"c1", Direction::kMax, AttributeKind::kCrowd},
  });
  schema.status().CheckOK();
  auto ds = Dataset::Make(std::move(schema).ValueOrDie(),
                          {{1, 10}, {2, 20}, {3, 5}});
  ds.status().CheckOK();
  PerfectOracle oracle(*ds);
  CrowdSession session(&oracle);
  const AlgoResult r = RunCrowdSky(*ds, &session, {});
  // Tuple 1 (20) beats 0 (10) on the MAX crowd attr but loses in AK;
  // tuple 2 loses everywhere. Ground truth: {0, 1}.
  EXPECT_EQ(r.skyline, ComputeGroundTruthSkyline(*ds));
  EXPECT_EQ(r.skyline, (std::vector<int>{0, 1}));
}

TEST(CompletenessTest, ParallelVariantsAskNoFewerQuestionsThanSerial) {
  // ParallelDSet preserves question counts; ParallelSL may ask slightly
  // more (violated C2), around 10% in the paper.
  GeneratorOptions opt;
  opt.cardinality = 400;
  opt.num_known = 3;
  opt.num_crowd = 1;
  opt.seed = 21;
  for (const auto dist : {DataDistribution::kIndependent,
                          DataDistribution::kAntiCorrelated}) {
    opt.distribution = dist;
    const Dataset ds = GenerateDataset(opt).ValueOrDie();
    PerfectOracle o1(ds), o2(ds), o3(ds);
    CrowdSession s1(&o1), s2(&o2), s3(&o3);
    const AlgoResult serial = RunCrowdSky(ds, &s1, {});
    const AlgoResult pdset = RunParallelDSet(ds, &s2, {});
    const AlgoResult psl = RunParallelSL(ds, &s3, {});
    EXPECT_EQ(serial.skyline, pdset.skyline);
    EXPECT_EQ(serial.skyline, psl.skyline);
    // ParallelDSet preserves the serial question count up to within-batch
    // staleness (answers land between rounds, not between questions).
    EXPECT_NEAR(static_cast<double>(pdset.questions),
                static_cast<double>(serial.questions),
                0.02 * static_cast<double>(serial.questions) + 3);
    // ParallelSL trades ~10% extra questions for rounds (violated C2).
    EXPECT_GT(static_cast<double>(psl.questions),
              0.95 * static_cast<double>(serial.questions) - 3);
    EXPECT_LT(static_cast<double>(psl.questions),
              1.35 * static_cast<double>(serial.questions) + 10);
  }
}

}  // namespace
}  // namespace crowdsky
