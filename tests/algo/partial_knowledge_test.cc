// Partially-missing crowd data (Example 1): when some tuples' crowd
// values are machine-known, their pairwise preferences are seeded into
// the preference tree and only pairs involving missing values are
// crowdsourced.
#include <gtest/gtest.h>

#include "algo/crowdsky_algorithm.h"
#include "crowd/oracle.h"
#include "data/generator.h"
#include "data/toy.h"
#include "skyline/algorithms.h"

namespace crowdsky {
namespace {

Dataset Make(int n, int mc, uint64_t seed) {
  GeneratorOptions opt;
  opt.cardinality = n;
  opt.num_known = 3;
  opt.num_crowd = mc;
  opt.seed = seed;
  return GenerateDataset(opt).ValueOrDie();
}

/// Marks the first `fraction` of tuples as having known crowd values.
std::vector<DynamicBitset> KnownPrefix(const Dataset& ds, double fraction) {
  std::vector<DynamicBitset> masks(
      static_cast<size_t>(ds.schema().num_crowd()),
      DynamicBitset(static_cast<size_t>(ds.size())));
  const int known = static_cast<int>(fraction * ds.size());
  for (auto& mask : masks) {
    for (int i = 0; i < known; ++i) mask.Set(static_cast<size_t>(i));
  }
  return masks;
}

TEST(PartialKnowledgeTest, FullyKnownDataNeedsNoCrowd) {
  const Dataset ds = Make(150, 1, 1);
  const std::vector<DynamicBitset> masks = KnownPrefix(ds, 1.0);
  PerfectOracle oracle(ds);
  CrowdSession session(&oracle);
  CrowdSkyOptions options;
  options.known_crowd_values = &masks;
  const AlgoResult r = RunCrowdSky(ds, &session, options);
  EXPECT_EQ(r.questions, 0);
  EXPECT_GT(r.seeded_relations, 0);
  EXPECT_EQ(r.skyline, ComputeGroundTruthSkyline(ds));
}

TEST(PartialKnowledgeTest, SeedingPreservesCorrectness) {
  for (const double fraction : {0.0, 0.25, 0.5, 0.75}) {
    for (const int mc : {1, 2}) {
      const Dataset ds = Make(120, mc, 3);
      const std::vector<DynamicBitset> masks = KnownPrefix(ds, fraction);
      PerfectOracle oracle(ds);
      CrowdSession session(&oracle);
      CrowdSkyOptions options;
      options.known_crowd_values = &masks;
      const AlgoResult r = RunCrowdSky(ds, &session, options);
      EXPECT_EQ(r.skyline, ComputeGroundTruthSkyline(ds))
          << "fraction=" << fraction << " mc=" << mc;
    }
  }
}

TEST(PartialKnowledgeTest, MoreKnownValuesMeanFewerQuestions) {
  const Dataset ds = Make(250, 1, 5);
  int64_t prev = -1;
  for (const double fraction : {0.0, 0.3, 0.6, 0.9}) {
    const std::vector<DynamicBitset> masks = KnownPrefix(ds, fraction);
    PerfectOracle oracle(ds);
    CrowdSession session(&oracle);
    CrowdSkyOptions options;
    options.known_crowd_values = &masks;
    const AlgoResult r = RunCrowdSky(ds, &session, options);
    if (prev >= 0) {
      EXPECT_LE(r.questions, prev) << fraction;
    }
    prev = r.questions;
  }
}

TEST(PartialKnowledgeTest, NullMaskMeansHandsOff) {
  const Dataset ds = Make(100, 1, 7);
  PerfectOracle o1(ds), o2(ds);
  CrowdSession s1(&o1), s2(&o2);
  CrowdSkyOptions defaults;  // null known_crowd_values
  const AlgoResult a = RunCrowdSky(ds, &s1, defaults);
  const std::vector<DynamicBitset> empty = KnownPrefix(ds, 0.0);
  CrowdSkyOptions with_empty;
  with_empty.known_crowd_values = &empty;
  const AlgoResult b = RunCrowdSky(ds, &s2, with_empty);
  EXPECT_EQ(a.questions, b.questions);
  EXPECT_EQ(a.skyline, b.skyline);
  EXPECT_EQ(b.seeded_relations, 0);
}

TEST(PartialKnowledgeTest, EqualKnownValuesSeedEquivalences) {
  auto ds = Dataset::Make(Schema::MakeSynthetic(2, 1),
                          {{1, 5, 0.5}, {5, 1, 0.5}, {2, 2, 0.1}});
  ds.status().CheckOK();
  std::vector<DynamicBitset> masks(1, DynamicBitset(3));
  masks[0].Set(0);
  masks[0].Set(1);
  PerfectOracle oracle(*ds);
  CrowdSession session(&oracle);
  CrowdSkyOptions options;
  options.known_crowd_values = &masks;
  const AlgoResult r = RunCrowdSky(*ds, &session, options);
  EXPECT_EQ(r.skyline, ComputeGroundTruthSkyline(*ds));
}

TEST(PartialKnowledgeTest, WorksUnderParallelSL) {
  const Dataset ds = Make(150, 1, 9);
  const std::vector<DynamicBitset> masks = KnownPrefix(ds, 0.5);
  PerfectOracle oracle(ds);
  CrowdSession session(&oracle);
  CrowdSkyOptions options;
  options.known_crowd_values = &masks;
  const AlgoResult r = RunParallelSL(ds, &session, options);
  EXPECT_EQ(r.skyline, ComputeGroundTruthSkyline(ds));
  EXPECT_GT(r.seeded_relations, 0);
}

TEST(PartialKnowledgeDeathTest, WrongMaskShapeAborts) {
  const Dataset ds = Make(50, 2, 11);
  std::vector<DynamicBitset> one_mask(1, DynamicBitset(50));
  PerfectOracle oracle(ds);
  CrowdSession session(&oracle);
  CrowdSkyOptions options;
  options.known_crowd_values = &one_mask;
  EXPECT_DEATH(RunCrowdSky(ds, &session, options),
               "one bitset per crowd attribute");
  std::vector<DynamicBitset> wrong_size(2, DynamicBitset(10));
  options.known_crowd_values = &wrong_size;
  EXPECT_DEATH(RunCrowdSky(ds, &session, options), "wrong size");
}

}  // namespace
}  // namespace crowdsky
