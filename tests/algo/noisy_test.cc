// Behaviour under imperfect workers (Section 5): the algorithms must
// terminate, stay internally consistent, and the voting hierarchy
// (dynamic >= static >= single-worker accuracy) must hold on average.
#include <gtest/gtest.h>

#include "algo/crowdsky_algorithm.h"
#include "algo/metrics.h"
#include "common/random.h"
#include "crowd/oracle.h"
#include "data/generator.h"
#include "skyline/dominance_structure.h"

namespace crowdsky {
namespace {

Dataset Make(int n, uint64_t seed) {
  GeneratorOptions opt;
  opt.cardinality = n;
  opt.num_known = 4;
  opt.num_crowd = 1;
  opt.seed = seed;
  return GenerateDataset(opt).ValueOrDie();
}

TEST(NoisyTest, TerminatesAndStaysConsistent) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Dataset ds = Make(150, seed);
    WorkerModel worker;
    worker.p_correct = 0.7;
    SimulatedCrowd crowd(ds, worker, VotingPolicy::MakeStatic(1), seed * 13);
    CrowdSession session(&crowd);
    const AlgoResult r = RunCrowdSky(ds, &session, {});
    // The result is a well-formed subset of ids.
    for (const int id : r.skyline) {
      EXPECT_GE(id, 0);
      EXPECT_LT(id, ds.size());
    }
    EXPECT_TRUE(std::is_sorted(r.skyline.begin(), r.skyline.end()));
    EXPECT_GT(r.questions, 0);
  }
}

TEST(NoisyTest, VeryUnreliableWorkersStillTerminate) {
  const Dataset ds = Make(100, 3);
  WorkerModel worker;
  worker.p_correct = 0.55;
  worker.spammer_fraction = 0.2;
  SimulatedCrowd crowd(ds, worker, VotingPolicy::MakeStatic(1), 99);
  CrowdSession session(&crowd);
  const AlgoResult serial = RunCrowdSky(ds, &session, {});
  EXPECT_FALSE(serial.skyline.empty());

  SimulatedCrowd crowd2(ds, worker, VotingPolicy::MakeStatic(1), 99);
  CrowdSession session2(&crowd2);
  const AlgoResult psl = RunParallelSL(ds, &session2, {});
  EXPECT_FALSE(psl.skyline.empty());
}

TEST(NoisyTest, SerialRunsNeverRecordContradictions) {
  // The adaptive strategy never re-asks a pair whose relation the
  // preference tree already implies, so even very noisy answers cannot
  // contradict it in a serial run — wrong answers are locked in instead
  // (which is exactly why dynamic voting spends more workers on early,
  // high-impact questions).
  const Dataset ds = Make(200, 5);
  WorkerModel worker;
  worker.p_correct = 0.6;
  SimulatedCrowd crowd(ds, worker, VotingPolicy::MakeStatic(1), 7);
  CrowdSession session(&crowd);
  const AlgoResult r = RunCrowdSky(ds, &session, {});
  EXPECT_EQ(r.contradictions, 0);
  EXPECT_FALSE(r.skyline.empty());
}

TEST(NoisyTest, MajorityVotingImprovesSkylineAccuracy) {
  double f1_single = 0.0, f1_voted = 0.0;
  const int kRuns = 6;
  for (uint64_t seed = 1; seed <= kRuns; ++seed) {
    const Dataset ds = Make(250, seed + 40);
    WorkerModel worker;
    worker.p_correct = 0.75;
    {
      SimulatedCrowd crowd(ds, worker, VotingPolicy::MakeStatic(1), seed);
      CrowdSession session(&crowd);
      f1_single +=
          EvaluateNewSkylineAccuracy(ds, RunCrowdSky(ds, &session, {}).skyline)
              .f1;
    }
    {
      SimulatedCrowd crowd(ds, worker, VotingPolicy::MakeStatic(7), seed);
      CrowdSession session(&crowd);
      f1_voted +=
          EvaluateNewSkylineAccuracy(ds, RunCrowdSky(ds, &session, {}).skyline)
              .f1;
    }
  }
  EXPECT_GT(f1_voted, f1_single);
}

TEST(NoisyTest, DynamicVotingAtLeastMatchesStaticOnAverage) {
  double f1_static = 0.0, f1_dynamic = 0.0;
  int64_t workers_static = 0, workers_dynamic = 0;
  const int kRuns = 8;
  for (uint64_t seed = 1; seed <= kRuns; ++seed) {
    const Dataset ds = Make(300, seed + 70);
    const DominanceStructure structure(PreferenceMatrix::FromKnown(ds));
    WorkerModel worker;
    worker.p_correct = 0.8;
    {
      SimulatedCrowd crowd(ds, worker, VotingPolicy::MakeStatic(5), seed);
      CrowdSession session(&crowd);
      const AlgoResult r = RunCrowdSky(ds, structure, &session, {});
      f1_static += EvaluateNewSkylineAccuracy(ds, r.skyline).f1;
      workers_static += r.worker_answers;
    }
    {
      Rng rng(seed);
      SimulatedCrowd crowd(
          ds, worker, VotingPolicy::MakeDynamic(5, structure, &rng), seed);
      CrowdSession session(&crowd);
      const AlgoResult r = RunCrowdSky(ds, structure, &session, {});
      f1_dynamic += EvaluateNewSkylineAccuracy(ds, r.skyline).f1;
      workers_dynamic += r.worker_answers;
    }
  }
  // Accuracy: dynamic must not lose, and typically wins.
  EXPECT_GE(f1_dynamic + 0.05, f1_static);
  // Budget parity: within 25% of the static worker budget.
  EXPECT_LT(std::abs(static_cast<double>(workers_dynamic - workers_static)),
            0.25 * static_cast<double>(workers_static));
}

TEST(NoisyTest, DeterministicGivenSeeds) {
  const Dataset ds = Make(120, 9);
  WorkerModel worker;
  worker.p_correct = 0.7;
  SimulatedCrowd c1(ds, worker, VotingPolicy::MakeStatic(3), 42);
  SimulatedCrowd c2(ds, worker, VotingPolicy::MakeStatic(3), 42);
  CrowdSession s1(&c1), s2(&c2);
  const AlgoResult r1 = RunCrowdSky(ds, &s1, {});
  const AlgoResult r2 = RunCrowdSky(ds, &s2, {});
  EXPECT_EQ(r1.skyline, r2.skyline);
  EXPECT_EQ(r1.questions, r2.questions);
}

TEST(NoisyTest, HeterogeneousWorkersSupported) {
  const Dataset ds = Make(100, 11);
  WorkerModel worker;
  worker.p_correct = 0.8;
  worker.p_stddev = 0.1;
  SimulatedCrowd crowd(ds, worker, VotingPolicy::MakeStatic(5), 3);
  CrowdSession session(&crowd);
  const AlgoResult r = RunCrowdSky(ds, &session, {});
  EXPECT_FALSE(r.skyline.empty());
}

}  // namespace
}  // namespace crowdsky
