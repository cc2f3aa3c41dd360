// Engine-level governor behavior: governed runs that finish are identical
// to ungoverned ones, capped runs stop with an auditable partial result,
// and a capped run resumed under a larger cap completes bit-identically to
// an uninterrupted run without re-paying a single question.
#include "core/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "audit/invariant_auditor.h"
#include "core/crowdsky.h"
#include "skyline/algorithms.h"
#include "testing/temp_dir.h"

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

EngineOptions Governed(Algorithm algo) {
  EngineOptions opt;
  opt.algorithm = algo;
  opt.oracle = OracleKind::kPerfect;
  opt.crowdsky.audit = true;
  return opt;
}

void ExpectSkylineSupersetOfTruth(const Dataset& ds,
                                  const std::vector<int>& skyline) {
  for (const int t : ComputeGroundTruthSkyline(ds)) {
    EXPECT_TRUE(std::binary_search(skyline.begin(), skyline.end(), t)) << t;
  }
}

TEST(GovernorEngineTest, HugeCapsMatchUngovernedBitForBit) {
  const Dataset ds = Small();
  for (const Algorithm algo :
       {Algorithm::kCrowdSkySerial, Algorithm::kParallelDSet,
        Algorithm::kParallelSL}) {
    const auto plain = RunSkylineQuery(ds, Governed(algo));
    ASSERT_TRUE(plain.ok()) << AlgorithmName(algo);
    EXPECT_FALSE(plain->algo.termination.governed);

    EngineOptions opt = Governed(algo);
    opt.governor.max_rounds = 1000000;
    opt.governor.max_cost_usd = 1e9;
    opt.governor.stall_rounds = 1000000;
    const auto governed = RunSkylineQuery(ds, opt);
    ASSERT_TRUE(governed.ok()) << AlgorithmName(algo);
    EXPECT_EQ(governed->algo.skyline, plain->algo.skyline);
    EXPECT_EQ(governed->algo.questions, plain->algo.questions);
    EXPECT_EQ(governed->algo.rounds, plain->algo.rounds);
    EXPECT_DOUBLE_EQ(governed->cost_usd, plain->cost_usd);
    EXPECT_TRUE(governed->algo.termination.governed);
    EXPECT_EQ(governed->algo.termination.reason,
              TerminationReason::kCompleted);
    EXPECT_EQ(governed->algo.termination.denied_questions, 0);
  }
}

TEST(GovernorEngineTest, RoundCapYieldsAuditedPartialResult) {
  const Dataset ds = Small(3);
  EngineOptions opt = Governed(Algorithm::kParallelSL);
  opt.governor.max_rounds = 2;
  const auto r = RunSkylineQuery(ds, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->algo.termination.reason, TerminationReason::kRoundCap);
  EXPECT_EQ(r->algo.termination.rounds, 2);
  EXPECT_GT(r->algo.termination.denied_questions, 0);
  EXPECT_GT(r->algo.incomplete_tuples, 0);
  ExpectSkylineSupersetOfTruth(ds, r->algo.skyline);
}

TEST(GovernorEngineTest, DollarCapNeverOverspends) {
  const Dataset ds = Small(5);
  for (const double cap : {0.1, 0.5, 2.0}) {
    EngineOptions opt = Governed(Algorithm::kCrowdSkySerial);
    opt.governor.max_cost_usd = cap;
    const auto r = RunSkylineQuery(ds, opt);
    ASSERT_TRUE(r.ok()) << cap;
    EXPECT_EQ(r->algo.termination.reason, TerminationReason::kDollarCap)
        << cap;
    EXPECT_LE(r->algo.termination.cost_spent_usd, cap + 1e-9) << cap;
    ExpectSkylineSupersetOfTruth(ds, r->algo.skyline);
  }
}

// The flagship contract: cap a run, then resume it under a larger cap.
// The resume replays every already-paid question from the journal (zero
// re-paid) and the final result is bit-identical to a never-capped run.
TEST(GovernorEngineTest, CappedRunResumesUnderLargerCapBitIdentically) {
  const Dataset ds = Small(7);
  const std::string dir = testing::FreshTempDir("governor_resume");

  EngineOptions base = Governed(Algorithm::kCrowdSkySerial);
  const auto full = RunSkylineQuery(ds, base);
  ASSERT_TRUE(full.ok());

  // Serial driver: one question per round, one $0.10 HIT per round.
  EngineOptions capped = base;
  capped.durability.dir = dir;
  capped.governor.max_cost_usd = 0.5;
  const auto partial = RunSkylineQuery(ds, capped);
  ASSERT_TRUE(partial.ok());
  ASSERT_EQ(partial->algo.termination.reason, TerminationReason::kDollarCap);
  EXPECT_EQ(partial->algo.questions, 5);  // 5 rounds * 1 HIT = the cap
  EXPECT_DOUBLE_EQ(partial->algo.termination.cost_spent_usd, 0.5);
  ASSERT_LT(partial->algo.questions, full->algo.questions);

  EngineOptions resumed = capped;
  resumed.durability.resume = true;
  resumed.governor.max_cost_usd = 1000.0;
  const auto r = RunSkylineQuery(ds, resumed);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->durability.resumed);
  EXPECT_TRUE(r->durability.truncated_termination);
  // Zero re-paid questions: every question the capped run paid for came
  // back from the journal (perfect oracle: one attempt per question).
  EXPECT_EQ(r->durability.replayed_pair_attempts, partial->algo.questions);
  EXPECT_EQ(r->algo.termination.reason, TerminationReason::kCompleted);
  EXPECT_EQ(r->algo.skyline, full->algo.skyline);
  EXPECT_EQ(r->algo.questions, full->algo.questions);
  EXPECT_EQ(r->algo.rounds, full->algo.rounds);
  EXPECT_EQ(r->algo.incomplete_tuples, 0);
  EXPECT_DOUBLE_EQ(r->cost_usd, full->cost_usd);

  // The partial-to-resumed pair satisfies the auditor's extension rules
  // (skyline shrinks only by undetermined tuples, ledgers grow, the
  // partial round history is a prefix of the resumed one).
  audit::AuditReport report;
  const audit::InvariantAuditor auditor;
  auditor.AuditResumeExtension(partial->algo, r->algo, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// Same round trip through a parallel driver, where the dollar cap binds
// mid-round: the truncated final round of the capped journal must replay
// as an open tail and the resumed run must still match the uncapped one.
TEST(GovernorEngineTest, ParallelCappedResumeMatchesUncapped) {
  const Dataset ds = Small(9);
  const std::string dir = testing::FreshTempDir("governor_resume_sl");

  EngineOptions base = Governed(Algorithm::kParallelSL);
  const auto full = RunSkylineQuery(ds, base);
  ASSERT_TRUE(full.ok());

  EngineOptions capped = base;
  capped.durability.dir = dir;
  capped.governor.max_cost_usd = 0.5;
  const auto partial = RunSkylineQuery(ds, capped);
  ASSERT_TRUE(partial.ok());
  ASSERT_EQ(partial->algo.termination.reason, TerminationReason::kDollarCap);
  ASSERT_LT(partial->algo.questions, full->algo.questions);

  EngineOptions resumed = capped;
  resumed.durability.resume = true;
  resumed.governor.max_cost_usd = 1000.0;
  const auto r = RunSkylineQuery(ds, resumed);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->durability.resumed);
  EXPECT_EQ(r->durability.replayed_pair_attempts, partial->algo.questions);
  EXPECT_EQ(r->algo.skyline, full->algo.skyline);
  EXPECT_EQ(r->algo.questions, full->algo.questions);
  EXPECT_EQ(r->algo.rounds, full->algo.rounds);

  audit::AuditReport report;
  const audit::InvariantAuditor auditor;
  auditor.AuditResumeExtension(partial->algo, r->algo, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(GovernorEngineTest, ResumeUnderTooSmallCapIsRefused) {
  const Dataset ds = Small(7);
  const std::string dir = testing::FreshTempDir("governor_refuse");

  EngineOptions capped = Governed(Algorithm::kCrowdSkySerial);
  capped.durability.dir = dir;
  capped.governor.max_cost_usd = 0.5;
  ASSERT_TRUE(RunSkylineQuery(ds, capped).ok());

  // The journaled rounds alone already cost $0.50: a $0.30 resume could
  // never even re-admit the replayed questions, so the engine refuses it
  // up front instead of letting the auditor find cost_spent > cap later.
  EngineOptions resumed = capped;
  resumed.durability.resume = true;
  resumed.governor.max_cost_usd = 0.3;
  const auto r = RunSkylineQuery(ds, resumed);
  EXPECT_TRUE(r.status().IsFailedPrecondition()) << r.status().ToString();

  // An ungoverned resume of the same journal is fine (caps may be lifted).
  EngineOptions lifted = capped;
  lifted.durability.resume = true;
  lifted.governor = GovernorOptions{};
  EXPECT_TRUE(RunSkylineQuery(ds, lifted).ok());
}

TEST(GovernorEngineTest, PreCancelledTokenStopsBeforeTheFirstQuestion) {
  const Dataset ds = Small();
  CancellationToken token;
  token.Cancel();
  EngineOptions opt = Governed(Algorithm::kParallelSL);
  opt.governor.cancel = &token;
  const auto r = RunSkylineQuery(ds, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->algo.questions, 0);
  EXPECT_EQ(r->algo.termination.reason, TerminationReason::kCancelled);
  EXPECT_GT(r->algo.termination.denied_questions, 0);
  EXPECT_GT(r->algo.incomplete_tuples, 0);
  ExpectSkylineSupersetOfTruth(ds, r->algo.skyline);
}

TEST(GovernorEngineTest, GovernorRequiresCrowdSkyFamily) {
  const Dataset ds = Small();
  for (const Algorithm algo : {Algorithm::kBaselineSort,
                               Algorithm::kBitonicSort, Algorithm::kUnary}) {
    EngineOptions opt;
    opt.algorithm = algo;
    opt.governor.max_rounds = 5;
    EXPECT_TRUE(RunSkylineQuery(ds, opt).status().IsInvalidArgument())
        << AlgorithmName(algo);
  }
}

TEST(GovernorEngineTest, DeadlineWithoutWallClockOptInIsRejected) {
  EngineOptions opt = Governed(Algorithm::kParallelSL);
  opt.governor.deadline_seconds = 5.0;
  EXPECT_TRUE(RunSkylineQuery(Small(), opt).status().IsInvalidArgument());
}

TEST(GovernorEngineTest, NegativeLimitsAreRejected) {
  const Dataset ds = Small();
  EngineOptions opt = Governed(Algorithm::kParallelSL);
  opt.governor.max_cost_usd = -1.0;
  EXPECT_TRUE(RunSkylineQuery(ds, opt).status().IsInvalidArgument());
  opt = Governed(Algorithm::kParallelSL);
  opt.governor.max_rounds = -2;
  EXPECT_TRUE(RunSkylineQuery(ds, opt).status().IsInvalidArgument());
  opt = Governed(Algorithm::kParallelSL);
  opt.governor.deadline_seconds = -0.5;
  EXPECT_TRUE(RunSkylineQuery(ds, opt).status().IsInvalidArgument());
}

// NaN compares false against every bound, so a `< 0` check alone lets it
// through to the governor's constructor, which aborts on it.
TEST(GovernorEngineTest, NanCostCapIsRejected) {
  EngineOptions opt = Governed(Algorithm::kParallelSL);
  opt.governor.max_rounds = 5;
  opt.governor.max_cost_usd = std::nan("");
  EXPECT_TRUE(RunSkylineQuery(Small(), opt).status().IsInvalidArgument());
}

TEST(GovernorEngineTest, NanDeadlineIsRejected) {
  EngineOptions opt = Governed(Algorithm::kParallelSL);
  opt.governor.max_rounds = 5;
  opt.governor.deadline_seconds = std::nan("");
  EXPECT_TRUE(RunSkylineQuery(Small(), opt).status().IsInvalidArgument());
}

TEST(GovernorEngineTest, GovernorCountersSurfaceInObservability) {
  const Dataset ds = Small(3);
  EngineOptions opt = Governed(Algorithm::kParallelSL);
  opt.governor.max_rounds = 2;
  opt.obs.level = obs::ObsLevel::kCounters;
  const auto r = RunSkylineQuery(ds, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->obs.CounterOr("governor.rounds_observed"), 2);
  EXPECT_EQ(r->obs.CounterOr("governor.stops"), 1);
  EXPECT_GT(r->obs.CounterOr("governor.denied_questions"), 0);
  const auto& gauges = r->obs.gauges;
  EXPECT_TRUE(std::any_of(gauges.begin(), gauges.end(), [](const auto& g) {
    return g.first == "governor.cost_spent_usd";
  }));
}

}  // namespace
}  // namespace crowdsky
