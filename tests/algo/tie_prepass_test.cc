// The tie pre-pass (lines 1-3 of Algorithm 1) under a question budget and
// under a fault plan. Tuples with identical known values are never in each
// other's dominating set, so a tie pair the pre-pass cannot decide is never
// asked again: both endpoints must be reported undetermined (and stay in
// the skyline unless another question proves them dominated), never as a
// complete result.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "algo/crowdsky_algorithm.h"
#include "crowd/marketplace.h"
#include "crowd/oracle.h"
#include "crowd/voting.h"
#include "persist/checkpoint.h"

namespace crowdsky {
namespace {

using DriverFn = AlgoResult (*)(const Dataset&, CrowdSession*,
                                const CrowdSkyOptions&);

struct Driver {
  const char* name;
  DriverFn run;
};

const Driver kDrivers[] = {
    {"serial", &RunCrowdSky},
    {"dset", &RunParallelDSet},
    {"sl", &RunParallelSL},
};

Dataset Make(std::vector<std::vector<double>> rows) {
  return Dataset::Make(Schema::MakeSynthetic(2, 1), std::move(rows))
      .ValueOrDie();
}

CrowdSkyOptions Audited() {
  CrowdSkyOptions options;
  options.audit = true;  // any broken invariant aborts the test
  return options;
}

TEST(TiePrePassTest, DeniedTieQuestionLeavesBothTuplesUndetermined) {
  // The true skyline is {0}: tuple 0 beats its known-value twin in AC.
  const Dataset data = Make({{1, 1, 0.5}, {1, 1, 0.9}});
  for (const Driver& d : kDrivers) {
    SCOPED_TRACE(d.name);
    PerfectOracle oracle(data);
    CrowdSession session(&oracle);
    session.SetQuestionBudget(0);
    const AlgoResult r = d.run(data, &session, Audited());
    EXPECT_EQ(r.skyline, (std::vector<int>{0, 1}));
    EXPECT_FALSE(r.completeness.complete);
    EXPECT_EQ(r.completeness.undetermined_tuples, (std::vector<int>{0, 1}));
    EXPECT_EQ(r.incomplete_tuples, 2);
    EXPECT_EQ(r.completeness.determined_tuples, 0);
    EXPECT_TRUE(r.completeness.budget_exhausted);
  }
}

TEST(TiePrePassTest, UnresolvedTieQuestionLeavesBothTuplesUndetermined) {
  const Dataset data = Make({{1, 1, 0.5}, {1, 1, 0.9}});
  for (const Driver& d : kDrivers) {
    SCOPED_TRACE(d.name);
    MarketplaceOptions market;
    market.faults.transient_error_rate = 1.0;  // every attempt fails
    CrowdMarketplace oracle(data, market, VotingPolicy::MakeStatic(5));
    CrowdSession session(&oracle);
    RetryPolicy retry;
    retry.max_retries = 1;
    session.SetRetryPolicy(retry);
    const AlgoResult r = d.run(data, &session, Audited());
    EXPECT_EQ(r.skyline, (std::vector<int>{0, 1}));
    EXPECT_FALSE(r.completeness.complete);
    EXPECT_EQ(r.completeness.undetermined_tuples, (std::vector<int>{0, 1}));
    EXPECT_EQ(r.incomplete_tuples, 2);
    EXPECT_TRUE(r.completeness.retries_exhausted);
    EXPECT_FALSE(r.completeness.budget_exhausted);
  }
}

TEST(TiePrePassTest, UndecidedTwinProvenDominatedIsDetermined) {
  // Tuples 0 and 1 tie on the known attributes and the budget denies their
  // question; tuple 2 dominates both in AK. The machine knows the crowd
  // values of 1 and 2, so 2 <_AC 1 is free and proves 1 dominated, while
  // 0 stays undecided and in the skyline.
  const Dataset data = Make({{1, 1, 0.5}, {1, 1, 0.9}, {0, 0, 0.1}});
  DynamicBitset known(3);
  known.Set(1);
  known.Set(2);
  const std::vector<DynamicBitset> known_crowd_values = {known};
  for (const Driver& d : kDrivers) {
    SCOPED_TRACE(d.name);
    PerfectOracle oracle(data);
    CrowdSession session(&oracle);
    session.SetQuestionBudget(0);
    CrowdSkyOptions options = Audited();
    options.known_crowd_values = &known_crowd_values;
    const AlgoResult r = d.run(data, &session, options);
    EXPECT_EQ(r.skyline, (std::vector<int>{0, 2}));
    EXPECT_EQ(r.completeness.undetermined_tuples, std::vector<int>{0});
    EXPECT_EQ(r.incomplete_tuples, 1);
  }
}

/// Captures every checkpoint a driver offers, as the engine would write it.
class CapturingHook : public DriverCheckpointHook {
 public:
  void MaybeCheckpoint(const CompletionState& completion,
                       const std::vector<int>& skyline,
                       const std::vector<int>& undetermined,
                       int64_t free_lookups,
                       const std::vector<int>& pending) override {
    persist::CheckpointData data;
    data.num_tuples = static_cast<int32_t>(completion.complete.size());
    for (size_t t = 0; t < completion.complete.size(); ++t) {
      data.complete.push_back(completion.complete.Test(t) ? 1 : 0);
      data.nonskyline.push_back(completion.nonskyline.Test(t) ? 1 : 0);
    }
    data.skyline.assign(skyline.begin(), skyline.end());
    data.undetermined.assign(undetermined.begin(), undetermined.end());
    data.pending.assign(pending.begin(), pending.end());
    data.free_lookups = free_lookups;
    checkpoints.push_back(std::move(data));
  }

  std::vector<persist::CheckpointData> checkpoints;
};

TEST(TiePrePassTest, ResumeReportsEachUndecidedTwinOnce) {
  // The twins 0 and 1 are SKY_AK and undetermined before the first
  // checkpoint; 2 and 3 are evaluated after it. The resume re-runs the
  // pre-pass over the restored undetermined list and must not report the
  // twins a second time.
  const Dataset data =
      Make({{1, 1, 0.5}, {1, 1, 0.9}, {2, 2, 0.3}, {3, 3, 0.2}});
  for (const Driver& d : kDrivers) {
    SCOPED_TRACE(d.name);
    PerfectOracle oracle(data);
    CapturingHook hook;
    CrowdSkyOptions options = Audited();
    options.checkpoint_hook = &hook;
    CrowdSession session(&oracle);
    session.SetQuestionBudget(0);
    const AlgoResult base = d.run(data, &session, options);
    EXPECT_EQ(base.completeness.undetermined_tuples,
              (std::vector<int>{0, 1, 2, 3}));
    ASSERT_FALSE(hook.checkpoints.empty());
    const persist::CheckpointData& first = hook.checkpoints.front();
    ASSERT_LT(first.undetermined.size(), 4u) << "checkpoint is not mid-run";

    // Nothing was paid, so the resume folds no journal records.
    const std::vector<persist::JournalRecord> fold;
    const DriverResumeState resume{&first, &fold};
    CrowdSkyOptions resumed_options = Audited();
    resumed_options.resume = &resume;
    CrowdSession resumed_session(&oracle);
    resumed_session.SetQuestionBudget(0);
    const AlgoResult r = d.run(data, &resumed_session, resumed_options);
    EXPECT_EQ(r.skyline, base.skyline);
    EXPECT_EQ(r.completeness.undetermined_tuples,
              base.completeness.undetermined_tuples);
    EXPECT_EQ(r.incomplete_tuples, base.incomplete_tuples);
  }
}

}  // namespace
}  // namespace crowdsky
