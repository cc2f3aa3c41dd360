// Differential suite for the multi-query service: the same queries run
// packed (RunService) and isolated (RunSkylineQuery one by one) must
// produce bit-identical per-query results — skylines, question streams,
// vote transcripts, dollars — while the packed run posts at most as many
// HITs in total, with the saving exactly what the service ledger claims.
#include "service/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "service/service_test_util.h"

namespace crowdsky::service {
namespace {

using crowdsky::service::testing::ExpectSameEngineResult;
using crowdsky::service::testing::MixedQueries;

ServiceOptions AuditedOptions() {
  ServiceOptions options;
  options.audit = true;
  options.obs_level = obs::ObsLevel::kCounters;
  return options;
}

TEST(ServiceDifferentialTest, PackedRunIsBitIdenticalToIsolatedRuns) {
  std::vector<Dataset> datasets;
  const std::vector<ServiceQuery> queries = MixedQueries(6, &datasets);

  std::vector<EngineResult> isolated;
  for (const ServiceQuery& query : queries) {
    const auto r = RunSkylineQuery(*query.dataset, query.options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    isolated.push_back(*r);
  }

  ServiceOptions options = AuditedOptions();
  options.max_concurrent = 3;  // exercise queueing + mid-run admission
  const auto service = RunService(queries, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const ServiceReport& report = *service;

  ASSERT_EQ(report.queries.size(), queries.size());
  EXPECT_EQ(report.completed, 6);
  EXPECT_EQ(report.failed, 0);
  EXPECT_EQ(report.rejected, 0);

  int64_t isolated_hits_sum = 0;
  double isolated_cost_sum = 0.0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryOutcome& outcome = report.queries[i];
    EXPECT_EQ(outcome.query_id, static_cast<int>(i));
    EXPECT_EQ(outcome.label, queries[i].label);
    EXPECT_TRUE(outcome.admitted);
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    ExpectSameEngineResult(isolated[i], outcome.result,
                           "query " + outcome.label);

    // The outcome's packing ledger agrees with the query's own run.
    int64_t questions = 0;
    for (const int64_t q : outcome.result.algo.questions_per_round) {
      questions += q;
    }
    EXPECT_EQ(outcome.slots, questions);
    AmtCostModel pricing = queries[i].options.cost_model;
    pricing.workers_per_question = queries[i].options.workers_per_question;
    EXPECT_EQ(outcome.isolated_hits,
              pricing.PackedHitCount(outcome.result.algo.questions_per_round));
    isolated_hits_sum += outcome.isolated_hits;
    isolated_cost_sum += pricing.reward_per_hit *
                         pricing.workers_per_question *
                         static_cast<double>(outcome.isolated_hits);
  }

  // Service ledger vs the sum of the isolated runs: packing never loses.
  EXPECT_EQ(report.packing.isolated_hits, isolated_hits_sum);
  EXPECT_LE(report.packing.packed_hits, report.packing.isolated_hits);
  EXPECT_NEAR(report.packing.cost_isolated_usd, isolated_cost_sum, 1e-9);
  EXPECT_NEAR(report.packing.cost_saved_usd,
              report.packing.cost_isolated_usd - report.packing.cost_packed_usd,
              1e-9);
  EXPECT_GE(report.packing.cost_saved_usd, -1e-9);
  EXPECT_FALSE(report.spans.empty());
}

TEST(ServiceDifferentialTest, ConcurrentSerialQueriesSaveStrictly) {
  // Two serial CrowdSky queries ask one question per round each: isolated
  // they pay a whole HIT per round per query, packed their same-epoch
  // questions share one HIT — the packed total must be *strictly* lower.
  std::vector<Dataset> datasets;
  datasets.reserve(2);
  std::vector<ServiceQuery> queries;
  for (int i = 0; i < 2; ++i) {
    GeneratorOptions gen;
    gen.cardinality = 20;
    gen.num_known = 2;
    gen.num_crowd = 1;
    gen.seed = uint64_t{0xfeed} + static_cast<uint64_t>(i);
    datasets.push_back(GenerateDataset(gen).ValueOrDie());
    ServiceQuery query;
    query.dataset = &datasets.back();
    query.options.algorithm = Algorithm::kCrowdSkySerial;
    query.options.oracle = OracleKind::kPerfect;
    query.options.seed = gen.seed;
    queries.push_back(query);
  }

  const auto service = RunService(queries, AuditedOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const PackingLedger& packing = service->packing;
  EXPECT_GT(packing.slots, 0);
  EXPECT_LT(packing.packed_hits, packing.isolated_hits);
  EXPECT_GT(packing.cost_saved_usd, 0.0);
  // Both queries ran for > 1 round, so at least the shared rounds halve.
  EXPECT_GE(packing.isolated_hits - packing.packed_hits,
            std::min(service->queries[0].result.algo.rounds,
                     service->queries[1].result.algo.rounds));
}

TEST(ServiceDifferentialTest, QueueOverflowRejectsInSubmissionOrder) {
  std::vector<Dataset> datasets;
  const std::vector<ServiceQuery> queries = MixedQueries(4, &datasets);

  ServiceOptions options = AuditedOptions();
  options.max_concurrent = 1;
  options.max_queue = 1;  // 1 running + 1 queued; submissions 2,3 rejected
  const auto service = RunService(queries, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const ServiceReport& report = *service;

  EXPECT_EQ(report.completed, 2);
  EXPECT_EQ(report.rejected, 2);
  EXPECT_EQ(report.failed, 0);
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(report.queries[static_cast<size_t>(i)].admitted);
    EXPECT_TRUE(report.queries[static_cast<size_t>(i)].status.ok());
  }
  for (int i = 2; i < 4; ++i) {
    const QueryOutcome& outcome = report.queries[static_cast<size_t>(i)];
    EXPECT_FALSE(outcome.admitted);
    EXPECT_EQ(outcome.status.code(), StatusCode::kBudgetExhausted)
        << outcome.status.ToString();
    EXPECT_EQ(outcome.slots, 0);
    EXPECT_TRUE(outcome.result.algo.skyline.empty());
  }

  // The admitted pair still matches its isolated runs exactly.
  for (int i = 0; i < 2; ++i) {
    const auto r = RunSkylineQuery(*queries[static_cast<size_t>(i)].dataset,
                                   queries[static_cast<size_t>(i)].options);
    ASSERT_TRUE(r.ok());
    ExpectSameEngineResult(*r, report.queries[static_cast<size_t>(i)].result,
                           "admitted query " + std::to_string(i));
  }
}

TEST(ServiceDifferentialTest, BudgetSlicesMatchExplicitlyCappedRuns) {
  // A service-wide budget splits evenly across admitted queries; each
  // CrowdSky-family query then runs exactly as if its governor dollar cap
  // had been set to the slice by hand.
  std::vector<Dataset> datasets;
  std::vector<ServiceQuery> queries = MixedQueries(3, &datasets);

  ServiceOptions options = AuditedOptions();
  options.total_budget_usd = 1.2;  // slice = $0.40 per query
  const auto service = RunService(queries, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryOutcome& outcome = service->queries[i];
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    EXPECT_DOUBLE_EQ(outcome.budget_slice_usd, 0.4);
    EXPECT_TRUE(outcome.result.algo.termination.governed);
    EXPECT_DOUBLE_EQ(outcome.result.algo.termination.cost_cap_usd, 0.4);

    EngineOptions capped = queries[i].options;
    capped.governor.max_cost_usd = 0.4;
    const auto r = RunSkylineQuery(*queries[i].dataset, capped);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectSameEngineResult(*r, outcome.result,
                           "sliced query " + std::to_string(i));
  }
}

TEST(ServiceDifferentialTest, TightBudgetSliceTripsTheDollarCap) {
  std::vector<Dataset> datasets;
  std::vector<ServiceQuery> queries = MixedQueries(2, &datasets);

  ServiceOptions options = AuditedOptions();
  options.total_budget_usd = 0.3;  // $0.15 each: one HIT, then the cap
  const auto service = RunService(queries, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  for (const QueryOutcome& outcome : service->queries) {
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    EXPECT_EQ(outcome.result.algo.termination.reason,
              TerminationReason::kDollarCap);
    EXPECT_LE(outcome.result.algo.termination.cost_spent_usd, 0.15);
  }
}

// An infinite budget would slice into infinite per-query dollar caps.
TEST(ServiceDifferentialTest, RejectsNonFiniteTotalBudget) {
  std::vector<Dataset> datasets;
  const std::vector<ServiceQuery> queries = MixedQueries(2, &datasets);
  ServiceOptions options;
  options.total_budget_usd = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(RunService(queries, options).status().IsInvalidArgument());
}

TEST(ServiceDifferentialTest, ValidatesSubmissions) {
  std::vector<Dataset> datasets;
  std::vector<ServiceQuery> queries = MixedQueries(1, &datasets);

  {
    ServiceOptions options;
    options.max_concurrent = 0;
    EXPECT_FALSE(RunService(queries, options).ok());
  }
  {
    ServiceOptions options;
    options.total_budget_usd = -1.0;
    EXPECT_FALSE(RunService(queries, options).ok());
  }
  {
    auto bad = queries;
    bad[0].dataset = nullptr;
    EXPECT_FALSE(RunService(bad).ok());
  }
  {
    auto bad = queries;
    bad[0].options.wrap_oracle = [](std::unique_ptr<CrowdOracle> oracle) {
      return oracle;
    };
    EXPECT_FALSE(RunService(bad).ok());
  }
  {
    auto bad = queries;
    bad[0].options.durability.dir = "/tmp/service_forbidden";
    EXPECT_FALSE(RunService(bad).ok());
  }
}

TEST(ServiceDifferentialTest, EmptySubmissionYieldsEmptyReport) {
  const auto service = RunService({}, AuditedOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_TRUE(service->queries.empty());
  EXPECT_EQ(service->packing.slots, 0);
  EXPECT_EQ(service->packing.epochs, 0);
  EXPECT_TRUE(service->spans.empty());
}

}  // namespace
}  // namespace crowdsky::service
