// Metric-catalog oracle. Pins, per configuration, the exact deterministic
// observability surface of a run: the sorted (name, value) list of every
// counter and gauge except the scheduling-dependent `pool.*` ones, and a
// 64-bit FNV-1a digest of the Prometheus text dump with every `pool_*` line
// removed (which also covers histogram buckets). Any change to how the
// catalog is collected or published — a renamed, missing, extra or
// miscounted metric, a moved histogram bucket — changes a constant here.
//
// On a mismatch the test prints the observed catalog in the same literal
// form, so an intended catalog change is reviewed line by line.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/crowdsky.h"
#include "service/service.h"
#include "testing/temp_dir.h"

namespace crowdsky {
namespace {

bool IsPool(const std::string& name) { return name.rfind("pool.", 0) == 0; }

/// "name value" lines, counters (histograms flattened) then gauges, each
/// block sorted by name; gauges printed with full double precision.
std::string Catalog(
    const std::vector<std::pair<std::string, int64_t>>& counters,
    const std::vector<std::pair<std::string, double>>& gauges) {
  std::string out;
  for (const auto& [name, value] : counters) {
    if (!IsPool(name)) out += name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges) {
    if (IsPool(name)) continue;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += name + " " + buf + "\n";
  }
  return out;
}

std::string Catalog(const EngineResult& r) {
  return Catalog(r.obs.counters, r.obs.gauges);
}

/// 64-bit FNV-1a over the bytes of the Prometheus dump at `path`, skipping
/// the `# TYPE pool_*` and `pool_*` sample lines.
uint64_t PromDigest(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  uint64_t hash = 0xcbf29ce484222325ULL;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("pool_", 0) == 0 || line.rfind("# TYPE pool_", 0) == 0) {
      continue;
    }
    line += '\n';
    for (const char c : line) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

/// The catalog as a C++ string literal, one metric per source line.
std::string AsLiteral(const std::string& catalog) {
  std::string out;
  std::istringstream lines(catalog);
  std::string line;
  while (std::getline(lines, line)) out += "      \"" + line + "\\n\"\n";
  return out;
}

void ExpectCatalog(const std::string& tag, const std::string& got,
                   const std::string& want) {
  EXPECT_EQ(got, want) << tag << " catalog; observed:\n" << AsLiteral(got);
}

void ExpectDigest(const std::string& tag, uint64_t got, uint64_t want) {
  EXPECT_EQ(got, want) << tag << " Prometheus digest; observed "
                       << Hex(got);
}

Dataset MakeData(int n, uint64_t seed, int num_crowd = 1) {
  GeneratorOptions gen;
  gen.cardinality = n;
  gen.num_known = 3;
  gen.num_crowd = num_crowd;
  gen.seed = seed;
  return GenerateDataset(gen).ValueOrDie();
}

/// Options observed at `level`, dumping Prometheus text to a fresh temp path.
EngineOptions Observed(Algorithm algorithm, obs::ObsLevel level,
                       const std::string& prom_name) {
  EngineOptions options;
  options.algorithm = algorithm;
  options.obs.level = level;
  options.obs.metrics_path = crowdsky::testing::FreshTempPath(prom_name);
  return options;
}

TEST(MetricCatalogTest, ParallelSlCounters) {
  const Dataset ds = MakeData(100, 7);
  EngineOptions options =
      Observed(Algorithm::kParallelSL, obs::ObsLevel::kCounters, "sl.prom");
  options.worker.p_correct = 0.9;
  options.seed = 11;
  const auto r = RunSkylineQuery(ds, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectCatalog("sl", Catalog(*r),
      "crowdsky.backoff_rounds 0\n"
      "crowdsky.cache_hits 0\n"
      "crowdsky.degraded_quorum 0\n"
      "crowdsky.failed_attempts 0\n"
      "crowdsky.free_lookups 7\n"
      "crowdsky.hits_paid 28\n"
      "crowdsky.pair_attempts 123\n"
      "crowdsky.retries 0\n"
      "crowdsky.round_questions_count 10\n"
      "crowdsky.round_questions_sum 123\n"
      "crowdsky.rounds 10\n"
      "crowdsky.unary_questions 0\n"
      "crowdsky.unresolved_questions 0\n"
      "crowdsky.worker_answers 615\n"
      "journal.records_appended 0\n"
      "journal.replayed_pair_attempts 0\n"
      "journal.replayed_unary_questions 0\n"
      "crowdsky.cost_usd 2.8000000000000003\n");
  ExpectDigest("sl", PromDigest(options.obs.metrics_path),
               0x938080c6c57693e8ULL);
}

TEST(MetricCatalogTest, SerialFullWithFaultsRetriesAndJournal) {
  const Dataset ds = MakeData(80, 5, /*num_crowd=*/2);
  EngineOptions options = Observed(Algorithm::kCrowdSkySerial,
                                   obs::ObsLevel::kFull, "serial.prom");
  options.oracle = OracleKind::kMarketplace;
  options.marketplace.pool_size = 40;
  options.marketplace.population.p_correct = 0.95;
  options.marketplace.faults.transient_error_rate = 0.10;
  options.marketplace.faults.hit_expiration_rate = 0.05;
  options.marketplace.faults.worker_no_show_rate = 0.15;
  options.marketplace.faults.straggler_rate = 0.05;
  options.retry.max_retries = 2;
  options.durability.dir = crowdsky::testing::FreshTempDir("serial_journal");
  const auto r = RunSkylineQuery(ds, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GT(r->algo.retries, 0);
  ExpectCatalog("serial", Catalog(*r),
      "crowdsky.backoff_rounds 154\n"
      "crowdsky.cache_hits 0\n"
      "crowdsky.degraded_quorum 260\n"
      "crowdsky.failed_attempts 104\n"
      "crowdsky.free_lookups 368\n"
      "crowdsky.hits_paid 240\n"
      "crowdsky.pair_attempts 517\n"
      "crowdsky.retries 97\n"
      "crowdsky.round_questions_count 240\n"
      "crowdsky.round_questions_sum 517\n"
      "crowdsky.rounds 240\n"
      "crowdsky.unary_questions 0\n"
      "crowdsky.unresolved_questions 7\n"
      "crowdsky.worker_answers 1849\n"
      "journal.bytes_appended 40714\n"
      "journal.fsyncs 26\n"
      "journal.records_appended 660\n"
      "journal.records_total 660\n"
      "journal.replayed_pair_attempts 0\n"
      "journal.replayed_unary_questions 0\n"
      "crowdsky.cost_usd 24\n");
  ExpectDigest("serial", PromDigest(options.obs.metrics_path),
               0x674e6a503e985d38ULL);
  std::filesystem::remove_all(options.durability.dir);
}

TEST(MetricCatalogTest, GovernorCappedThenUncappedResume) {
  const Dataset ds = MakeData(120, 9);
  EngineOptions capped = Observed(Algorithm::kParallelSL,
                                  obs::ObsLevel::kCounters, "capped.prom");
  capped.oracle = OracleKind::kPerfect;
  capped.governor.max_cost_usd = 0.5;
  capped.durability.dir = crowdsky::testing::FreshTempDir("governed");
  const auto partial = RunSkylineQuery(ds, capped);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  ASSERT_EQ(partial->algo.termination.reason, TerminationReason::kDollarCap);
  ExpectCatalog("capped", Catalog(*partial),
      "crowdsky.backoff_rounds 0\n"
      "crowdsky.cache_hits 0\n"
      "crowdsky.degraded_quorum 0\n"
      "crowdsky.failed_attempts 0\n"
      "crowdsky.free_lookups 94\n"
      "crowdsky.hits_paid 5\n"
      "crowdsky.pair_attempts 22\n"
      "crowdsky.retries 0\n"
      "crowdsky.round_questions_count 2\n"
      "crowdsky.round_questions_sum 22\n"
      "crowdsky.rounds 2\n"
      "crowdsky.unary_questions 0\n"
      "crowdsky.unresolved_questions 0\n"
      "crowdsky.worker_answers 22\n"
      "governor.denied_questions 91\n"
      "governor.hits_funded 5\n"
      "governor.rounds_observed 2\n"
      "governor.stops 1\n"
      "journal.bytes_appended 1722\n"
      "journal.fsyncs 2\n"
      "journal.records_appended 25\n"
      "journal.records_total 25\n"
      "journal.replayed_pair_attempts 0\n"
      "journal.replayed_unary_questions 0\n"
      "crowdsky.cost_usd 0.5\n"
      "governor.cost_cap_usd 0.5\n"
      "governor.cost_spent_usd 0.5\n");
  ExpectDigest("capped", PromDigest(capped.obs.metrics_path),
               0x64290051c10e8fe5ULL);

  EngineOptions resumed = capped;
  resumed.governor = GovernorOptions{};
  resumed.durability.resume = true;
  resumed.obs.metrics_path = crowdsky::testing::FreshTempPath("resumed.prom");
  const auto r = RunSkylineQuery(ds, resumed);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GT(r->durability.replayed_pair_attempts, 0);
  ExpectCatalog("resumed", Catalog(*r),
      "crowdsky.backoff_rounds 0\n"
      "crowdsky.cache_hits 0\n"
      "crowdsky.degraded_quorum 0\n"
      "crowdsky.failed_attempts 0\n"
      "crowdsky.free_lookups 3\n"
      "crowdsky.hits_paid 35\n"
      "crowdsky.pair_attempts 148\n"
      "crowdsky.retries 0\n"
      "crowdsky.round_questions_count 13\n"
      "crowdsky.round_questions_sum 148\n"
      "crowdsky.rounds 13\n"
      "crowdsky.unary_questions 0\n"
      "crowdsky.unresolved_questions 0\n"
      "crowdsky.worker_answers 148\n"
      "journal.bytes_appended 9594\n"
      "journal.fsyncs 2\n"
      "journal.records_appended 138\n"
      "journal.records_total 161\n"
      "journal.replayed_pair_attempts 22\n"
      "journal.replayed_unary_questions 0\n"
      "crowdsky.cost_usd 3.5\n");
  ExpectDigest("resumed", PromDigest(resumed.obs.metrics_path),
               0x4b043c3f3be388d9ULL);
  std::filesystem::remove_all(capped.durability.dir);
}

TEST(MetricCatalogTest, ParallelDSetResumedFromCheckpoint) {
  const Dataset ds = MakeData(120, 13, /*num_crowd=*/2);
  const std::string dir = crowdsky::testing::FreshTempDir("dset_run");
  const std::string crashed = crowdsky::testing::FreshTempDir("dset_crash");
  EngineOptions options = Observed(Algorithm::kParallelDSet,
                                   obs::ObsLevel::kCounters, "dset.prom");
  options.oracle = OracleKind::kPerfect;
  options.durability.dir = dir;
  options.durability.checkpoint_every_rounds = 1;
  // The run directory as a process killed after round 40 would leave it:
  // every record up to that round-end is flushed, and the checkpoint is
  // the last one written at a partition boundary before it.
  options.round_callback = [&](int64_t rounds) {
    if (rounds == 40) {
      std::filesystem::copy(dir, crashed,
                            std::filesystem::copy_options::recursive);
    }
  };
  ASSERT_TRUE(RunSkylineQuery(ds, options).ok());
  ASSERT_TRUE(std::filesystem::exists(crashed));

  options.round_callback = nullptr;
  options.durability.dir = crashed;
  options.durability.resume = true;
  const auto r = RunSkylineQuery(ds, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->durability.used_checkpoint);
  ASSERT_GT(r->algo.free_lookups, 0);
  ExpectCatalog("dset", Catalog(*r),
      "crowdsky.backoff_rounds 0\n"
      "crowdsky.cache_hits 0\n"
      "crowdsky.degraded_quorum 0\n"
      "crowdsky.failed_attempts 0\n"
      "crowdsky.free_lookups 1026\n"
      "crowdsky.hits_paid 282\n"
      "crowdsky.pair_attempts 545\n"
      "crowdsky.retries 0\n"
      "crowdsky.round_questions_count 276\n"
      "crowdsky.round_questions_sum 545\n"
      "crowdsky.rounds 276\n"
      "crowdsky.unary_questions 0\n"
      "crowdsky.unresolved_questions 0\n"
      "crowdsky.worker_answers 545\n"
      "journal.bytes_appended 40930\n"
      "journal.fsyncs 43\n"
      "journal.records_appended 690\n"
      "journal.records_total 821\n"
      "journal.replayed_pair_attempts 91\n"
      "journal.replayed_unary_questions 0\n"
      "crowdsky.cost_usd 28.200000000000003\n");
  ExpectDigest("dset", PromDigest(options.obs.metrics_path),
               0x1eb03d164091c327ULL);
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(crashed);
}

TEST(MetricCatalogTest, UnaryCounters) {
  const Dataset ds = MakeData(60, 17);
  EngineOptions options =
      Observed(Algorithm::kUnary, obs::ObsLevel::kCounters, "unary.prom");
  const auto r = RunSkylineQuery(ds, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectCatalog("unary", Catalog(*r),
      "crowdsky.backoff_rounds 0\n"
      "crowdsky.cache_hits 0\n"
      "crowdsky.degraded_quorum 0\n"
      "crowdsky.failed_attempts 0\n"
      "crowdsky.free_lookups 0\n"
      "crowdsky.hits_paid 12\n"
      "crowdsky.pair_attempts 0\n"
      "crowdsky.retries 0\n"
      "crowdsky.round_questions_count 1\n"
      "crowdsky.round_questions_sum 60\n"
      "crowdsky.rounds 1\n"
      "crowdsky.unary_questions 60\n"
      "crowdsky.unresolved_questions 0\n"
      "crowdsky.worker_answers 300\n"
      "journal.records_appended 0\n"
      "journal.replayed_pair_attempts 0\n"
      "journal.replayed_unary_questions 0\n"
      "crowdsky.cost_usd 1.2000000000000002\n");
  ExpectDigest("unary", PromDigest(options.obs.metrics_path),
               0x0a5d127359338fc0ULL);
}

TEST(MetricCatalogTest, TwoQueryService) {
  std::vector<Dataset> datasets = {MakeData(50, 21), MakeData(60, 22)};
  std::vector<service::ServiceQuery> queries(2);
  for (size_t i = 0; i < 2; ++i) {
    queries[i].dataset = &datasets[i];
    queries[i].options.algorithm =
        i == 0 ? Algorithm::kParallelSL : Algorithm::kCrowdSkySerial;
    queries[i].options.oracle = OracleKind::kPerfect;
    queries[i].options.obs.level = obs::ObsLevel::kCounters;
  }
  service::ServiceOptions options;
  options.max_concurrent = 2;
  options.obs_level = obs::ObsLevel::kCounters;
  const auto report = service::RunService(queries, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->completed, 2);
  ExpectCatalog("service", Catalog(report->counters, report->gauges),
      "service.epochs 77\n"
      "service.isolated_hits 93\n"
      "service.packed_hits 85\n"
      "service.queries_admitted 2\n"
      "service.queries_completed 2\n"
      "service.queries_failed 0\n"
      "service.queries_rejected 0\n"
      "service.queries_submitted 2\n"
      "service.slots 138\n"
      "service.cost_isolated_usd 9.2999999999999829\n"
      "service.cost_packed_usd 8.4999999999999858\n"
      "service.cost_saved_usd 0.79999999999999716\n");
  ExpectCatalog("service q0", Catalog(report->queries[0].result),
      "crowdsky.backoff_rounds 0\n"
      "crowdsky.cache_hits 0\n"
      "crowdsky.degraded_quorum 0\n"
      "crowdsky.failed_attempts 0\n"
      "crowdsky.free_lookups 4\n"
      "crowdsky.hits_paid 16\n"
      "crowdsky.pair_attempts 61\n"
      "crowdsky.retries 0\n"
      "crowdsky.round_questions_count 8\n"
      "crowdsky.round_questions_sum 61\n"
      "crowdsky.rounds 8\n"
      "crowdsky.unary_questions 0\n"
      "crowdsky.unresolved_questions 0\n"
      "crowdsky.worker_answers 61\n"
      "journal.records_appended 0\n"
      "journal.replayed_pair_attempts 0\n"
      "journal.replayed_unary_questions 0\n"
      "crowdsky.cost_usd 1.6000000000000001\n");
  ExpectCatalog("service q1", Catalog(report->queries[1].result),
      "crowdsky.backoff_rounds 0\n"
      "crowdsky.cache_hits 0\n"
      "crowdsky.degraded_quorum 0\n"
      "crowdsky.failed_attempts 0\n"
      "crowdsky.free_lookups 0\n"
      "crowdsky.hits_paid 77\n"
      "crowdsky.pair_attempts 77\n"
      "crowdsky.retries 0\n"
      "crowdsky.round_questions_count 77\n"
      "crowdsky.round_questions_sum 77\n"
      "crowdsky.rounds 77\n"
      "crowdsky.unary_questions 0\n"
      "crowdsky.unresolved_questions 0\n"
      "crowdsky.worker_answers 77\n"
      "journal.records_appended 0\n"
      "journal.replayed_pair_attempts 0\n"
      "journal.replayed_unary_questions 0\n"
      "crowdsky.cost_usd 7.7000000000000002\n");
}

}  // namespace
}  // namespace crowdsky
