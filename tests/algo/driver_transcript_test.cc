// Transcript oracle for the three CrowdSky drivers. Every other driver test
// compares question counts and skylines; this one pins the exact crowd
// transcript — every paid question (attr, first, second) in ask order, the
// per-round question counts and the sorted skyline — as one 64-bit FNV-1a
// digest per (configuration, driver). A refactor of the drivers that
// reorders a single question, or moves one into another round, changes the
// digest.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "algo/crowdsky_algorithm.h"
#include "core/engine.h"
#include "core/governor.h"
#include "crowd/marketplace.h"
#include "crowd/oracle.h"
#include "crowd/voting.h"
#include "data/generator.h"
#include "data/toy.h"
#include "persist/journal.h"
#include "persist/recovery.h"
#include "testing/temp_dir.h"

namespace crowdsky {
namespace {

using DriverFn = AlgoResult (*)(const Dataset&, CrowdSession*,
                                const CrowdSkyOptions&);

struct Driver {
  const char* name;
  DriverFn run;
  Algorithm algorithm;
};

const Driver kDrivers[] = {
    {"serial", &RunCrowdSky, Algorithm::kCrowdSkySerial},
    {"dset", &RunParallelDSet, Algorithm::kParallelDSet},
    {"sl", &RunParallelSL, Algorithm::kParallelSL},
};

/// 64-bit FNV-1a over little-endian 8-byte words.
class Fnv1a {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void AddI(int64_t v) { Add(static_cast<uint64_t>(v)); }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

uint64_t Digest(const std::vector<PairQuestion>& paid,
                const std::vector<int64_t>& questions_per_round,
                const std::vector<int>& skyline) {
  Fnv1a h;
  h.AddI(static_cast<int64_t>(paid.size()));
  for (const PairQuestion& q : paid) {
    h.AddI(q.attr);
    h.AddI(q.first);
    h.AddI(q.second);
  }
  h.AddI(static_cast<int64_t>(questions_per_round.size()));
  for (const int64_t q : questions_per_round) h.AddI(q);
  h.AddI(static_cast<int64_t>(skyline.size()));
  for (const int t : skyline) h.AddI(t);
  return h.hash();
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

Dataset Generate(int n, int num_crowd, DataDistribution dist,
                 uint64_t seed) {
  GeneratorOptions opt;
  opt.cardinality = n;
  opt.num_known = 3;
  opt.num_crowd = num_crowd;
  opt.distribution = dist;
  opt.seed = seed;
  return GenerateDataset(opt).ValueOrDie();
}

/// Runs `driver` on a fresh session over `oracle` and digests the session.
uint64_t RunAndDigest(const Driver& driver, const Dataset& data,
                      CrowdOracle* oracle, const CrowdSkyOptions& options,
                      int64_t budget = -1,
                      const RetryPolicy* retry = nullptr) {
  CrowdSession session(oracle);
  if (budget >= 0) session.SetQuestionBudget(budget);
  if (retry != nullptr) session.SetRetryPolicy(*retry);
  const AlgoResult r = driver.run(data, &session, options);
  return Digest(session.paid_questions(), session.questions_per_round(),
                r.skyline);
}

// Expected digests, one per driver in kDrivers order.
struct Expected {
  uint64_t serial, dset, sl;
  uint64_t at(int i) const { return i == 0 ? serial : i == 1 ? dset : sl; }
};

void ExpectDigests(const Expected& want, uint64_t (*run)(const Driver&)) {
  for (int i = 0; i < 3; ++i) {
    const uint64_t got = run(kDrivers[i]);
    EXPECT_EQ(Hex(got), Hex(want.at(i))) << kDrivers[i].name;
  }
}

TEST(DriverTranscriptTest, ToyDataset) {
  const Expected want{0x9d4c83475d79242aULL, 0xe58caa265138c96dULL,
                      0x0282e38725e886a4ULL};
  ExpectDigests(want, [](const Driver& d) {
    const Dataset toy = MakeToyDataset();
    PerfectOracle oracle(toy);
    return RunAndDigest(d, toy, &oracle, {});
  });
}

TEST(DriverTranscriptTest, Independent200SingleCrowdAttribute) {
  const Expected want{0xb7735017649dcd27ULL, 0x1ff8e1a5c5c18b1dULL,
                      0xc975f55550bf4110ULL};
  ExpectDigests(want, [](const Driver& d) {
    const Dataset data = Generate(200, 1, DataDistribution::kIndependent, 3);
    SimulatedCrowd oracle(data, WorkerModel{}, VotingPolicy::MakeStatic(5),
                          17);
    return RunAndDigest(d, data, &oracle, {});
  });
}

TEST(DriverTranscriptTest, AntiCorrelated150TwoCrowdAttributesRoundRobin) {
  const Expected want{0x6585e830d6942e59ULL, 0xf567cb41aa2fb162ULL,
                      0xdcdc77f3fb367b16ULL};
  ExpectDigests(want, [](const Driver& d) {
    const Dataset data =
        Generate(150, 2, DataDistribution::kAntiCorrelated, 5);
    PerfectOracle oracle(data);
    CrowdSkyOptions options;
    options.multi_attr = MultiAttributeStrategy::kRoundRobin;
    return RunAndDigest(d, data, &oracle, options);
  });
}

TEST(DriverTranscriptTest, QuestionBudgetOf25) {
  const Expected want{0x4e689a226f2e39d1ULL, 0x293ca5e71b8f6e34ULL,
                      0x207f1349277c5e18ULL};
  ExpectDigests(want, [](const Driver& d) {
    const Dataset data = Generate(200, 1, DataDistribution::kIndependent, 3);
    PerfectOracle oracle(data);
    return RunAndDigest(d, data, &oracle, {}, /*budget=*/25);
  });
}

TEST(DriverTranscriptTest, SeededFaultPlanWithRetries) {
  const Expected want{0x620b5b4695d7e3bbULL, 0x975a89e0758fededULL,
                      0xd506a249add983edULL};
  ExpectDigests(want, [](const Driver& d) {
    const Dataset data = Generate(120, 1, DataDistribution::kIndependent, 9);
    MarketplaceOptions market;
    market.seed = 23;
    market.faults.transient_error_rate = 0.15;
    market.faults.hit_expiration_rate = 0.05;
    market.faults.worker_no_show_rate = 0.2;
    market.faults.straggler_rate = 0.1;
    CrowdMarketplace oracle(data, market, VotingPolicy::MakeStatic(5));
    RetryPolicy retry;
    retry.max_retries = 1;  // small enough that some questions give up
    return RunAndDigest(d, data, &oracle, {}, /*budget=*/-1, &retry);
  });
}

// Capped runs. After the cap, every remaining evaluator visits the known
// probe pairs in P3 order until it meets an unknown one, and then finalizes
// its tuple as undetermined. The paid transcript alone does not see that
// walk, so this digest also covers the free lookups and the undetermined
// tuples.
uint64_t CappedDigest(const CrowdSession& session, const AlgoResult& r) {
  Fnv1a h;
  h.Add(Digest(session.paid_questions(), session.questions_per_round(),
               r.skyline));
  h.AddI(r.free_lookups);
  h.AddI(r.incomplete_tuples);
  const std::vector<int>& undetermined = r.completeness.undetermined_tuples;
  h.AddI(static_cast<int64_t>(undetermined.size()));
  for (const int t : undetermined) h.AddI(t);
  return h.hash();
}

/// IND n=400 under a simulated crowd whose dynamic voting reads each
/// question's freq(u, v), so the digest also pins the frequencies asked
/// with.
uint64_t RunCapped(const Driver& d, int64_t question_budget,
                   double max_cost_usd) {
  const Dataset data = Generate(400, 1, DataDistribution::kIndependent, 11);
  SimulatedCrowd oracle(data, WorkerModel{},
                        VotingPolicy::MakeDynamicWithThresholds(5, 4, 40),
                        29);
  CrowdSession session(&oracle);
  if (question_budget >= 0) session.SetQuestionBudget(question_budget);
  GovernorOptions gov_opt;
  gov_opt.max_cost_usd = max_cost_usd;
  RunGovernor governor(gov_opt, AmtCostModel{}, /*max_retries=*/0);
  if (gov_opt.enabled()) session.AttachGovernor(&governor);
  const AlgoResult r = d.run(data, &session, {});
  return CappedDigest(session, r);
}

TEST(DriverTranscriptTest, Independent400QuestionBudget) {
  const Expected want{0x5814385dacefc876ULL, 0xa81abc1f243a535aULL,
                      0x069d2ff46913a402ULL};
  ExpectDigests(want, [](const Driver& d) {
    return RunCapped(d, /*question_budget=*/150, /*max_cost_usd=*/0.0);
  });
}

TEST(DriverTranscriptTest, Independent400DollarCap) {
  const Expected want{0x3a077d36726fad0aULL, 0x8a85630221a6d3c5ULL,
                      0xc6a0163f58a90c09ULL};
  ExpectDigests(want, [](const Driver& d) {
    return RunCapped(d, /*question_budget=*/-1, /*max_cost_usd=*/6.0);
  });
}

// Crashes a durable engine run right after a mid-run checkpoint and
// resumes it. The round callback saves every checkpoint the run writes; the
// middle one is put back and the journal is cut to its coverage, as if the
// process had died just after writing it. The transcript of an engine run
// is its journal: one pair record per paid question, in ask order.
uint64_t ResumedFromCheckpoint(const Driver& d) {
  const Dataset data = Generate(100, 1, DataDistribution::kCorrelated, 3);
  const std::string dir =
      testing::FreshTempDir(std::string("transcript_resume_") + d.name);
  const std::string ckpt_path = persist::CheckpointPath(dir);
  const std::string journal_path = persist::JournalPath(dir);
  EngineOptions opt;
  opt.algorithm = d.algorithm;
  opt.seed = 61;
  opt.durability.dir = dir;
  opt.durability.checkpoint_every_rounds = 1;
  std::vector<std::string> checkpoints;
  opt.round_callback = [&](int64_t) {
    std::ifstream in(ckpt_path, std::ios::binary);
    std::string bytes(std::istreambuf_iterator<char>(in), {});
    if (bytes.empty()) return;
    if (checkpoints.empty() || checkpoints.back() != bytes) {
      checkpoints.push_back(std::move(bytes));
    }
  };
  const auto base = RunSkylineQuery(data, opt);
  EXPECT_TRUE(base.ok()) << base.status().ToString();
  if (checkpoints.empty()) {
    ADD_FAILURE() << "the run wrote no checkpoint before its last round";
    return 0;
  }
  std::ofstream(ckpt_path, std::ios::binary | std::ios::trunc)
      << checkpoints[checkpoints.size() / 2];
  const auto ckpt = persist::ReadCheckpoint(ckpt_path);
  const auto full = persist::ReadJournal(journal_path);
  if (!ckpt.ok() || !full.ok()) {
    ADD_FAILURE() << "cannot read the checkpoint or the journal";
    return 0;
  }
  int64_t bytes = 24;  // header
  for (int64_t i = 0; i < ckpt->journal_records; ++i) {
    bytes += static_cast<int64_t>(
        persist::EncodeRecord(full->records[static_cast<size_t>(i)]).size());
  }
  EXPECT_TRUE(persist::TruncateJournal(journal_path, bytes).ok());

  opt.round_callback = nullptr;
  opt.durability.resume = true;
  const auto resumed = RunSkylineQuery(data, opt);
  EXPECT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->durability.used_checkpoint);
  EXPECT_EQ(resumed->algo.questions_per_round, base->algo.questions_per_round);
  EXPECT_EQ(resumed->algo.skyline, base->algo.skyline);

  const auto journal = persist::ReadJournal(journal_path);
  EXPECT_TRUE(journal.ok());
  std::vector<PairQuestion> paid;
  for (const persist::JournalRecord& rec : journal->records) {
    if (rec.kind == persist::JournalRecord::Kind::kPairAsk) {
      paid.push_back(rec.question);
    }
  }
  return Digest(paid, resumed->algo.questions_per_round,
                resumed->algo.skyline);
}

TEST(DriverTranscriptTest, EngineRunResumedFromCheckpoint) {
  const Expected want{0xe9d3acfe3fbef6daULL, 0x4521d45620c0f99eULL,
                      0x8a29618d71182504ULL};
  ExpectDigests(want, &ResumedFromCheckpoint);
}

}  // namespace
}  // namespace crowdsky
