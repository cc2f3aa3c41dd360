// End-to-end CrowdSky benchmark driver.
//
// Runs one workload through the public entry points (RunSkylineQuery and
// service::RunService) and prints one JSON object with the raw
// measurements. perfbench/run.py builds this binary, starts it once per
// mode and turns the raw numbers into named metrics; the arithmetic on
// them (medians, percentiles, residuals, digests) lives there.
//
//   perfbench_driver measure --workload W --seed S --seconds T --tmp DIR
//   perfbench_driver trace   --workload W --seed S --tmp DIR
//   perfbench_driver audit   --workload W --seed S --tmp DIR
//
// measure: tracing off. Cycles set-up + the timed call over the
//          workload's instances (datasets seeded from S) until T seconds
//          have passed and every instance ran once, and reports every call.
// trace:   on instance 0 (seeded with S itself), one untraced call, then
//          one traced call, plus timed calls into
//          each layer's public functions made from this file: the
//          dominance-structure build, a replay of the paid answers into a
//          fresh CrowdKnowledge, a journal read and re-append, and for the
//          service every query run alone. Nothing inside src/ is
//          instrumented and the engine's obs level stays off.
// audit:   one call of instance 0 with the invariant auditor on (it aborts
//          on a broken invariant), for the digest comparison.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "algo/crowd_knowledge.h"
#include "common/thread_pool.h"
#include "core/crowdsky.h"
#include "persist/journal.h"
#include "service/service.h"
#include "skyline/dominance_kernels.h"

namespace {

using namespace crowdsky;  // NOLINT(google-build-using-namespace): driver main
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CurrentRssMb() {
  long pages = 0;
  long resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// Peak resident set since the last ResetPeakRss(), from VmHWM.
double PeakRssMb() {
  long kib = 0;
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
  }
  return static_cast<double>(kib) / 1024.0;
}

// Hands freed heap back to the OS and restarts the peak at the current
// resident set (writing 5 to clear_refs resets VmHWM), so that the next
// PeakRssMb() is the peak of what runs in between.
void ResetPeakRss() {
  malloc_trim(0);
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

// CPU seconds the hypervisor gave to other guests, summed over all CPUs
// (the steal column of /proc/stat; 0 where there is none).
double HostStealS() {
  unsigned long long v[8] = {};
  if (FILE* f = std::fopen("/proc/stat", "r")) {
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) != 8) {
      v[7] = 0;
    }
    std::fclose(f);
  }
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// RSS baseline for a growth measurement: hand freed heap back to the OS
// first so earlier calls do not hide the growth.
double TrimmedRssMb() {
  malloc_trim(0);
  return CurrentRssMb();
}

// Reference time of a fixed piece of work that uses nothing from src/:
// hashing, random reads over an 8 MB table and sorts of 1 MB, the kinds of
// work the engine does. The host's speed drifts by tens of percent over
// minutes on a shared machine; run.py scales the run's times by the median
// reference time of the run, so the drift cancels and changes to the
// library do not. The work is timed in kPieces pieces and the median piece
// is returned, so a burst that hits one piece does not count.
double ReferenceS() {
  constexpr size_t kTable = size_t{1} << 20;  // 8 MB of uint64_t
  constexpr size_t kSorted = size_t{1} << 17;
  constexpr int kPieces = 7;
  static const std::vector<uint64_t> table = [] {
    std::vector<uint64_t> t(kTable);
    uint64_t x = 88172645463325252ULL;
    for (uint64_t& v : t) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = x;
    }
    return t;
  }();
  uint64_t acc = 0;
  uint64_t at = 1;
  std::vector<uint64_t> sorted(table.begin(), table.begin() + kSorted);
  std::vector<double> pieces;
  for (int piece = 0; piece < kPieces; ++piece) {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < 2000000; ++i) {
      at = at * 6364136223846793005ULL + 1442695040888963407ULL;
      acc += table[(at >> 20) & (kTable - 1)];
    }
    for (int round = 0; round < 3; ++round) {
      for (uint64_t& v : sorted) v = v * 0x9E3779B97F4A7C15ULL + acc;
      std::sort(sorted.begin(), sorted.end());
      acc += sorted[kSorted / 2];
    }
    pieces.push_back(Since(start));
  }
  // Keeps the work from being optimized away.
  if (acc == 42) std::fprintf(stderr, "reference checksum %llu\n",
                              static_cast<unsigned long long>(acc));
  std::nth_element(pieces.begin(), pieces.begin() + kPieces / 2,
                   pieces.end());
  return pieces[kPieces / 2];
}

// ---------------------------------------------------------------------------
// Minimal JSON writer (numbers, strings without escapes, nesting).

class Json {
 public:
  Json& Open(const char* key = nullptr) { return Begin(key, '{'); }
  Json& OpenArray(const char* key = nullptr) { return Begin(key, '['); }
  Json& Close() { return End('}'); }
  Json& CloseArray() { return End(']'); }

  Json& Num(const char* key, double v) {
    Key(key);
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    return *this;
  }
  Json& Int(const char* key, int64_t v) {
    Key(key);
    out_ += std::to_string(v);
    return *this;
  }
  Json& Str(const char* key, const std::string& v) {
    Key(key);
    out_ += '"';
    for (const char c : v) out_ += (c == '"' || c == '\\') ? '\'' : c;
    out_ += '"';
    return *this;
  }
  template <typename T>
  Json& Ints(const char* key, const std::vector<T>& values) {
    OpenArray(key);
    for (const T v : values) Int(nullptr, static_cast<int64_t>(v));
    return CloseArray();
  }
  Json& Nums(const char* key, const std::vector<double>& values) {
    OpenArray(key);
    for (const double v : values) Num(nullptr, v);
    return CloseArray();
  }
  const std::string& str() const { return out_; }

 private:
  void Key(const char* key) {
    if (!first_) out_ += ',';
    first_ = false;
    if (key != nullptr) {
      out_ += '"';
      out_ += key;
      out_ += "\":";
    }
  }
  Json& Begin(const char* key, char bracket) {
    Key(key);
    out_ += bracket;
    first_ = true;
    return *this;
  }
  Json& End(char bracket) {
    out_ += bracket;
    first_ = false;
    return *this;
  }

  std::string out_;
  bool first_ = true;
};

// ---------------------------------------------------------------------------
// Workloads. Every workload uses |AK| = 4, |AC| = 1, the simulated crowd
// with the default WorkerModel (p = 0.8), ω = 5, static voting and the
// default AmtCostModel; generator and engine seeds derive from --seed.

enum class Workload { kAnt10kSl, kInd2kCapped, kServiceMix };

constexpr int kServiceQueries = 24;
constexpr int kMaxConcurrent = 4;

// A measure run times several instances of a single-query workload, each
// with its own dataset, so that its figures average over data drawn from
// the seed instead of hanging on one draw. The service already runs 24
// datasets per call.
int Instances(Workload workload) {
  switch (workload) {
    case Workload::kAnt10kSl:
      return 5;
    case Workload::kInd2kCapped:
      return 4;
    case Workload::kServiceMix:
      return 1;
  }
  return 1;
}

// Instance 0 is seeded with the seed itself; the others far apart, so that
// runs with nearby seeds share no dataset.
uint64_t InstanceSeed(uint64_t seed, int instance) {
  return seed + 1000003ULL * static_cast<uint64_t>(instance);
}

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "ant10k_sl") {
    *out = Workload::kAnt10kSl;
  } else if (name == "ind2k_capped") {
    *out = Workload::kInd2kCapped;
  } else if (name == "service_mix") {
    *out = Workload::kServiceMix;
  } else {
    return false;
  }
  return true;
}

struct QuerySpec {
  GeneratorOptions gen;
  EngineOptions options;
};

QuerySpec MakeSpec(int n, DataDistribution distribution, Algorithm algorithm,
                   uint64_t seed) {
  QuerySpec spec;
  spec.gen.cardinality = n;
  spec.gen.num_known = 4;
  spec.gen.num_crowd = 1;
  spec.gen.distribution = distribution;
  spec.gen.seed = seed;
  spec.options.algorithm = algorithm;
  spec.options.oracle = OracleKind::kSimulated;
  spec.options.workers_per_question = 5;
  spec.options.dynamic_voting = false;
  spec.options.seed = seed;
  return spec;
}

// `shrink` divides every cardinality; the warm-up uses it.
std::vector<QuerySpec> Specs(Workload workload, uint64_t seed,
                             const std::string& journal_dir, int shrink) {
  std::vector<QuerySpec> specs;
  switch (workload) {
    case Workload::kAnt10kSl: {
      QuerySpec spec = MakeSpec(10000 / shrink,
                                DataDistribution::kAntiCorrelated,
                                Algorithm::kParallelSL, seed);
      spec.options.durability.dir = journal_dir;
      spec.options.durability.sync = persist::SyncMode::kFlush;
      spec.options.durability.checkpoint_every_rounds = 8;
      specs.push_back(spec);
      break;
    }
    case Workload::kInd2kCapped: {
      QuerySpec spec = MakeSpec(2000 / shrink,
                                DataDistribution::kIndependent,
                                Algorithm::kParallelSL, seed);
      spec.options.governor.max_cost_usd = 5.0;
      specs.push_back(spec);
      break;
    }
    case Workload::kServiceMix: {
      const DataDistribution dists[3] = {DataDistribution::kIndependent,
                                         DataDistribution::kAntiCorrelated,
                                         DataDistribution::kCorrelated};
      const Algorithm algos[4] = {Algorithm::kParallelSL,
                                  Algorithm::kParallelSL,
                                  Algorithm::kParallelDSet,
                                  Algorithm::kCrowdSkySerial};
      for (int i = 0; i < kServiceQueries; ++i) {
        specs.push_back(MakeSpec((3000 + 37 * i) / shrink, dists[i % 3],
                                 algos[i % 4],
                                 seed + static_cast<uint64_t>(i)));
      }
      break;
    }
  }
  return specs;
}

struct Prepared {
  std::vector<QuerySpec> specs;
  std::vector<Dataset> data;
  double generate_s = 0.0;
};

// The set-up every timed call pays for: generate the datasets and prepare
// a fresh journal directory.
Prepared Setup(Workload workload, uint64_t seed, const std::string& tmp,
               int shrink = 1) {
  Prepared p;
  const std::string journal_dir = tmp + "/journal";
  p.specs = Specs(workload, seed, journal_dir, shrink);
  const Clock::time_point start = Clock::now();
  for (const QuerySpec& spec : p.specs) {
    p.data.push_back(GenerateDataset(spec.gen).ValueOrDie());
  }
  p.generate_s = Since(start);
  if (workload == Workload::kAnt10kSl) {
    std::filesystem::remove_all(journal_dir);
    std::filesystem::create_directories(journal_dir);
  }
  return p;
}

// ---------------------------------------------------------------------------
// Observation seams, both public engine hooks.

// Round timestamps from EngineOptions::round_callback. The untraced clock
// keeps only the first closed round; the traced clock keeps every one.
class RoundClock {
 public:
  RoundClock(bool keep_all, int queries)
      : keep_all_(keep_all), stamps_(static_cast<size_t>(queries)) {}

  void Start() { start_ = Clock::now(); }

  std::function<void(int64_t)> Callback(int query) {
    return [this, query](int64_t) {
      const Clock::time_point now = Clock::now();
      std::lock_guard<std::mutex> lock(mu_);
      if (!have_first_) {
        first_ = now;
        have_first_ = true;
      }
      if (keep_all_) stamps_[static_cast<size_t>(query)].push_back(now);
    };
  }

  double first_round_s() const {
    return have_first_ ? std::chrono::duration<double>(first_ - start_).count()
                       : 0.0;
  }

  // Gaps between consecutive closed rounds of the same query, in ms.
  std::vector<double> GapsMs() const {
    std::vector<double> gaps;
    for (const auto& s : stamps_) {
      for (size_t i = 1; i < s.size(); ++i) {
        gaps.push_back(
            std::chrono::duration<double, std::milli>(s[i] - s[i - 1])
                .count());
      }
    }
    return gaps;
  }

 private:
  const bool keep_all_;
  Clock::time_point start_;
  std::mutex mu_;
  bool have_first_ = false;
  Clock::time_point first_;
  std::vector<std::vector<Clock::time_point>> stamps_;
};

struct PaidAnswer {
  int attr;
  int first;
  int second;
  Answer answer;
};

// What the tracing oracle saw: time inside the oracle and the ordered
// stream of paid answers.
struct CrowdTrace {
  double oracle_s = 0.0;
  int64_t pair_attempts = 0;
  std::vector<PaidAnswer> paid;
};

// Transparent EngineOptions::wrap_oracle wrapper: forwards every call
// unchanged and in order, mirrors the inner stats, and times the calls.
class TracingOracle final : public CrowdOracle {
 public:
  TracingOracle(std::unique_ptr<CrowdOracle> inner, CrowdTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {}

  Answer AnswerPair(const PairQuestion& q, const AskContext& ctx) override {
    const Clock::time_point start = Clock::now();
    const Answer answer = inner_->AnswerPair(q, ctx);
    trace_->oracle_s += Since(start);
    stats_ = inner_->stats();
    return answer;
  }

  PairOutcome AnswerPairOutcome(const PairQuestion& q,
                                const AskContext& ctx) override {
    const Clock::time_point start = Clock::now();
    PairOutcome outcome = inner_->AnswerPairOutcome(q, ctx);
    trace_->oracle_s += Since(start);
    stats_ = inner_->stats();
    ++trace_->pair_attempts;
    if (outcome.status != PairOutcome::Status::kFailed) {
      trace_->paid.push_back({q.attr, q.first, q.second, outcome.answer});
    }
    return outcome;
  }

  double AnswerUnary(int id, int attr, const AskContext& ctx) override {
    const Clock::time_point start = Clock::now();
    const double value = inner_->AnswerUnary(id, attr, ctx);
    trace_->oracle_s += Since(start);
    stats_ = inner_->stats();
    return value;
  }

  const FaultInjector* fault_injector() const override {
    return inner_->fault_injector();
  }

 private:
  std::unique_ptr<CrowdOracle> inner_;
  CrowdTrace* trace_;
};

void AttachTracer(EngineOptions* options, CrowdTrace* trace) {
  options->wrap_oracle = [trace](std::unique_ptr<CrowdOracle> inner)
      -> std::unique_ptr<CrowdOracle> {
    return std::make_unique<TracingOracle>(std::move(inner), trace);
  };
}

// ---------------------------------------------------------------------------
// One timed call.

// On a shared host the hypervisor can take CPU time from this guest in
// bursts that last minutes. The service's epoch barrier waits for its
// slowest driver thread, so such a burst stretches a service call by up
// to 2x. A call is quiet when the host took at most this share of the
// guest's CPU time while it ran; run.py takes medians over quiet calls.
constexpr double kQuietStealShare = 0.025;

struct Outcome {
  int instance = 0;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
  // Share of the guest's CPU time the host took while the call ran.
  double steal_share = 0.0;
  double first_round_s = 0.0;
  int submitted = 0;
  int failed = 0;
  int64_t questions = 0;
  int64_t rounds = 0;
  int64_t hits = 0;
  double cost_usd = 0.0;
  double f1 = 0.0;
  int64_t epochs = 0;         // service only
  int64_t isolated_hits = 0;  // service only
  std::vector<EngineResult> results;  // one per submitted query
};

void AddQueryTotals(const EngineResult& r, Outcome* out) {
  out->questions += r.algo.questions;
  out->rounds += r.algo.rounds;
  out->f1 += r.accuracy.f1;
}

Outcome RunSingle(const Prepared& p, bool audit, RoundClock* clock,
                  CrowdTrace* trace) {
  EngineOptions options = p.specs[0].options;
  options.crowdsky.audit = audit;
  options.round_callback = clock->Callback(0);
  if (trace != nullptr) AttachTracer(&options, trace);

  Outcome out;
  out.submitted = 1;
  clock->Start();
  const Clock::time_point start = Clock::now();
  Result<EngineResult> run = RunSkylineQuery(p.data[0], options);
  out.wall_s = Since(start);
  out.first_round_s = clock->first_round_s();
  if (!run.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 run.status().ToString().c_str());
    out.failed = 1;
    out.results.emplace_back();
    return out;
  }
  EngineResult result = std::move(run).ValueOrDie();
  AddQueryTotals(result, &out);
  out.hits = options.cost_model.Hits(result.algo.questions_per_round);
  out.cost_usd = result.cost_usd;
  out.results.push_back(std::move(result));
  return out;
}

Outcome RunServiceMix(const Prepared& p, bool audit, RoundClock* clock) {
  std::vector<service::ServiceQuery> queries;
  for (size_t i = 0; i < p.specs.size(); ++i) {
    service::ServiceQuery q;
    q.dataset = &p.data[i];
    q.options = p.specs[i].options;
    // The service chains this in front of its own epoch barrier.
    q.options.round_callback = clock->Callback(static_cast<int>(i));
    queries.push_back(std::move(q));
  }
  service::ServiceOptions options;
  options.max_concurrent = kMaxConcurrent;
  options.max_queue = -1;
  options.total_budget_usd = 0.0;
  options.audit = audit;

  Outcome out;
  out.submitted = static_cast<int>(queries.size());
  clock->Start();
  const Clock::time_point start = Clock::now();
  Result<service::ServiceReport> run = service::RunService(queries, options);
  out.wall_s = Since(start);
  out.first_round_s = clock->first_round_s();
  if (!run.ok()) {
    std::fprintf(stderr, "service failed: %s\n",
                 run.status().ToString().c_str());
    out.failed = out.submitted;
    out.results.resize(queries.size());
    return out;
  }
  service::ServiceReport report = std::move(run).ValueOrDie();
  int ok = 0;
  for (service::QueryOutcome& q : report.queries) {
    if (!q.admitted || !q.status.ok()) {
      std::fprintf(stderr, "query %d failed: %s\n", q.query_id,
                   q.status.ToString().c_str());
      ++out.failed;
    } else {
      AddQueryTotals(q.result, &out);
      ++ok;
    }
    out.results.push_back(std::move(q.result));
  }
  out.f1 = ok > 0 ? out.f1 / ok : 0.0;
  out.hits = report.packing.packed_hits;
  out.cost_usd = report.packing.cost_packed_usd;
  out.epochs = report.packing.epochs;
  out.isolated_hits = report.packing.isolated_hits;
  return out;
}

Outcome Run(Workload workload, const Prepared& p, bool audit,
            RoundClock* clock, CrowdTrace* trace) {
  ResetPeakRss();
  const double steal0 = HostStealS();
  Outcome out = workload == Workload::kServiceMix
                    ? RunServiceMix(p, audit, clock)
                    : RunSingle(p, audit, clock, trace);
  out.peak_rss_mb = PeakRssMb();
  out.steal_share = (HostStealS() - steal0) /
                    (out.wall_s *
                     static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  return out;
}

// Raw record of one call: the end-to-end numbers plus what the digest of
// skyline ids, questions_per_round and cost is taken over.
void WriteOutcome(const Outcome& o, Json* j) {
  j->Open();
  j->Int("instance", o.instance);
  j->Num("wall_s", o.wall_s);
  j->Num("peak_rss_mb", o.peak_rss_mb);
  j->Num("steal_share", o.steal_share);
  j->Int("quiet", o.steal_share <= kQuietStealShare ? 1 : 0);
  j->Num("first_round_s", o.first_round_s);
  j->Int("submitted", o.submitted).Int("failed", o.failed);
  j->Int("questions", o.questions).Int("rounds", o.rounds);
  j->Int("hits", o.hits).Num("cost_usd", o.cost_usd).Num("f1", o.f1);
  j->Int("epochs", o.epochs).Int("isolated_hits", o.isolated_hits);
  j->OpenArray("queries");
  for (const EngineResult& r : o.results) {
    j->Open();
    j->Ints("skyline", r.algo.skyline);
    j->Ints("questions_per_round", r.algo.questions_per_round);
    j->Num("cost_usd", r.cost_usd);
    j->Close();
  }
  j->CloseArray();
  j->Close();
}

// ---------------------------------------------------------------------------
// Per-layer probes: timed calls into each module's public functions.

struct LayerTotals {
  double build_s = 0.0;
  double build_mb = 0.0;
  int64_t known_skyline = 0;
  int64_t dominator_pairs = 0;
  int64_t pool_tasks = 0;
  int64_t pool_steals = 0;
  double oracle_s = 0.0;
  int64_t pair_attempts = 0;
  int64_t worker_answers = 0;
  int64_t free_lookups = 0;
  double replay_s = 0.0;
  double construct_s = 0.0;
  double construct_mb = 0.0;
  int64_t edges = 0;
  int64_t merges = 0;
  int64_t contradictions = 0;
  int64_t undetermined = 0;
  int64_t denied_questions = 0;
  int64_t termination_reason = 0;
  double cost_spent_usd = 0.0;
};

// skyline + common: DominanceStructure(PreferenceMatrix::FromKnown(d)), the
// engine's first call, with the pool's activity around it.
void ProbeStructure(const Dataset& d, LayerTotals* t) {
  const double rss0 = TrimmedRssMb();
  const ThreadPool::StatsSnapshot pool0 = ThreadPool::Global().stats();
  const Clock::time_point start = Clock::now();
  const DominanceStructure ds(PreferenceMatrix::FromKnown(d));
  t->build_s += Since(start);
  const ThreadPool::StatsSnapshot pool1 = ThreadPool::Global().stats();
  t->build_mb = std::max(t->build_mb, CurrentRssMb() - rss0);
  t->pool_tasks += pool1.tasks_executed - pool0.tasks_executed;
  t->pool_steals += pool1.steals - pool0.steals;
  t->known_skyline += static_cast<int64_t>(ds.known_skyline().size());
  for (int i = 0; i < ds.size(); ++i) {
    t->dominator_pairs += static_cast<int64_t>(ds.dominator_bits(i).Count());
  }
}

// prefgraph: a fresh CrowdKnowledge(n, |AC|), then the paid answers
// Record()ed in the order the oracle gave them.
void ProbeKnowledge(const Dataset& d, const CrowdTrace& trace,
                    LayerTotals* t) {
  const double rss0 = TrimmedRssMb();
  Clock::time_point start = Clock::now();
  CrowdKnowledge knowledge(d.size(), d.schema().num_crowd());
  t->construct_s += Since(start);
  t->construct_mb = std::max(t->construct_mb, CurrentRssMb() - rss0);
  start = Clock::now();
  for (const PaidAnswer& a : trace.paid) {
    knowledge.Record(a.attr, a.first, a.second, a.answer).CheckOK();
  }
  t->replay_s += Since(start);
  for (int a = 0; a < knowledge.num_attrs(); ++a) {
    t->edges += knowledge.graph(a).edge_count();
    t->merges += knowledge.graph(a).merge_count();
  }
  t->contradictions += knowledge.contradiction_count();
}

// crowd + algo + core (governor): what the traced call reported.
void AddResult(const EngineResult& r, const CrowdTrace& trace,
               LayerTotals* t) {
  t->oracle_s += trace.oracle_s;
  t->pair_attempts += trace.pair_attempts;
  t->worker_answers += r.algo.worker_answers;
  t->free_lookups += r.algo.free_lookups;
  t->undetermined +=
      static_cast<int64_t>(r.algo.completeness.undetermined_tuples.size());
  t->denied_questions += r.algo.termination.denied_questions;
  t->termination_reason =
      std::max(t->termination_reason,
               static_cast<int64_t>(r.algo.termination.reason));
  t->cost_spent_usd += r.algo.termination.cost_spent_usd;
}

void WriteLayers(const LayerTotals& t, Json* j) {
  j->Num("build_s", t.build_s).Num("build_mb", t.build_mb);
  j->Int("known_skyline", t.known_skyline);
  j->Int("dominator_pairs", t.dominator_pairs);
  j->Int("pool_tasks", t.pool_tasks).Int("pool_steals", t.pool_steals);
  j->Num("oracle_s", t.oracle_s).Int("pair_attempts", t.pair_attempts);
  j->Int("worker_answers", t.worker_answers);
  j->Int("free_lookups", t.free_lookups);
  j->Num("replay_s", t.replay_s).Num("construct_s", t.construct_s);
  j->Num("construct_mb", t.construct_mb);
  j->Int("edges", t.edges).Int("merges", t.merges);
  j->Int("contradictions", t.contradictions);
  j->Int("undetermined", t.undetermined);
  j->Int("denied_questions", t.denied_questions);
  j->Int("termination_reason", t.termination_reason);
  j->Str("termination_reason_name",
         TerminationReasonName(
             static_cast<TerminationReason>(t.termination_reason)));
  j->Num("cost_spent_usd", t.cost_spent_usd);
}

// persist: the finished journal, read back and re-appended at the run's
// SyncMode into a scratch file.
void ProbeJournal(const std::string& dir, const EngineResult& r, Json* j) {
  const std::string journal = dir + "/journal.bin";
  const std::string checkpoint = dir + "/checkpoint.bin";
  const std::string scratch = dir + "/reappend.bin";
  Clock::time_point start = Clock::now();
  const persist::RecoveredJournal recovered =
      persist::ReadJournal(journal).ValueOrDie();
  const double read_s = Since(start);
  start = Clock::now();
  {
    std::unique_ptr<persist::JournalWriter> writer =
        persist::JournalWriter::Create(scratch, recovered.fingerprint,
                                       persist::SyncMode::kFlush)
            .ValueOrDie();
    for (const persist::JournalRecord& rec : recovered.records) {
      writer->Append(rec).CheckOK();
    }
    writer->Sync().CheckOK();
  }
  const double append_s = Since(start);
  j->Int("persist_records", static_cast<int64_t>(recovered.records.size()));
  j->Int("engine_journal_records", r.durability.journal_records);
  j->Int("persist_bytes",
         static_cast<int64_t>(std::filesystem::file_size(journal)));
  j->Int("checkpoint_bytes",
         std::filesystem::exists(checkpoint)
             ? static_cast<int64_t>(std::filesystem::file_size(checkpoint))
             : 0);
  j->Num("read_s", read_s).Num("append_s", append_s);
  std::filesystem::remove(scratch);
}

// ---------------------------------------------------------------------------
// Modes.

struct Args {
  std::string mode;
  Workload workload = Workload::kAnt10kSl;
  std::string workload_name;
  uint64_t seed = 42;
  double seconds = 10.0;
  std::string tmp;
};

void WriteStamp(const Args& a, Json* j) {
  const char* threads_env = std::getenv("CROWDSKY_THREADS");
  j->Open("stamp");
#if defined(__clang__)
  j->Str("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  j->Str("compiler", std::string("g++ ") + __VERSION__);
#endif
  j->Str("build_type", PERFBENCH_BUILD_TYPE);
  j->Str("kernel_backend", KernelBackendName(SelectedKernelBackend()));
  j->Int("nproc", sysconf(_SC_NPROCESSORS_ONLN));
  j->Int("pool_threads", ThreadPool::Global().num_threads());
  j->Str("crowdsky_threads_env", threads_env != nullptr ? threads_env : "");
  j->Int("max_concurrent",
         a.workload == Workload::kServiceMix ? kMaxConcurrent : 1);
  j->Str("workload", a.workload_name);
  j->Int("seed", static_cast<int64_t>(a.seed));
  j->Close();
}

// Set-up is short next to a query, so it is repeated this many times per
// measure run and reported as every sample (run.py takes the median).
constexpr int kSetupSamples = 101;

// Measuring goes past --seconds, up to kMaxStretch times it, until this
// many calls were quiet.
constexpr int kQuietCalls = 3;
constexpr double kMaxStretch = 1.75;

// The warm-up runs the workload on datasets this many times smaller.
constexpr int kWarmUpShrink = 10;

// One untimed call first on small datasets of the same workload, so that
// the pool's workers, the heap and the code are warm before the first
// timed call. It is not digested: its data differ from every instance's.
void WarmUp(const Args& a) {
  ReferenceS();
  const Prepared p = Setup(a.workload, a.seed, a.tmp, kWarmUpShrink);
  RoundClock clock(/*keep_all=*/false, static_cast<int>(p.specs.size()));
  Run(a.workload, p, /*audit=*/false, &clock, nullptr);
}

void Measure(const Args& a, Json* j) {
  WarmUp(a);
  const int instances = Instances(a.workload);
  // ref_s brackets the set-up samples and every timed call.
  std::vector<double> ref_s = {ReferenceS()};
  // The set-up samples come before the timed calls, each from a trimmed
  // heap: how much freed memory the allocator still holds differs from
  // process to process, and so does the cost of the set-up's page faults.
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupSamples; ++i) {
    malloc_trim(0);
    const Clock::time_point setup_start = Clock::now();
    const Prepared p =
        Setup(a.workload, InstanceSeed(a.seed, i % instances), a.tmp);
    setup_s.push_back(Since(setup_start));
  }
  j->Nums("setup_s", setup_s);
  ref_s.push_back(ReferenceS());

  j->OpenArray("runs");
  const Clock::time_point start = Clock::now();
  int calls = 0;
  int quiet = 0;
  while (calls < instances || Since(start) < a.seconds ||
         (quiet < kQuietCalls && Since(start) < kMaxStretch * a.seconds)) {
    const int instance = calls % instances;
    const Prepared p =
        Setup(a.workload, InstanceSeed(a.seed, instance), a.tmp);
    RoundClock clock(/*keep_all=*/false, static_cast<int>(p.specs.size()));
    Outcome o = Run(a.workload, p, /*audit=*/false, &clock, nullptr);
    o.instance = instance;
    WriteOutcome(o, j);
    if (o.steal_share <= kQuietStealShare) ++quiet;
    ++calls;
    ref_s.push_back(ReferenceS());
  }
  j->CloseArray();
  j->Nums("ref_s", ref_s);
}

void Audit(const Args& a, Json* j) {
  const Prepared p = Setup(a.workload, a.seed, a.tmp);
  RoundClock clock(/*keep_all=*/false, static_cast<int>(p.specs.size()));
  const Outcome o = Run(a.workload, p, /*audit=*/true, &clock, nullptr);
  j->OpenArray("runs");
  WriteOutcome(o, j);
  j->CloseArray();
}

void Trace(const Args& a, Json* j) {
  WarmUp(a);
  std::vector<double> ref_s = {ReferenceS()};
  const Prepared p = Setup(a.workload, a.seed, a.tmp);
  j->Num("data_generate_s", p.generate_s);
  const bool service = a.workload == Workload::kServiceMix;
  const int queries = static_cast<int>(p.specs.size());

  // Untraced call first: the base of trace_overhead_frac.
  j->OpenArray("runs");
  {
    RoundClock clock(/*keep_all=*/false, queries);
    WriteOutcome(Run(a.workload, p, false, &clock, nullptr), j);
  }

  LayerTotals layers;
  std::vector<double> gaps_ms;
  double isolated_sum_s = 0.0;
  if (!service) {
    ProbeStructure(p.data[0], &layers);
    // A fresh set-up: the journal directory must start empty.
    const Prepared fresh = Setup(a.workload, a.seed, a.tmp);
    RoundClock clock(/*keep_all=*/true, 1);
    CrowdTrace trace;
    const Outcome o = RunSingle(fresh, false, &clock, &trace);
    WriteOutcome(o, j);
    j->CloseArray();
    gaps_ms = clock.GapsMs();
    AddResult(o.results[0], trace, &layers);
    ProbeKnowledge(fresh.data[0], trace, &layers);
    if (a.workload == Workload::kAnt10kSl) {
      ProbeJournal(fresh.specs[0].options.durability.dir, o.results[0], j);
    }
  } else {
    // Traced service call: every round timestamp, nothing else — the
    // service owns the oracle seam, so crowd, prefgraph and algo numbers
    // come from each query run alone below.
    RoundClock clock(/*keep_all=*/true, queries);
    const Outcome o = RunServiceMix(p, false, &clock);
    WriteOutcome(o, j);
    j->CloseArray();
    gaps_ms = clock.GapsMs();
    for (int i = 0; i < queries; ++i) {
      Prepared alone;
      alone.specs.push_back(p.specs[static_cast<size_t>(i)]);
      alone.data.push_back(p.data[static_cast<size_t>(i)]);
      ProbeStructure(alone.data[0], &layers);
      RoundClock alone_clock(/*keep_all=*/false, 1);
      CrowdTrace trace;
      const Outcome io = RunSingle(alone, false, &alone_clock, &trace);
      isolated_sum_s += io.wall_s;
      AddResult(io.results[0], trace, &layers);
      ProbeKnowledge(alone.data[0], trace, &layers);
    }
  }
  j->Nums("round_gaps_ms", gaps_ms);
  j->Num("isolated_sum_s", isolated_sum_s);
  WriteLayers(layers, j);
  ref_s.push_back(ReferenceS());
  j->Nums("ref_s", ref_s);
}

// Timing a Debug or sanitizer build would measure the instrumentation.
bool TimeableBuild(std::string* why) {
#ifndef NDEBUG
  *why = "assertions are on (not an optimized build)";
  return false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  *why = "sanitizer build";
  return false;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  *why = "sanitizer build";
  return false;
#endif
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    *why = std::string("build type is '") + PERFBENCH_BUILD_TYPE +
           "', not Release";
    return false;
  }
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver measure|trace|audit --workload "
               "ant10k_sl|ind2k_capped|service_mix --seed N --tmp DIR "
               "[--seconds T]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Args a;
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload_name = value;
      if (!ParseWorkload(value, &a.workload)) return Usage();
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--tmp") {
      a.tmp = value;
    } else {
      return Usage();
    }
  }
  if (a.workload_name.empty() || a.tmp.empty()) return Usage();
  if (a.mode != "measure" && a.mode != "trace" && a.mode != "audit") {
    return Usage();
  }
  std::string why;
  if (a.mode != "audit" && !TimeableBuild(&why)) {
    std::fprintf(stderr, "perfbench: refusing to time this build: %s\n",
                 why.c_str());
    return 3;
  }
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  if (a.workload == Workload::kServiceMix && nproc < kMaxConcurrent) {
    std::fprintf(stderr,
                 "perfbench: service_mix runs %d driver threads but only %ld "
                 "processors are online\n",
                 kMaxConcurrent, nproc);
    return 3;
  }
  // Start the pool before any timed call: its lazy creation is process
  // set-up, not query time.
  ThreadPool::Global();

  Json j;
  j.Open();
  WriteStamp(a, &j);
  if (a.mode == "measure") {
    Measure(a, &j);
  } else if (a.mode == "trace") {
    Trace(a, &j);
  } else {
    Audit(a, &j);
  }
  j.Close();
  std::printf("%s\n", j.str().c_str());
  return 0;
}
