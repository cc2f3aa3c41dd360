// Trace demo: capture a Chrome trace and a Prometheus metrics dump from a
// faulty, durable CrowdSky run.
//
// Runs ParallelSL against a simulated marketplace with fault injection and
// the answer journal on, with observability at full level, then writes
//   argv[1]  Chrome trace-event JSON  (open in chrome://tracing / Perfetto)
//   argv[2]  Prometheus text metrics  (the deterministic counter catalog)
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/trace_demo /tmp/crowdsky_trace.json /tmp/crowdsky.prom
#include <cstdio>
#include <filesystem>

#include "core/crowdsky.h"

using namespace crowdsky;  // NOLINT

int main(int argc, char** argv) {
  const char* trace_path =
      argc > 1 ? argv[1] : "crowdsky_trace.json";
  const char* metrics_path = argc > 2 ? argv[2] : "crowdsky_metrics.prom";

  GeneratorOptions gen;
  gen.cardinality = 150;
  gen.num_known = 3;
  gen.num_crowd = 2;
  gen.seed = 11;
  const Dataset dataset = GenerateDataset(gen).ValueOrDie();

  const std::filesystem::path journal_dir =
      std::filesystem::temp_directory_path() / "crowdsky_trace_demo";
  std::error_code ec;
  std::filesystem::remove_all(journal_dir, ec);

  EngineOptions options;
  options.algorithm = Algorithm::kParallelSL;
  // A realistic (faulty) marketplace so the trace shows retries, backoff
  // and degraded quorums, not just the happy path.
  options.oracle = OracleKind::kMarketplace;
  options.marketplace.pool_size = 80;
  options.marketplace.population.p_correct = 0.95;
  options.marketplace.faults.transient_error_rate = 0.05;
  options.marketplace.faults.worker_no_show_rate = 0.10;
  options.durability.dir = journal_dir.string();
  options.crowdsky.audit = true;
  options.obs.level = obs::ObsLevel::kFull;
  options.obs.trace_path = trace_path;
  options.obs.metrics_path = metrics_path;

  const auto r = RunSkylineQuery(dataset, options);
  r.status().CheckOK();

  std::printf("skyline size:   %zu of %d tuples\n", r->algo.skyline.size(),
              dataset.size());
  std::printf("questions:      %lld in %lld rounds ($%.2f)\n",
              static_cast<long long>(r->algo.questions),
              static_cast<long long>(r->algo.rounds), r->cost_usd);
  std::printf("retries:        %lld (%lld failed attempts)\n",
              static_cast<long long>(r->algo.retries),
              static_cast<long long>(r->algo.failed_attempts));
  std::printf("journal:        %lld records\n",
              static_cast<long long>(r->durability.journal_records));
  std::printf("trace events:   %lld -> %s\n",
              static_cast<long long>(r->obs.trace_events), trace_path);
  std::printf("counters:       %zu -> %s\n", r->obs.counters.size(),
              metrics_path);
  std::filesystem::remove_all(journal_dir, ec);
  return 0;
}
