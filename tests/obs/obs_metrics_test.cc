#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/observer.h"
#include "testing/temp_dir.h"

namespace crowdsky::obs {
namespace {

TEST(CounterTest, AddsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(CounterTest, ConcurrentAddsAllLand) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), int64_t{kThreads} * kPerThread);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge g;
  g.Set(3.25);
  g.Set(-1.5);
  EXPECT_EQ(g.value(), -1.5);
}

TEST(HistogramTest, BucketBoundariesArePowersOfTwo) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 0);
  EXPECT_EQ(Histogram::BucketIndex(2), 1);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 2);
  EXPECT_EQ(Histogram::BucketIndex(5), 3);
  // Past the last finite bound everything lands in the +Inf bucket.
  EXPECT_EQ(Histogram::BucketIndex(int64_t{1} << 40),
            Histogram::kBuckets - 1);
}

TEST(HistogramTest, CountSumAndBuckets) {
  Histogram h;
  h.Observe(1);
  h.Observe(1);
  h.Observe(5);
  h.Observe(-7);  // clamped to 0
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.sum(), 7);
  EXPECT_EQ(h.bucket(0), 3);  // 1, 1, 0
  EXPECT_EQ(h.bucket(3), 1);  // 5 -> le 8
}

TEST(MetricRegistryTest, FindOrCreateReturnsStablePointers) {
  MetricRegistry reg;
  Counter* a = reg.FindOrCreateCounter("crowdsky.rounds");
  // Force rebalancing-ish growth; node-based map keeps pointers stable.
  for (int i = 0; i < 100; ++i) {
    reg.FindOrCreateCounter("c." + std::to_string(i));
  }
  EXPECT_EQ(reg.FindOrCreateCounter("crowdsky.rounds"), a);
  a->Add(3);
  EXPECT_EQ(reg.CounterValue("crowdsky.rounds"), 3);
  EXPECT_TRUE(reg.HasCounter("crowdsky.rounds"));
  EXPECT_FALSE(reg.HasCounter("crowdsky.missing"));
  EXPECT_EQ(reg.CounterValue("crowdsky.missing"), 0);
}

TEST(MetricRegistryTest, SamplesAreSortedAndFlattenHistograms) {
  MetricRegistry reg;
  reg.FindOrCreateCounter("b.counter")->Add(2);
  reg.FindOrCreateCounter("a.counter")->Add(1);
  Histogram* h = reg.FindOrCreateHistogram("a.hist");
  h->Observe(3);
  h->Observe(5);
  const auto samples = reg.CounterSamples();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples[0].first, "a.counter");
  EXPECT_EQ(samples[1].first, "a.hist_count");
  EXPECT_EQ(samples[1].second, 2);
  EXPECT_EQ(samples[2].first, "a.hist_sum");
  EXPECT_EQ(samples[2].second, 8);
  EXPECT_EQ(samples[3].first, "b.counter");
}

TEST(MetricRegistryTest, ConcurrentFindOrCreateIsSafe) {
  MetricRegistry reg;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < 500; ++i) {
        reg.FindOrCreateCounter("shared.counter")->Increment();
        reg.FindOrCreateCounter("k." + std::to_string(i % 17));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(reg.CounterValue("shared.counter"), kThreads * 500);
}

TEST(MetricRegistryTest, PrometheusTextFormat) {
  MetricRegistry reg;
  reg.FindOrCreateCounter("crowdsky.pair_attempts")->Add(7);
  reg.FindOrCreateGauge("crowdsky.cost_usd")->Set(1.25);
  Histogram* h = reg.FindOrCreateHistogram("crowdsky.round_questions");
  h->Observe(1);
  h->Observe(3);
  const std::string text = reg.PrometheusText();
  // Names sanitized to [a-zA-Z0-9_:], one TYPE line per metric.
  EXPECT_NE(text.find("# TYPE crowdsky_pair_attempts counter"),
            std::string::npos);
  EXPECT_NE(text.find("crowdsky_pair_attempts 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE crowdsky_cost_usd gauge"), std::string::npos);
  EXPECT_NE(text.find("crowdsky_cost_usd 1.25"), std::string::npos);
  EXPECT_NE(text.find("# TYPE crowdsky_round_questions histogram"),
            std::string::npos);
  // Cumulative le buckets: the le="2" bucket holds both observations, and
  // the +Inf bucket equals the count.
  EXPECT_NE(text.find("crowdsky_round_questions_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("crowdsky_round_questions_bucket{le=\"4\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("crowdsky_round_questions_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("crowdsky_round_questions_count 2"),
            std::string::npos);
  EXPECT_NE(text.find("crowdsky_round_questions_sum 4"), std::string::npos);
}

// Gauges outside long long's range must never reach the integer cast
// (undefined behaviour); they print in %.17g form like any fraction.
TEST(MetricRegistryTest, PrometheusTextFormatsHugeAndNonFiniteGauges) {
  MetricRegistry reg;
  reg.FindOrCreateGauge("g.huge")->Set(1e300);
  reg.FindOrCreateGauge("g.inf")->Set(std::numeric_limits<double>::infinity());
  reg.FindOrCreateGauge("g.nan")->Set(
      std::numeric_limits<double>::quiet_NaN());
  reg.FindOrCreateGauge("g.whole")->Set(-3.0);
  const std::string text = reg.PrometheusText();
  EXPECT_NE(text.find("g_huge 1.0000000000000001e+300\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("g_inf inf\n"), std::string::npos) << text;
  EXPECT_NE(text.find("g_nan nan\n"), std::string::npos) << text;
  EXPECT_NE(text.find("g_whole -3\n"), std::string::npos) << text;
}

TEST(MetricRegistryTest, PrometheusDumpIsDeterministic) {
  auto build = [] {
    auto reg = std::make_unique<MetricRegistry>();
    reg->FindOrCreateCounter("z.last")->Add(1);
    reg->FindOrCreateCounter("a.first")->Add(2);
    reg->FindOrCreateGauge("m.gauge")->Set(0.5);
    return reg;
  };
  EXPECT_EQ(build()->PrometheusText(), build()->PrometheusText());
}

TEST(MetricRegistryTest, WritePrometheusTextRoundTrips) {
  MetricRegistry reg;
  reg.FindOrCreateCounter("crowdsky.rounds")->Add(5);
  const std::string path =
      crowdsky::testing::FreshTempPath("metrics.prom");
  ASSERT_TRUE(WritePrometheusText(path, reg).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, reg.PrometheusText());
}

TEST(MetricRegistryTest, WritePrometheusTextFailsOnBadPath) {
  MetricRegistry reg;
  EXPECT_FALSE(
      WritePrometheusText("/nonexistent-dir/x/metrics.prom", reg).ok());
}

TEST(RunObserverTest, DisabledHandsOutNullHandles) {
  RunObserver obs(ObsLevel::kDisabled);
  EXPECT_FALSE(obs.counters_enabled());
  EXPECT_FALSE(obs.tracing_enabled());
  {
    TraceSpan span = obs.Span("should.not.record");
  }
  EXPECT_EQ(obs.trace().event_count(), 0);
  EXPECT_TRUE(obs.metrics().CounterSamples().empty());
}

TEST(RunObserverTest, CountersLevelCountsButDoesNotTrace) {
  RunObserver obs(ObsLevel::kCounters);
  EXPECT_TRUE(obs.counters_enabled());
  EXPECT_FALSE(obs.tracing_enabled());
  obs.metrics().FindOrCreateCounter("crowdsky.rounds")->Add(2);
  EXPECT_EQ(obs.metrics().CounterValue("crowdsky.rounds"), 2);
  {
    TraceSpan span = obs.Span("should.not.record");
  }
  EXPECT_EQ(obs.trace().event_count(), 0);
}

TEST(RunObserverTest, FullLevelTraces) {
  RunObserver obs(ObsLevel::kFull);
  EXPECT_TRUE(obs.tracing_enabled());
  {
    TraceSpan span = obs.Span("work");
  }
  EXPECT_EQ(obs.trace().event_count(), 1);
}

TEST(ObsLevelTest, Names) {
  EXPECT_STREQ(ObsLevelName(ObsLevel::kDisabled), "disabled");
  EXPECT_STREQ(ObsLevelName(ObsLevel::kCounters), "counters");
  EXPECT_STREQ(ObsLevelName(ObsLevel::kFull), "full");
}

}  // namespace
}  // namespace crowdsky::obs
