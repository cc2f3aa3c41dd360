// Metric primitives of the observability layer (src/obs): a thread-safe
// registry of named counters, gauges and histograms.
//
// Design constraints (see DESIGN.md "Observability"):
//  * nothing on the crowd hot path: the engine and the service write every
//    metric once, at the end of the run, from the ledger that owns the
//    number (SessionStats, the per-round history, the journal writer, the
//    governor, the service's packing ledger), so a metric cannot drift
//    from its ledger and disabled observability costs nothing,
//  * deterministic quantities only: apart from the `pool.*` thread-pool
//    deltas, every metric is bit-identical across runs of the same
//    configuration; wall-clock timing lives in the trace collector
//    (obs/trace.h), never in a counter,
//  * exports are stable: samples are emitted sorted by name, so two runs
//    of the same configuration produce byte-identical counter dumps.
//
// The registry hands out stable pointers (node-based map + unique_ptr), so
// a returned metric stays valid for the registry's lifetime.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"

namespace crowdsky::obs {

/// Monotonically increasing integer metric. All operations are relaxed
/// atomics: counters never order other memory.
class Counter {
 public:
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins floating-point metric (scraped quantities: cost in
/// dollars, pool high-water marks, ...).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Power-of-two bucketed histogram of non-negative integers (round sizes,
/// span durations in microseconds). Bucket i counts observations with
/// value <= BucketBound(i); the last bucket is unbounded (+Inf).
class Histogram {
 public:
  /// le bounds 1, 2, 4, ..., 2^19, +Inf.
  static constexpr int kBuckets = 21;

  void Observe(int64_t value) {
    if (value < 0) value = 0;
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Observations landing in bucket `i` (not cumulative).
  int64_t bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Inclusive upper bound of bucket `i`; the last bucket has no bound.
  static int64_t BucketBound(int i) { return int64_t{1} << i; }
  static int BucketIndex(int64_t value) {
    for (int i = 0; i < kBuckets - 1; ++i) {
      if (value <= BucketBound(i)) return i;
    }
    return kBuckets - 1;
  }

 private:
  std::atomic<int64_t> buckets_[kBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
};

/// \brief Thread-safe find-or-create registry of named metrics.
///
/// Metric names are dotted lowercase ("crowdsky.rounds", "pool.steals").
/// The registry owns its metrics; returned pointers stay valid for the
/// registry's lifetime. A name may carry exactly one metric kind —
/// re-registering it as a different kind is a programming error.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  CROWDSKY_DISALLOW_COPY(MetricRegistry);

  Counter* FindOrCreateCounter(std::string_view name);
  Gauge* FindOrCreateGauge(std::string_view name);
  Histogram* FindOrCreateHistogram(std::string_view name);

  /// The counter's current value, or 0 when no such counter exists.
  int64_t CounterValue(std::string_view name) const;
  /// True iff a counter with this exact name exists.
  bool HasCounter(std::string_view name) const;

  /// All counters as (name, value), sorted by name. Histograms are
  /// flattened into "<name>_count" / "<name>_sum" entries so callers see
  /// one uniform deterministic integer surface.
  std::vector<std::pair<std::string, int64_t>> CounterSamples() const;
  /// All gauges as (name, value), sorted by name.
  std::vector<std::pair<std::string, double>> GaugeSamples() const;

  /// Prometheus text exposition (one "# TYPE" line per metric, names
  /// sanitized to [a-zA-Z0-9_], histograms with cumulative le buckets).
  std::string PrometheusText() const;

 private:
  /// Guards the maps, not the metric values — handed-out Counter*/Gauge*/
  /// Histogram* pointers are updated lock-free through their own atomics.
  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      CROWDSKY_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      CROWDSKY_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      CROWDSKY_GUARDED_BY(mutex_);
};

/// Writes PrometheusText() to `path` (atomic enough for scrape files:
/// plain truncate + write).
Status WritePrometheusText(const std::string& path,
                           const MetricRegistry& registry);

}  // namespace crowdsky::obs
