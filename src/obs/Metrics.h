//===- Metrics.h - Metric catalog and fixed-bucket histograms -------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metrics half of the observability spine (docs/observability.md):
/// a `MetricsRegistry` catalog of read-time counters, read-time gauges and
/// latency histograms. Each entry is registered once with its Prometheus
/// name, its help text and its path in the JSON exposition, and the
/// registry renders that one list both ways, so the daemon's `metrics`
/// and `stats` ops cannot drift apart. Design points:
///
///   - Histograms use one fixed 1-2-5 bucket ladder (1µs .. 60s plus an
///     overflow bucket). Fixed buckets make quantiles deterministic: a
///     quantile is the upper bound of the bucket containing the ranked
///     sample, so two parties that share the bucket counts compute the
///     byte-identical p50/p99. That property is what lets benches assert
///     their client-side math agrees with the daemon's `stats` op.
///   - Histograms are lock-free (atomics); the registry itself locks only
///     on registration and render.
///   - Counters and gauges are callbacks read at render time, so the
///     counters keep living where they are bumped (service, cache, queue,
///     SimStats) and nothing is counted twice.
///
//===----------------------------------------------------------------------===//

#ifndef ASDF_OBS_METRICS_H
#define ASDF_OBS_METRICS_H

#include "support/Json.h"

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace asdf {
namespace obs {

/// Fixed-bucket latency histogram over seconds. Bounds are a 1-2-5
/// decimal ladder from 1µs to 50s capped with 60s; observations above
/// the last finite bound land in the overflow bucket.
class Histogram {
public:
  /// Finite upper bounds in seconds, ascending.
  static constexpr size_t NumFinite = 25;
  /// NumFinite + 1: the last bucket is +Inf (overflow).
  static constexpr size_t NumBuckets = NumFinite + 1;
  static const std::array<double, NumFinite> &bounds();

  Histogram() = default;
  Histogram(const Histogram &) = delete;
  Histogram &operator=(const Histogram &) = delete;

  void observe(double Seconds);

  uint64_t count() const { return Cnt.load(std::memory_order_relaxed); }
  double sum() const { return Sum.load(std::memory_order_relaxed); }
  uint64_t bucketCount(size_t I) const {
    return Buckets[I].load(std::memory_order_relaxed);
  }

  /// Quantile estimate: the upper bound of the bucket containing the
  /// sample of rank ceil(q * count). Deterministic given the bucket
  /// counts — overflow maps to the largest finite bound, empty to 0.
  double quantile(double Q) const;

  /// {buckets: [..], count, sum, p50, p90, p99} — the `stats` op's wire
  /// form, re-loadable with fromJson for client-side re-derivation.
  json::Value toJson() const;

  /// Rebuilds a histogram from toJson() output; false on shape mismatch
  /// (wrong bucket count / missing fields).
  static bool fromJson(const json::Value &V, Histogram &Out);

private:
  std::array<std::atomic<uint64_t>, NumBuckets> Buckets{};
  std::atomic<uint64_t> Cnt{0};
  std::atomic<double> Sum{0.0};
};

/// The metric catalog of one component. Registration dedups by name: a
/// second registration of a name keeps the first entry (and histogram()
/// returns its histogram). An entry with an empty path appears only in
/// the Prometheus rendering.
class MetricsRegistry {
public:
  /// A latency histogram owned by the registry; \p Path places it in the
  /// JSON exposition ("latency.compile").
  Histogram &histogram(const std::string &Name, const std::string &Path,
                       const std::string &Help);
  /// Counter/gauge whose value is read from \p Fn at render time; \p Path
  /// places it in the JSON exposition ("cache.hits", "workers").
  void counterFn(const std::string &Name, const std::string &Path,
                 const std::string &Help, std::function<uint64_t()> Fn);
  void gaugeFn(const std::string &Name, const std::string &Path,
               const std::string &Help, std::function<double()> Fn);

  /// Full exposition: # HELP / # TYPE / samples, histogram `_bucket`
  /// lines cumulative with `le` labels plus `_sum` and `_count`.
  std::string renderPrometheus() const;

  /// JSON exposition: one object holding every entry that has a path,
  /// nested by the dots of its path, in registration order. Counters and
  /// whole-valued gauges are JSON integers (exact through asU64), other
  /// gauges are numbers, histograms their Histogram::toJson form.
  json::Value toJson() const;

private:
  enum class Kind { Counter, Gauge, Histogram };
  struct Entry {
    std::string Name, Path, Help;
    Kind K;
    std::function<uint64_t()> CFn;
    std::function<double()> GFn;
    std::unique_ptr<obs::Histogram> H;
  };

  /// The entry named \p Name, appended if new. Callers hold Mu.
  Entry &add(Kind K, const std::string &Name, const std::string &Path,
             const std::string &Help);

  mutable std::mutex Mu;
  std::vector<Entry> Entries;
};

} // namespace obs
} // namespace asdf

#endif // ASDF_OBS_METRICS_H
