#pragma once
// Statistics primitives: counters, running scalar statistics and
// fixed-bucket histograms. Every hardware model exposes its observable
// behaviour (injected/delivered flits, latencies, occupancy) through these
// so that tests and benches read results uniformly.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace daelite::sim {

class JsonValue;

/// Monotonic event counter — the simplest observable. Exists (rather than a
/// bare uint64) so counters serialize uniformly with the other stats.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  void reset() { value_ = 0; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Accumulates count / sum / min / max of a scalar sample stream; derives
/// mean and population variance via Welford's online algorithm (the naive
/// sum-of-squares formula cancels catastrophically for large means and can
/// go negative; Welford's M2 is a sum of squared deviations and cannot).
class ScalarStat {
 public:
  void add(double v) {
    ++count_;
    sum_ += v;
    const double delta = v - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (v - mean_);
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  /// Fold another stream into this one (Chan et al. parallel combine).
  void merge(const ScalarStat& o) {
    if (o.count_ == 0) return;
    if (count_ == 0) {
      *this = o;
      return;
    }
    const double n1 = static_cast<double>(count_);
    const double n2 = static_cast<double>(o.count_);
    const double delta = o.mean_ - mean_;
    mean_ += delta * n2 / (n1 + n2);
    m2_ += o.m2_ + delta * delta * n1 * n2 / (n1 + n2);
    count_ += o.count_;
    sum_ += o.sum_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

  void reset() { *this = ScalarStat{}; }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double variance() const {
    if (count_ == 0) return 0.0;
    return std::max(0.0, m2_ / static_cast<double>(count_));
  }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0; ///< sum of squared deviations from the running mean
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// A sampled instantaneous value (utilization, fragmentation, queue
/// depth): remembers the most recent sample and accumulates the
/// distribution of every sample seen via ScalarStat. Unlike a Counter it
/// can move both ways; unlike a bare ScalarStat the "current" reading
/// stays addressable for report gauges.
class Gauge {
 public:
  void set(double v) {
    last_ = v;
    stat_.add(v);
  }

  void reset() { *this = Gauge{}; }

  double last() const { return last_; }
  std::uint64_t samples() const { return stat_.count(); }
  double mean() const { return stat_.mean(); }
  double min() const { return stat_.min(); }
  double max() const { return stat_.max(); }
  const ScalarStat& stat() const { return stat_; }

 private:
  double last_ = 0.0;
  ScalarStat stat_;
};

/// Integer histogram with unit-width buckets plus an overflow bucket;
/// supports exact quantile queries over recorded samples. The bucket
/// array starts at the constructed capacity and grows geometrically (to
/// the next power of two covering the sample, at least doubling) up to
/// kMaxBuckets, so long-run latencies keep exact quantiles instead of
/// saturating p50/p90/p99 at max() once samples pass the initial
/// capacity. Only samples >= kMaxBuckets land in the overflow bucket.
class Histogram {
 public:
  /// Hard ceiling on bucket growth (8 MiB of counters) — samples at or
  /// beyond this are counted in overflow_ and treated as +inf by
  /// quantile().
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;

  explicit Histogram(std::size_t capacity = 1024) : buckets_(capacity, 0) {}

  void add(std::uint64_t v) {
    scalar_.add(static_cast<double>(v));
    if (v >= buckets_.size()) grow_for(v);
    if (v < buckets_.size()) {
      ++buckets_[static_cast<std::size_t>(v)];
    } else {
      ++overflow_;
    }
  }

  void reset() {
    std::fill(buckets_.begin(), buckets_.end(), 0);
    overflow_ = 0;
    scalar_.reset();
  }

  /// Fold another histogram into this one, growing first so no exact
  /// sample degrades to overflow. Only counts already in o's overflow
  /// bucket stay overflow.
  void merge(const Histogram& o) {
    for (std::size_t i = o.buckets_.size(); i-- > buckets_.size();) {
      if (o.buckets_[i] != 0) {
        grow_for(static_cast<std::uint64_t>(i));
        break;
      }
    }
    for (std::size_t i = 0; i < o.buckets_.size(); ++i) {
      if (o.buckets_[i] == 0) continue;
      if (i < buckets_.size()) {
        buckets_[i] += o.buckets_[i];
      } else {
        overflow_ += o.buckets_[i];
      }
    }
    overflow_ += o.overflow_;
    scalar_.merge(o.scalar_);
  }

  std::uint64_t count() const { return scalar_.count(); }
  std::uint64_t overflow() const { return overflow_; }
  double mean() const { return scalar_.mean(); }
  double min() const { return scalar_.min(); }
  double max() const { return scalar_.max(); }
  std::uint64_t bucket(std::size_t i) const { return i < buckets_.size() ? buckets_[i] : 0; }

  /// Value v such that at least q (in [0,1]) of the samples are <= v.
  /// Samples that landed in the overflow bucket are treated as +inf, so a
  /// quantile that falls there returns max().
  std::uint64_t quantile(double q) const;

 private:
  /// Grow the bucket array to cover sample v (next power of two past v,
  /// at least doubling), capped at kMaxBuckets. No-op if v is already
  /// covered or past the cap.
  void grow_for(std::uint64_t v);

  std::vector<std::uint64_t> buckets_;
  std::uint64_t overflow_ = 0;
  ScalarStat scalar_;
};

/// Histogram for host-time samples (wall-clock nanoseconds), which span
/// many decades: log-linear buckets, exact below 2^kExactBits and, above,
/// 2^(kExactBits-1) equal-width buckets per power of two. A quantile is
/// the upper edge of its bucket clamped to max(), so it never undershoots
/// and overshoots the true sample by less than kMaxRelativeError. The
/// whole uint64 range fits in at most 7 424 buckets, so nothing saturates.
/// Sim-cycle latencies keep the exact Histogram above.
class LogHistogram {
 public:
  static constexpr unsigned kExactBits = 8;
  static constexpr double kMaxRelativeError =
      1.0 / static_cast<double>(std::uint64_t{1} << (kExactBits - 1));

  void add(std::uint64_t v) {
    scalar_.add(static_cast<double>(v));
    const std::size_t i = bucket_of(v);
    if (i >= buckets_.size()) buckets_.resize(i + 1, 0);
    ++buckets_[i];
  }

  std::uint64_t count() const { return scalar_.count(); }
  double mean() const { return scalar_.mean(); }
  double min() const { return scalar_.min(); }
  double max() const { return scalar_.max(); }

  /// Value v such that at least q (in [0,1]) of the samples are <= v, up
  /// to the bucket resolution (see the class comment).
  std::uint64_t quantile(double q) const;

  /// Bucket index of sample v, and the largest sample bucket i holds.
  static std::size_t bucket_of(std::uint64_t v);
  static std::uint64_t bucket_upper(std::size_t i);

 private:
  std::vector<std::uint64_t> buckets_;
  ScalarStat scalar_;
};

// JSON serialization hooks (see sim/json.hpp) — every stats primitive maps
// to one object so batch runs and benches emit a uniform schema.
JsonValue to_json(const Counter& c);
JsonValue to_json(const ScalarStat& s);
/// last/mean/min/max/samples of the gauge's sample stream.
JsonValue to_json(const Gauge& g);
/// Summary form: count/mean/min/max/overflow plus p50/p90/p99 quantiles
/// (bucket contents are summarized, not dumped).
JsonValue to_json(const Histogram& h);
/// count/mean/min/max plus p50/p90/p99 quantiles.
JsonValue to_json(const LogHistogram& h);

} // namespace daelite::sim
