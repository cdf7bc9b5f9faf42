#include "sim/stats.hpp"

#include <bit>
#include <cmath>

#include "sim/json.hpp"

namespace daelite::sim {

void Histogram::grow_for(std::uint64_t v) {
  if (v < buckets_.size() || v >= kMaxBuckets) return;
  const std::size_t doubled = std::max<std::size_t>(1, buckets_.size() * 2);
  const std::size_t covering = std::bit_ceil(static_cast<std::size_t>(v) + 1);
  buckets_.resize(std::min(kMaxBuckets, std::max(doubled, covering)), 0);
}

std::uint64_t Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // "At least q of the samples are <= v" needs at least one sample even at
  // q = 0 — an unclamped target of 0 would return bucket 0 regardless of
  // where the smallest sample actually lies.
  const auto target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target) return static_cast<std::uint64_t>(i);
  }
  return static_cast<std::uint64_t>(max());
}

namespace {
constexpr std::size_t kExact = std::size_t{1} << LogHistogram::kExactBits;
constexpr std::size_t kSub = kExact / 2; ///< buckets per power of two past kExact
} // namespace

std::size_t LogHistogram::bucket_of(std::uint64_t v) {
  if (v < kExact) return static_cast<std::size_t>(v);
  const unsigned msb = static_cast<unsigned>(std::bit_width(v)) - 1;
  const unsigned shift = msb - (kExactBits - 1);
  return kExact + (msb - kExactBits) * kSub + static_cast<std::size_t>((v >> shift) - kSub);
}

std::uint64_t LogHistogram::bucket_upper(std::size_t i) {
  if (i < kExact) return i;
  const std::size_t j = i - kExact;
  const unsigned shift = static_cast<unsigned>(j / kSub) + 1;
  const std::uint64_t lower = static_cast<std::uint64_t>(kSub + j % kSub) << shift;
  return lower + ((std::uint64_t{1} << shift) - 1);
}

std::uint64_t LogHistogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target)
      return std::min(bucket_upper(i), static_cast<std::uint64_t>(max()));
  }
  return static_cast<std::uint64_t>(max());
}

JsonValue to_json(const Counter& c) {
  JsonValue v = JsonValue::object();
  v["value"] = c.value();
  return v;
}

JsonValue to_json(const ScalarStat& s) {
  JsonValue v = JsonValue::object();
  v["count"] = s.count();
  v["sum"] = s.sum();
  v["mean"] = s.mean();
  v["min"] = s.min();
  v["max"] = s.max();
  v["variance"] = s.variance();
  return v;
}

JsonValue to_json(const Gauge& g) {
  JsonValue v = JsonValue::object();
  v["last"] = g.last();
  v["samples"] = g.samples();
  v["mean"] = g.mean();
  v["min"] = g.min();
  v["max"] = g.max();
  return v;
}

JsonValue to_json(const Histogram& h) {
  JsonValue v = JsonValue::object();
  v["count"] = h.count();
  v["mean"] = h.mean();
  v["min"] = h.min();
  v["max"] = h.max();
  v["overflow"] = h.overflow();
  v["p50"] = h.quantile(0.50);
  v["p90"] = h.quantile(0.90);
  v["p99"] = h.quantile(0.99);
  return v;
}

JsonValue to_json(const LogHistogram& h) {
  JsonValue v = JsonValue::object();
  v["count"] = h.count();
  v["mean"] = h.mean();
  v["min"] = h.min();
  v["max"] = h.max();
  v["p50"] = h.quantile(0.50);
  v["p90"] = h.quantile(0.90);
  v["p99"] = h.quantile(0.99);
  return v;
}

} // namespace daelite::sim
