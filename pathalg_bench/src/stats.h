#ifndef PATHALG_BENCH_STATS_H_
#define PATHALG_BENCH_STATS_H_

/// \file stats.h
/// The benchmark's sampling arithmetic, header-only so the stats test can
/// pin it: nearest-rank percentiles, the "highest percentile with at least
/// ten samples beyond it" reporting rule, the seeded Poisson arrival
/// schedule of the open-loop workloads and the Zipf draw of point-read
/// keys. Every random draw goes through std::mt19937_64, whose output
/// sequence the standard fixes, and through arithmetic written out here
/// (not std::*_distribution, whose algorithms vary between standard
/// libraries), so one seed gives one schedule everywhere.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace pathalg {
namespace bench {

/// Uniform double in [0, 1) from the top 53 bits of one draw.
inline double UniformUnit(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * (1.0 / 9007199254740992.0);
}

/// Nearest-rank percentile of `sorted` (ascending) at quantile q in (0, 1].
/// 0 for an empty sample.
inline double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

/// Nearest-rank percentile of an unsorted sample.
inline double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return Percentile(values, q);
}

/// Samples that must lie strictly beyond a reported tail percentile.
constexpr size_t kTailSamplesBeyond = 10;

/// The highest quantile a sample of `n` supports: 0.99 once n >= 1000,
/// else the quantile with exactly kTailSamplesBeyond samples above it,
/// floored at the median for tiny samples.
inline double SupportedTailQuantile(size_t n) {
  if (n >= 100 * kTailSamplesBeyond) return 0.99;
  if (n <= 2 * kTailSamplesBeyond) return 0.5;
  return static_cast<double>(n - kTailSamplesBeyond) / static_cast<double>(n);
}

/// Median and supported tail of one latency sample, with its size.
struct LatencySummary {
  size_t n = 0;
  double p50 = 0.0;
  /// The quantile `tail` was taken at (0.99 when the sample supports it).
  double tail_quantile = 0.0;
  double tail = 0.0;
};

inline LatencySummary Summarize(std::vector<double> values) {
  LatencySummary s;
  std::sort(values.begin(), values.end());
  s.n = values.size();
  if (values.empty()) return s;
  s.p50 = Percentile(values, 0.5);
  s.tail_quantile = SupportedTailQuantile(values.size());
  s.tail = Percentile(values, s.tail_quantile);
  return s;
}

/// Poisson arrivals at `rate_per_s` over [start_s, end_s): exponential
/// inter-arrival gaps by inversion, ascending.
inline std::vector<double> PoissonArrivals(double rate_per_s, double start_s,
                                           double end_s,
                                           std::mt19937_64& rng) {
  std::vector<double> out;
  if (rate_per_s <= 0.0) return out;
  double t = start_s;
  for (;;) {
    t += -std::log(1.0 - UniformUnit(rng)) / rate_per_s;
    if (t >= end_s) break;
    out.push_back(t);
  }
  return out;
}

/// Zipf(s) over ranks 0..n-1 (rank 0 the most popular), by inverse CDF.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  size_t Sample(std::mt19937_64& rng) const {
    const double u = UniformUnit(rng);
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace bench
}  // namespace pathalg

#endif  // PATHALG_BENCH_STATS_H_
