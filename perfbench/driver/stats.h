// Order statistics for the benchmark's timing metrics.
//
// A timing is reported as its median and a tail: the highest percentile
// of a fixed ladder that still has at least kTailMinBeyond samples beyond
// it, together with that percentile and the sample count. Runs are
// time-bound, so their sample counts vary; the ladder step is chosen from
// the sample count every run of a workload is guaranteed to reach, so
// repeated runs (and a faster commit, which collects more samples) report
// the same percentile.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples a tail percentile must leave beyond itself.
inline constexpr std::size_t kTailMinBeyond = 10;

/// Nearest-rank percentile (q in [0, 100]) of `values`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// Samples strictly beyond the nearest-rank q-th percentile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// Highest ladder percentile (99.9, 99, 95, 90, 75, 50) with at least
/// kTailMinBeyond samples beyond it among n; 0 when even the median has
/// fewer (n < 20).
[[nodiscard]] double tail_percentile(std::size_t n);

struct Tail {
  double percentile = 0.0;  ///< which percentile; 0 below 20 samples
  double value = 0.0;
  std::size_t samples = 0;
};
/// The tail of `values` at tail_percentile(min(guaranteed, size)).
[[nodiscard]] Tail tail(const std::vector<double>& values,
                        std::size_t guaranteed);

}  // namespace perfbench
