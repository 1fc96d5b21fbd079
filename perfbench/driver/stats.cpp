#include "stats.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace perfbench {
namespace {

constexpr std::array<double, 6> kLadder{99.9, 99.0, 95.0, 90.0, 75.0, 50.0};

// 1-based nearest rank of the q-th percentile among n samples.
std::size_t rank(std::size_t n, double q) {
  const double r = std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

}  // namespace

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t r = rank(values.size(), q);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(r - 1),
                   values.end());
  return values[r - 1];
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - rank(n, q);
}

double tail_percentile(std::size_t n) {
  for (const double q : kLadder) {
    if (samples_beyond(n, q) >= kTailMinBeyond) return q;
  }
  return 0.0;
}

Tail tail(const std::vector<double>& values, std::size_t guaranteed) {
  Tail t;
  t.samples = values.size();
  t.percentile = tail_percentile(std::min(guaranteed, values.size()));
  if (t.percentile > 0.0) t.value = percentile(values, t.percentile);
  return t;
}

}  // namespace perfbench
