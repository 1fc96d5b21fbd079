// 64-bit FNV-1a fingerprint of what the simulator computed.
//
// Every measured epoch folds its EpochReport, its EpochMetrics (through
// rfh::series_digest, which covers every field) and, on stream
// workloads, its StreamEpochStats. Two runs of one seed that end with the
// same digest over the same epochs computed the same simulation; the
// timed and the traced pass of a workload are compared this way.
#pragma once

#include <cstdint>

#include "metrics/collector.h"
#include "sim/engine.h"
#include "stream/stream_sim.h"

namespace perfbench {

class Digest {
 public:
  void add(std::uint64_t word) noexcept;
  /// Doubles fold by bit pattern, so -0.0 and 0.0 differ.
  void add(double value) noexcept;
  void fold(const rfh::EpochReport& report);
  void fold(const rfh::EpochMetrics& metrics);
  void fold(const rfh::StreamEpochStats& stats);

  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
