// The benchmark's workloads and the measured / traced passes over them.
//
//   steady_100k       1000 DCs x 100 servers, 8000 partitions, serial RFH
//   churn_stream_10k  100 DCs x 100 servers, 800 partitions, 1% churn per
//                     epoch, open-loop stream layer, engine sharded
//   paper_sweep       the paper world's {random-query, flash-crowd,
//                     failure-recovery} x {Request, Owner, Random, RFH}
//                     grid over a seed range, through SweepRunner
//
// Each run is a closed loop from one thread: the next epoch (or grid)
// starts when the previous one returns. The untimed checks and the
// traced pass are described in perfbench/README.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Default workload seed, and the held-out seed on which metrics and
/// layer shares are re-checked (never used while tuning the benchmark).
inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr std::uint64_t kHeldOutSeed = 7919;
/// Version of the benchmark definition, recorded in every manifest.
inline constexpr const char* kBenchVersion = "perfbench/1";

struct WorkloadInfo {
  const char* name;
  const char* why;
};
[[nodiscard]] const std::vector<WorkloadInfo>& workloads();

struct RunOptions {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Traced runs write their spans here (nothing when empty).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The first few failed checks, one line each.
  std::vector<std::string> failures;
  /// The mode's metrics: end-to-end when untraced, per layer when traced.
  std::vector<Metric> metrics;
  /// Further figures printed with the result but not gated.
  std::vector<Metric> info;
  /// Digest over the first kPrefixOps measured ops; equal in the timed
  /// and the traced process of one seed.
  std::uint64_t digest_prefix = 0;
  unsigned threads = 1;
  /// Human-readable per-layer breakdown (traced runs).
  std::string layer_table;

  void fail(const std::string& what);
};

/// Ops folded into RunResult::digest_prefix.
inline constexpr std::size_t kPrefixOps = 8;

/// Worker threads the benchmark uses: min(4, hardware threads).
[[nodiscard]] unsigned bench_threads();

/// Run one workload. Throws std::invalid_argument for an unknown name.
[[nodiscard]] RunResult run(const RunOptions& options);

/// Digest of `epochs` epochs of a small synthetic RFH world, with the
/// workload generator and policy wrapped in the tracing decorators or
/// not; the two must agree.
[[nodiscard]] std::uint64_t small_world_digest(std::uint64_t seed,
                                               std::uint32_t epochs,
                                               bool decorated);

}  // namespace perfbench
