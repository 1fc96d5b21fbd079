#include "digest.h"

#include <cstring>
#include <span>

#include "exec/sweep.h"

namespace perfbench {

void Digest::add(std::uint64_t word) noexcept {
  for (int byte = 0; byte < 8; ++byte) {
    hash_ ^= (word >> (8 * byte)) & 0xffU;
    hash_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double value) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add(bits);
}

void Digest::fold(const rfh::EpochReport& r) {
  add(static_cast<std::uint64_t>(r.epoch));
  add(r.total_queries);
  add(r.unserved_queries);
  add(r.mean_path_length);
  add(static_cast<std::uint64_t>(r.replications));
  add(static_cast<std::uint64_t>(r.migrations));
  add(static_cast<std::uint64_t>(r.suicides));
  add(static_cast<std::uint64_t>(r.dropped_actions));
  for (const std::uint32_t n : r.dropped_by_reason) {
    add(static_cast<std::uint64_t>(n));
  }
  add(static_cast<std::uint64_t>(r.repairs_starved));
  add(r.replication_cost);
  add(r.migration_cost);
  add(static_cast<std::uint64_t>(r.total_replicas));
}

void Digest::fold(const rfh::EpochMetrics& m) {
  add(rfh::series_digest(std::span<const rfh::EpochMetrics>(&m, 1)));
}

void Digest::fold(const rfh::StreamEpochStats& s) {
  add(static_cast<std::uint64_t>(s.epoch));
  add(s.arrivals);
  add(s.served);
  add(s.blocked);
  add(s.dropped);
  add(static_cast<std::uint64_t>(s.max_queue_depth));
  add(s.mean_wait_ms);
  add(s.p50_ms);
  add(s.p99_ms);
  add(s.p999_ms);
}

}  // namespace perfbench
