#include "routing/router.h"

#include "common/assert.h"
#include "ring/hash.h"
#include "ring/rendezvous.h"
#include "ring/ring.h"

namespace rfh {

Router::Router(const Topology& topology, const ShortestPaths& paths)
    : topology_(&topology), paths_(&paths) {
  RFH_ASSERT(topology.datacenter_count() == paths.size());
}

void Router::set_memo_enabled(bool enabled) {
  memo_enabled_ = enabled;
  ++stamp_;  // drops every entry in O(1)
}

void Router::invalidate_routes() { ++stamp_; }

void Router::invalidate_routes_for(PartitionId partition) {
  if (partition.value() < partition_stamps_.size()) {
    ++partition_stamps_[partition.value()];
  }
  // No stamps row yet means no memo entries for this partition exist.
}

void Router::reserve_memo(std::size_t partitions) const {
  if (memo_rows_.size() < partitions) {
    memo_rows_.resize(partitions);
    partition_stamps_.resize(partitions, 0);
  }
}

Router::MemoEntry& Router::memo_slot(PartitionId partition,
                                     DatacenterId requester) const {
  if (partition.value() >= memo_rows_.size()) {
    // Serial-only growth path (concurrent users pre-size via
    // reserve_memo).
    reserve_memo(std::size_t{partition.value()} + 1);
  }
  std::vector<MemoEntry>& row = memo_rows_[partition.value()];
  if (row.empty()) row.resize(topology_->datacenter_count());
  RFH_ASSERT(requester.value() < row.size());
  return row[requester.value()];
}

ServerId Router::relay_for(PartitionId partition, DatacenterId dc,
                           std::span<const ServerId> live_servers) {
  const std::uint64_t key = hash_combine(HashRing::partition_key(partition),
                                         hash64(std::uint64_t{dc.value()}));
  return rendezvous_pick(key, live_servers);
}

void Router::compute(PartitionId partition, DatacenterId requester,
                     ServerId holder,
                     std::span<const std::vector<ServerId>> live_by_dc,
                     MemoEntry& entry) const {
  const DatacenterId holder_dc = topology_->server(holder).datacenter;
  const std::vector<DatacenterId> dc_path =
      paths_->path(requester, holder_dc);

  entry.holder = holder;
  entry.dead_skips = 0;
  Route& route = entry.route;
  route.stages.clear();
  route.holder = holder;
  route.stages.reserve(dc_path.size());

  std::uint32_t hops = 1;  // client -> requester-DC relay
  double latency = kHopLatencyMs;
  for (const DatacenterId dc : dc_path) {
    RFH_ASSERT(dc.value() < live_by_dc.size());
    // Prefixes of a shortest path are shortest paths, so the cumulative
    // fibre distance to this stage is the all-pairs distance.
    latency = kHopLatencyMs * hops +
              paths_->distance_km(requester, dc) / kFibreKmPerMs;
    const std::vector<ServerId>& live = live_by_dc[dc.value()];
    if (live.empty()) {
      // Dead datacenter: traffic passes through its backbone router but no
      // server can absorb or be a hub there.
      ++entry.dead_skips;
      ++hops;
      continue;
    }
    const ServerId relay = dc == holder_dc
                               ? holder
                               : relay_for(partition, dc, live);
    route.stages.push_back(RouteStage{dc, relay, hops, latency});
    ++hops;
  }
  // Final descent from the holder datacenter's relay to the owning server.
  route.total_hops = hops;
  route.total_latency_ms = latency + kHopLatencyMs;
}

const Route& Router::route(
    PartitionId partition, DatacenterId requester, ServerId holder,
    std::span<const std::vector<ServerId>> live_by_dc, RouteCtx& ctx) const {
  RFH_ASSERT(holder.valid());

  MemoEntry* entry = nullptr;
  bool hit = false;
  if (memo_enabled_) {
    MemoEntry& slot = memo_slot(partition, requester);
    // A populated entry is only trusted when both stamps are current and
    // the primary it was computed for still holds the partition; the
    // owner bumps the stamps on every liveness/link/placement change
    // (DESIGN.md §11), so the holder check is the last line of defence
    // rather than the invalidation mechanism.
    hit = slot.stamp == stamp_ &&
          slot.partition_stamp == partition_stamps_[partition.value()] &&
          slot.holder == holder && !slot.route.stages.empty();
    entry = &slot;
  } else {
    entry = &ctx.scratch;
  }
  if (!hit) {
    compute(partition, requester, holder, live_by_dc, *entry);
    if (memo_enabled_) {
      entry->stamp = stamp_;
      entry->partition_stamp = partition_stamps_[partition.value()];
    }
    ++ctx.counts.memo_misses;
  } else {
    ++ctx.counts.memo_hits;
  }
  // Counted identically for hits and misses, so the route/stage/skip
  // totals are the same with the memo on or off.
  ctx.counts.dead_skips += entry->dead_skips;
  ++ctx.counts.routes;
  ctx.counts.stages += entry->route.stages.size();
  return entry->route;
}

const Route& Router::route(
    PartitionId partition, DatacenterId requester, ServerId holder,
    std::span<const std::vector<ServerId>> live_by_dc) const {
  const Route& result =
      route(partition, requester, holder, live_by_dc, serial_ctx_);
  flush_counts(serial_ctx_);
  return result;
}

void Router::flush_counts(RouteCtx& ctx) const {
  counts_.routes += ctx.counts.routes;
  counts_.stages += ctx.counts.stages;
  counts_.dead_skips += ctx.counts.dead_skips;
  counts_.memo_hits += ctx.counts.memo_hits;
  counts_.memo_misses += ctx.counts.memo_misses;
  ctx.counts = RouteCounts{};
}

RouteCounts Router::take_counts() const {
  const RouteCounts counts = counts_;
  counts_ = RouteCounts{};
  return counts;
}

}  // namespace rfh
