#include "routing/router.h"

#include <limits>

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
  invalidate_routes();  // drops every entry in O(1)
}

void Router::invalidate_routes() {
  if (stamp_ == std::numeric_limits<std::uint32_t>::max()) {
    // Restarting the stamp would revive rows stamped 2^32 bumps ago, so
    // clear them all first (once per ~4 billion invalidations).
    for (PartitionRow& row : rows_) {
      row.memo.clear();
      row.routes.clear();
      row.relay_stamp = 0;
    }
    stamp_ = 1;
    return;
  }
  ++stamp_;
}

void Router::invalidate_routes_for(PartitionId partition) {
  // No row yet means no memo entries for this partition exist.
  if (partition.value() >= rows_.size()) return;
  PartitionRow& row = rows_[partition.value()];
  if (row.partition_stamp == std::numeric_limits<std::uint32_t>::max()) {
    row.memo.clear();
    row.routes.clear();
    row.partition_stamp = 1;
    return;
  }
  ++row.partition_stamp;
}

void Router::reserve_memo(std::size_t partitions) const {
  if (rows_.size() < partitions) rows_.resize(partitions);
}

Router::PartitionRow& Router::row_for(PartitionId partition) const {
  if (partition.value() >= rows_.size()) {
    // Serial-only growth path (concurrent users pre-size via
    // reserve_memo).
    reserve_memo(std::size_t{partition.value()} + 1);
  }
  return rows_[partition.value()];
}

std::vector<ServerId>& Router::relay_row(PartitionRow& row) const {
  if (row.relay_stamp != stamp_) {
    row.relays.assign(topology_->datacenter_count(), ServerId::invalid());
    row.relay_stamp = stamp_;
  }
  return row.relays;
}

ServerId Router::relay_for(PartitionId partition, DatacenterId dc,
                           std::span<const ServerId> live_servers) {
  const std::uint64_t key = hash_combine(HashRing::partition_key(partition),
                                         hash64(std::uint64_t{dc.value()}));
  return rendezvous_pick(key, live_servers);
}

void Router::build(PartitionId partition, DatacenterId requester,
                   ServerId holder,
                   std::span<const std::vector<ServerId>> live_by_dc,
                   std::vector<ServerId>* relays, RouteCtx& ctx) const {
  const DatacenterId holder_dc = topology_->server(holder).datacenter;
  std::vector<DatacenterId>& dc_path = ctx.dc_path;
  paths_->path_into(requester, holder_dc, dc_path);

  Route& route = ctx.route;
  route.stages.clear();
  route.holder = holder;

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
      ++hops;
      continue;
    }
    ServerId relay = holder;
    if (dc != holder_dc) {
      if (relays == nullptr) {
        relay = relay_for(partition, dc, live);
      } else {
        ServerId& cached = (*relays)[dc.value()];
        if (!cached.valid()) cached = relay_for(partition, dc, live);
        relay = cached;
      }
    }
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
  const Route* result = &ctx.route;
  if (!memo_enabled_) {
    build(partition, requester, holder, live_by_dc, nullptr, ctx);
    ++ctx.counts.memo_misses;
  } else {
    PartitionRow& row = row_for(partition);
    if (row.memo.empty()) row.memo.resize(topology_->datacenter_count());
    RFH_ASSERT(requester.value() < row.memo.size());
    MemoEntry& entry = row.memo[requester.value()];
    // A hit needs both stamps current and the same primary; the owner
    // bumps the stamps on every liveness/link/placement change
    // (DESIGN.md §11), so the holder check is the last line of defence
    // rather than the invalidation mechanism.
    const bool hit = entry.stamp == stamp_ &&
                     entry.partition_stamp == row.partition_stamp &&
                     entry.holder == holder;
    Route* stored = entry.slot != kNoSlot ? &row.routes[entry.slot] : nullptr;
    if (hit && stored != nullptr && !stored->stages.empty()) {
      result = stored;
    } else {
      build(partition, requester, holder, live_by_dc, &relay_row(row), ctx);
      if (hit) {
        // Asked for twice with unchanged inputs: keep it. Routes asked for
        // once (most of them in a large world) never cost route storage.
        if (stored == nullptr) {
          entry.slot = static_cast<std::uint32_t>(row.routes.size());
          stored = &row.routes.emplace_back();
        }
        *stored = ctx.route;
        result = stored;
      } else {
        if (stored != nullptr) stored->stages.clear();
        entry.stamp = stamp_;
        entry.partition_stamp = row.partition_stamp;
        entry.holder = holder;
      }
    }
    ++(hit ? ctx.counts.memo_hits : ctx.counts.memo_misses);
  }
  ++ctx.counts.routes;
  ctx.counts.stages += result->stages.size();
  // Every datacenter on the path costs a hop; the ones without a stage
  // were dead.
  ctx.counts.dead_skips += result->total_hops - 1 - result->stages.size();
  return *result;
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
