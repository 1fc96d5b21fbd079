#include "routing/router.h"

#include <limits>

#include "common/assert.h"
#include "ring/hash.h"
#include "ring/rendezvous.h"
#include "ring/ring.h"

namespace rfh {

namespace {

std::uint64_t relay_key(PartitionId partition, DatacenterId dc) {
  return hash_combine(HashRing::partition_key(partition),
                      hash64(std::uint64_t{dc.value()}));
}

}  // namespace

Router::Router(const Topology& topology, const ShortestPaths& paths)
    : topology_(&topology),
      paths_(&paths),
      server_hashes_(topology.server_count()) {
  RFH_ASSERT(topology.datacenter_count() == paths.size());
  for (std::size_t s = 0; s < server_hashes_.size(); ++s) {
    server_hashes_[s] = hash64(std::uint64_t{s});
  }
}

void Router::invalidate_relays() {
  if (stamp_ == std::numeric_limits<std::uint32_t>::max()) {
    // Restarting the stamp would revive rows stamped 2^32 bumps ago, so
    // clear them all first (once per ~4 billion invalidations).
    for (RelayRow& row : rows_) row.stamp = 0;
    stamp_ = 1;
    return;
  }
  ++stamp_;
}

void Router::reserve_relays(std::size_t partitions) const {
  if (rows_.size() < partitions) rows_.resize(partitions);
}

ServerId Router::relay_for(PartitionId partition, DatacenterId dc,
                           std::span<const ServerId> live_servers) {
  return rendezvous_pick(relay_key(partition, dc), live_servers);
}

const Route& Router::route(
    PartitionId partition, DatacenterId requester, ServerId holder,
    std::span<const std::vector<ServerId>> live_by_dc, RouteCtx& ctx) const {
  RFH_ASSERT(holder.valid());
  // Serial-only growth path (concurrent users pre-size via
  // reserve_relays).
  reserve_relays(std::size_t{partition.value()} + 1);
  RelayRow& row = rows_[partition.value()];
  if (row.stamp != stamp_) {
    row.relays.assign(topology_->datacenter_count(), ServerId::invalid());
    row.stamp = stamp_;
  }

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
      ServerId& cached = row.relays[dc.value()];
      if (!cached.valid()) {
        // relay_for(partition, dc, live), with the per-server hashes.
        cached = rendezvous_pick(relay_key(partition, dc), live,
                                 server_hashes_);
      }
      relay = cached;
    }
    route.stages.push_back(RouteStage{dc, relay, hops, latency});
    ++hops;
  }
  // Final descent from the holder datacenter's relay to the owning server.
  route.total_hops = hops;
  route.total_latency_ms = latency + kHopLatencyMs;

  ++ctx.counts.routes;
  ctx.counts.stages += route.stages.size();
  // Every datacenter on the path costs a hop; the ones without a stage
  // were dead.
  ctx.counts.dead_skips += route.total_hops - 1 - route.stages.size();
  return route;
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
  ctx.counts = RouteCounts{};
}

RouteCounts Router::take_counts() const {
  const RouteCounts counts = counts_;
  counts_ = RouteCounts{};
  return counts;
}

}  // namespace rfh
