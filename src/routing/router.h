// Query routing: requester datacenter -> holder server.
//
// A query for partition B_i issued near datacenter j travels the fixed
// shortest path of datacenters towards the primary holder. Inside each
// datacenter the query is handled by a deterministic *relay* server
// (rendezvous-hashed per (partition, datacenter)); any replica hosted in a
// transit datacenter can absorb the query there. Hop counting follows the
// paper's lookup-path-length metric: one hop to enter the requester
// datacenter's relay, one hop per further datacenter, and one final hop
// from the holder datacenter's relay down to the owning server.
//
// Every route() builds the route afresh into a caller-owned RouteCtx
// buffer; the datacenter path comes from the shortest-path table, so the
// only per-route work left worth caching is the relay picks.
//
// Relay cache: the Router keeps, per partition, a row of relay_for
// results per datacenter, so building a route hashes only datacenters the
// partition has not routed through since the last liveness change. A
// relay depends only on (partition, DC, the DC's live set), so the owner
// calls invalidate_relays() whenever a server dies or revives; that bumps
// one global stamp and every row stamped before it reads as empty.
// Placement and link changes keep the rows. Stamps are 32-bit; a stamp
// that would wrap clears every row and restarts at 1, so a stale row can
// never match again. The relay picks themselves hash each server id once
// per Router (a per-server table), so a pick costs one finalizer per
// candidate.
//
// Routes are not memoized: in a 100k-server world only ~3% of routes
// repeat, and storing the repeats grew RSS every epoch without bound
// (DESIGN.md §11).
//
// Because a row is only ever read and written by code handling its own
// partition, the sharded propagate pass (each shard owns a contiguous
// partition range) uses the cache concurrently with no synchronisation —
// see DESIGN.md §11/§15 for the contract.
//
// Counts: every route() tallies into a RouteCtx — a per-shard one for
// the sharded propagate pass, a router-owned one for the serial overload.
// flush_counts folds contexts into the router's running RouteCounts, and
// take_counts hands that total to the engine once per epoch (it lands in
// EpochReport::routing, and from there in the rfh_router_* metrics).
// Integer sums are order-invariant, so the totals match for every shard
// count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.h"
#include "net/shortest_paths.h"
#include "topology/topology.h"

namespace rfh {

/// One datacenter visited by a query, in order.
struct RouteStage {
  DatacenterId dc;
  /// The forwarding server inside `dc` that carries this partition's
  /// pass-through traffic (a traffic-hub candidate).
  ServerId relay;
  /// Network hops from the client when the query reaches this stage.
  std::uint32_t hops_at_entry = 0;
  /// One-way network latency from the client to this stage: per-hop
  /// switching cost plus fibre propagation over the kilometres travelled.
  double latency_ms = 0.0;
};

struct Route {
  std::vector<RouteStage> stages;  // requester DC first, holder DC last
  ServerId holder;
  /// Hops if the query must go all the way to the holder server.
  std::uint32_t total_hops = 0;
  /// Latency if the query must go all the way to the holder server.
  double total_latency_ms = 0.0;
};

/// Routing tallies over some span of route() calls.
struct RouteCounts {
  std::uint64_t routes = 0;
  /// Datacenter stages across all routes.
  std::uint64_t stages = 0;
  /// Transit datacenters skipped because no server was alive.
  std::uint64_t dead_skips = 0;
};

/// Latency model constants (see DESIGN.md): 2 ms switching cost per hop,
/// ~200 km of fibre per millisecond of propagation.
inline constexpr double kHopLatencyMs = 2.0;
inline constexpr double kFibreKmPerMs = 200.0;

class Router {
 public:
  Router(const Topology& topology, const ShortestPaths& paths);

  /// Per-shard routing context: local tallies plus the buffers routes are
  /// built in. Fold contexts into the router via flush_counts().
  struct RouteCtx {
    RouteCounts counts;
    /// Buffer routes are built in.
    Route route;
    /// Datacenter path buffer reused by every route with this context.
    std::vector<DatacenterId> dc_path;
  };

  /// Compute the route for queries from `requester` to the primary copy on
  /// `holder`. `live_by_dc[dc]` lists the currently-alive servers of each
  /// datacenter (relays are only chosen among live servers; a datacenter
  /// with no live servers is skipped as a stage).
  ///
  /// The returned reference stays valid until the next route() call on
  /// this Router. Callers needing to keep a route must copy it.
  [[nodiscard]] const Route& route(
      PartitionId partition, DatacenterId requester, ServerId holder,
      std::span<const std::vector<ServerId>> live_by_dc) const;

  /// Concurrent variant: identical routing, built into `ctx.route` (the
  /// reference stays valid until the next route() with the same ctx) with
  /// the tallies in `ctx`. Callers running shards concurrently must
  /// (a) pre-size the relay cache with reserve_relays() and (b) never
  /// route the same partition from two shards.
  [[nodiscard]] const Route& route(
      PartitionId partition, DatacenterId requester, ServerId holder,
      std::span<const std::vector<ServerId>> live_by_dc, RouteCtx& ctx) const;

  /// Fold a context's tallies into the router's running counts, then
  /// zero them.
  void flush_counts(RouteCtx& ctx) const;

  /// The counts folded in since the last take_counts(); resets them.
  [[nodiscard]] RouteCounts take_counts() const;

  /// Pre-size the relay cache for `partitions` rows so concurrent shards
  /// never grow the outer table. Idempotent; rows themselves are
  /// allocated on first touch by the owning shard.
  void reserve_relays(std::size_t partitions) const;

  /// Relay server for (partition, dc) among the given live servers. The
  /// cache holds exactly these picks.
  [[nodiscard]] static ServerId relay_for(
      PartitionId partition, DatacenterId dc,
      std::span<const ServerId> live_servers);

  /// Drop every cached relay. Call whenever a server dies or revives.
  void invalidate_relays();

 private:
  friend class RouterTestPeer;

  /// A partition's cached relays. Only code routing that partition touches
  /// its row, which is what lets propagate shards share the router.
  struct RelayRow {
    /// relays[dc] = relay_for(partition, dc, live set), invalid until
    /// first asked; the whole row is valid while stamp == Router::stamp_.
    std::vector<ServerId> relays;
    std::uint32_t stamp = 0;
  };

  const Topology* topology_;
  const ShortestPaths* paths_;
  /// server_hashes_[id] = hash64(id), the per-candidate half of a relay
  /// pick's weight.
  std::vector<std::uint64_t> server_hashes_;
  /// rows_[partition]; rows are validated by stamp instead of being
  /// cleared.
  mutable std::vector<RelayRow> rows_;
  mutable std::uint32_t stamp_ = 1;
  /// Context backing the serial route() overload.
  mutable RouteCtx serial_ctx_;
  mutable RouteCounts counts_;
};

}  // namespace rfh
