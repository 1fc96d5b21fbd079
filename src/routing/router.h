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
// Route memo: a route is a pure function of (partition, requester,
// holder, the per-DC live sets, the shortest paths). The engine's
// placement mutates at epoch granularity, so the Router keeps, per
// partition, one memo entry per requester — rows_[partition].memo — that
// records what the route was last built for, validated by stamps: a
// global stamp (bumped by invalidate_routes) and a per-partition stamp
// (bumped by invalidate_routes_for), so both invalidation flavours are
// O(1) and never touch other partitions' rows. A route asked for again
// with both stamps and the holder unchanged is a memo hit; its second
// build is stored in the row, and later hits return the stored copy.
// Routes asked for only once (most of them in a 100k-server world) are
// never stored, which keeps memo memory flat over a run. Each entry
// records the holder, so stale-primary hazards cannot serve a wrong route
// even if an invalidation hook is missed.
//
// Relay cache: each partition's row also caches relay_for per
// datacenter, so building a route hashes only datacenters the partition
// has not routed through since the last liveness change. A relay depends
// only on (partition, DC, the DC's live set), so only the global stamp
// (liveness/link changes) invalidates it; placement changes
// (invalidate_routes_for) keep it. With the memo off both caches are
// bypassed and every relay is hashed afresh. Stamps are 32-bit; a stamp
// that would wrap clears the rows it guards and restarts at 1, so a stale
// row can never match again.
//
// Because a row is only ever read and written by code handling its own
// partition, the sharded propagate pass (each shard owns a contiguous
// partition range) uses the caches concurrently with no synchronisation —
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
  std::uint64_t memo_hits = 0;
  /// Recomputed routes (cold, invalidated or holder moved).
  std::uint64_t memo_misses = 0;
};

/// Latency model constants (see DESIGN.md): 2 ms switching cost per hop,
/// ~200 km of fibre per millisecond of propagation.
inline constexpr double kHopLatencyMs = 2.0;
inline constexpr double kFibreKmPerMs = 200.0;

class Router {
 public:
  Router(const Topology& topology, const ShortestPaths& paths);

  /// Per-shard routing context: local tallies plus the buffers routes are
  /// built in. References returned by the ctx overload stay valid until
  /// the next route() call with the same ctx (or an invalidation). Fold
  /// contexts into the router via flush_counts().
  struct RouteCtx;

  /// Compute the route for queries from `requester` to the primary copy on
  /// `holder`. `live_by_dc[dc]` lists the currently-alive servers of each
  /// datacenter (relays are only chosen among live servers; a datacenter
  /// with no live servers is skipped as a stage).
  ///
  /// The returned reference stays valid until the next route() /
  /// invalidate call on this Router. Callers needing to keep a route
  /// across epochs must copy it.
  [[nodiscard]] const Route& route(
      PartitionId partition, DatacenterId requester, ServerId holder,
      std::span<const std::vector<ServerId>> live_by_dc) const;

  /// Concurrent variant: identical routing, but the tallies land in
  /// `ctx`. Callers running shards concurrently must (a) pre-size the
  /// memo with reserve_memo() and (b) never route the same partition from
  /// two shards.
  [[nodiscard]] const Route& route(
      PartitionId partition, DatacenterId requester, ServerId holder,
      std::span<const std::vector<ServerId>> live_by_dc, RouteCtx& ctx) const;

  /// Fold a context's tallies into the router's running counts, then
  /// zero them.
  void flush_counts(RouteCtx& ctx) const;

  /// The counts folded in since the last take_counts(); resets them.
  [[nodiscard]] RouteCounts take_counts() const;

  /// Pre-size the memo and relay tables for `partitions` rows so
  /// concurrent shards never grow the outer table. Idempotent; rows
  /// themselves are allocated on first touch by the owning shard.
  void reserve_memo(std::size_t partitions) const;

  /// Relay server for (partition, dc) among the given live servers.
  [[nodiscard]] static ServerId relay_for(
      PartitionId partition, DatacenterId dc,
      std::span<const ServerId> live_servers);

  // --- route memo -------------------------------------------------------
  /// Memoization toggle (default on). Disabling also drops all entries;
  /// with the memo off every route() recomputes, relays included, which
  /// tests use as the differential baseline.
  void set_memo_enabled(bool enabled);
  /// Drop every memoized route and cached relay (liveness, link or
  /// path-table change).
  void invalidate_routes();
  /// Drop the memoized routes of one partition (placement mutation). Its
  /// cached relays stay: they do not depend on placement.
  void invalidate_routes_for(PartitionId partition);

 private:
  friend class RouterTestPeer;

  static constexpr std::uint32_t kNoSlot = 0xffffffffU;

  struct MemoEntry {
    /// Validity stamps: an entry is current only while both match the
    /// router's stamps (global and per-partition).
    std::uint32_t stamp = 0;
    std::uint32_t partition_stamp = 0;
    ServerId holder;  // the primary the route was last built for
    /// This requester's slot in PartitionRow::routes, taken on its first
    /// hit; kNoSlot until then.
    std::uint32_t slot = kNoSlot;
  };
  /// Everything the router caches for one partition. Only code routing
  /// that partition touches its row, which is what lets propagate shards
  /// share the router.
  struct PartitionRow {
    /// memo[requester-DC]; sized on first touch.
    std::vector<MemoEntry> memo;
    /// Stored routes of requesters that hit at least once. A slot whose
    /// stages are empty is stale (its entry missed since it was stored).
    std::vector<Route> routes;
    /// relays[dc] = relay_for(partition, dc, live set), invalid until
    /// first asked; the whole row is valid while relay_stamp == stamp_.
    std::vector<ServerId> relays;
    std::uint32_t partition_stamp = 0;
    std::uint32_t relay_stamp = 0;
  };

 public:
  struct RouteCtx {
    RouteCounts counts;
    /// Buffer routes are built in.
    Route route;
    /// Datacenter path buffer reused by every route with this context.
    std::vector<DatacenterId> dc_path;
  };

 private:
  /// Build the route into ctx.route, taking relays from `relays` (filled
  /// on first use). A null `relays` (memo off) hashes every relay afresh.
  void build(PartitionId partition, DatacenterId requester, ServerId holder,
             std::span<const std::vector<ServerId>> live_by_dc,
             std::vector<ServerId>* relays, RouteCtx& ctx) const;

  [[nodiscard]] PartitionRow& row_for(PartitionId partition) const;
  /// The partition's relay row, reset if the global stamp moved.
  [[nodiscard]] std::vector<ServerId>& relay_row(PartitionRow& row) const;

  const Topology* topology_;
  const ShortestPaths* paths_;
  bool memo_enabled_ = true;
  /// rows_[partition]; entries are validated by stamps instead of being
  /// erased.
  mutable std::vector<PartitionRow> rows_;
  mutable std::uint32_t stamp_ = 1;
  /// Context backing the serial route() overload.
  mutable RouteCtx serial_ctx_;
  mutable RouteCounts counts_;
};

}  // namespace rfh
