#include "routing/router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <thread>

#include "net/graph.h"
#include "topology/world.h"

namespace rfh {

// Reaches the router's stamps and relay rows, so tests can stand a router
// at a 32-bit stamp wrap without 2^32 invalidations.
class RouterTestPeer {
 public:
  static void set_stamp(Router& router, std::uint32_t stamp) {
    router.stamp_ = stamp;
  }
  static void set_partition_stamp(Router& router, PartitionId partition,
                                  std::uint32_t stamp) {
    router.row_for(partition).partition_stamp = stamp;
  }
  static std::size_t stored_routes(const Router& router,
                                   PartitionId partition) {
    return partition.value() < router.rows_.size()
               ? router.rows_[partition.value()].routes.size()
               : 0;
  }
  /// The relay cached for (partition, dc), or invalid if none is current.
  static ServerId cached_relay(const Router& router, PartitionId partition,
                               DatacenterId dc) {
    if (partition.value() >= router.rows_.size()) return ServerId::invalid();
    const Router::PartitionRow& row = router.rows_[partition.value()];
    if (row.relay_stamp != router.stamp_ || row.relays.empty()) {
      return ServerId::invalid();
    }
    return row.relays[dc.value()];
  }
};

namespace {

class RouterTest : public ::testing::Test {
 protected:
  RouterTest()
      : world_(build_paper_world()),
        graph_(world_.topology.datacenter_count(), world_.links),
        paths_(graph_),
        router_(world_.topology, paths_) {
    live_by_dc_.resize(world_.topology.datacenter_count());
    for (const Server& s : world_.topology.servers()) {
      live_by_dc_[s.datacenter.value()].push_back(s.id);
    }
  }

  ServerId first_server_in(char letter) const {
    return world_.topology.servers_in(world_.by_letter(letter)).front();
  }

  World world_;
  DcGraph graph_;
  ShortestPaths paths_;
  Router router_;
  std::vector<std::vector<ServerId>> live_by_dc_;
};

TEST_F(RouterTest, StagesFollowTheDatacenterPath) {
  const ServerId holder = first_server_in('A');
  const Route route = router_.route(PartitionId{0}, world_.by_letter('J'),
                                    holder, live_by_dc_);
  const auto dc_path =
      paths_.path(world_.by_letter('J'), world_.by_letter('A'));
  ASSERT_EQ(route.stages.size(), dc_path.size());
  for (std::size_t i = 0; i < dc_path.size(); ++i) {
    EXPECT_EQ(route.stages[i].dc, dc_path[i]);
  }
  EXPECT_EQ(route.holder, holder);
}

TEST_F(RouterTest, HopsAreMonotoneAndTotalIsOnePastLastStage) {
  const ServerId holder = first_server_in('A');
  const Route route = router_.route(PartitionId{3}, world_.by_letter('H'),
                                    holder, live_by_dc_);
  ASSERT_FALSE(route.stages.empty());
  EXPECT_EQ(route.stages.front().hops_at_entry, 1u);
  for (std::size_t i = 1; i < route.stages.size(); ++i) {
    EXPECT_EQ(route.stages[i].hops_at_entry,
              route.stages[i - 1].hops_at_entry + 1);
  }
  EXPECT_EQ(route.total_hops, route.stages.back().hops_at_entry + 1);
}

TEST_F(RouterTest, RelayIsALiveServerOfItsDatacenter) {
  const ServerId holder = first_server_in('A');
  for (const DatacenterId requester : world_.dc) {
    const Route route =
        router_.route(PartitionId{7}, requester, holder, live_by_dc_);
    for (const RouteStage& stage : route.stages) {
      const auto& live = live_by_dc_[stage.dc.value()];
      EXPECT_NE(std::find(live.begin(), live.end(), stage.relay), live.end());
      EXPECT_EQ(world_.topology.server(stage.relay).datacenter, stage.dc);
    }
  }
}

TEST_F(RouterTest, HolderDatacenterRelayIsTheHolderItself) {
  const ServerId holder = first_server_in('A');
  const Route route = router_.route(PartitionId{1}, world_.by_letter('C'),
                                    holder, live_by_dc_);
  EXPECT_EQ(route.stages.back().dc, world_.by_letter('A'));
  EXPECT_EQ(route.stages.back().relay, holder);
}

TEST_F(RouterTest, LocalQueryHasSingleStage) {
  const ServerId holder = first_server_in('A');
  const Route route = router_.route(PartitionId{2}, world_.by_letter('A'),
                                    holder, live_by_dc_);
  ASSERT_EQ(route.stages.size(), 1u);
  EXPECT_EQ(route.stages[0].relay, holder);
  EXPECT_EQ(route.total_hops, 2u);  // entry + descent
}

TEST_F(RouterTest, DeadDatacenterIsSkippedButCostsAHop) {
  const ServerId holder = first_server_in('A');
  // J -> A transits I and D; empty out I.
  const Route before = router_.route(PartitionId{0}, world_.by_letter('J'),
                                     holder, live_by_dc_);
  auto live = live_by_dc_;
  live[world_.by_letter('I').value()].clear();
  // Liveness changed: the owner of a Router must flush its route memo
  // (the engine does this in fail_servers / recover_servers).
  router_.invalidate_routes();
  const Route after = router_.route(PartitionId{0}, world_.by_letter('J'),
                                    holder, live);
  EXPECT_EQ(after.stages.size(), before.stages.size() - 1);
  EXPECT_EQ(after.total_hops, before.total_hops);  // hop still paid
  for (const RouteStage& stage : after.stages) {
    EXPECT_NE(stage.dc, world_.by_letter('I'));
  }
}

TEST_F(RouterTest, RelayIsDeterministicPerPartition) {
  const ServerId holder = first_server_in('A');
  const Route r1 = router_.route(PartitionId{5}, world_.by_letter('J'),
                                 holder, live_by_dc_);
  const Route r2 = router_.route(PartitionId{5}, world_.by_letter('J'),
                                 holder, live_by_dc_);
  ASSERT_EQ(r1.stages.size(), r2.stages.size());
  for (std::size_t i = 0; i < r1.stages.size(); ++i) {
    EXPECT_EQ(r1.stages[i].relay, r2.stages[i].relay);
  }
}

TEST_F(RouterTest, DifferentPartitionsUseDifferentRelays) {
  // Rendezvous hashing spreads relay duty: across 64 partitions the
  // transit datacenter D must not always pick the same server.
  const ServerId holder = first_server_in('A');
  std::set<ServerId> relays;
  for (std::uint32_t p = 0; p < 64; ++p) {
    const Route route = router_.route(PartitionId{p}, world_.by_letter('J'),
                                      holder, live_by_dc_);
    for (const RouteStage& stage : route.stages) {
      if (stage.dc == world_.by_letter('D')) relays.insert(stage.relay);
    }
  }
  EXPECT_GT(relays.size(), 3u);
}

TEST_F(RouterTest, RelayForPicksAmongGivenServers) {
  const std::vector<ServerId> live{ServerId{12}, ServerId{13}};
  const ServerId relay =
      Router::relay_for(PartitionId{0}, DatacenterId{1}, live);
  EXPECT_TRUE(relay == ServerId{12} || relay == ServerId{13});
}

// --- relay cache: memo on vs memo off ---------------------------------

struct Triple {
  PartitionId partition;
  DatacenterId requester;
  ServerId holder;
};

class RelayCacheTest : public RouterTest {
 protected:
  RelayCacheTest() : baseline_(world_.topology, paths_) {
    baseline_.set_memo_enabled(false);
    const auto& servers = world_.topology.servers();
    for (std::uint32_t p = 0; p < 16; ++p) {
      const ServerId holder = servers[(p * 37) % servers.size()].id;
      for (const DatacenterId requester : world_.dc) {
        triples_.push_back(Triple{PartitionId{p}, requester, holder});
      }
    }
  }

  /// Route every triple three times on the memo router (a miss, a hit
  /// that stores the route, a hit served from the stored copy) and on the
  /// memo-off baseline; every field must match exactly.
  void expect_matches_baseline(const char* step) {
    for (int pass = 0; pass < 3; ++pass) {
      for (const Triple& t : triples_) {
        const Route& want =
            baseline_.route(t.partition, t.requester, t.holder, live_by_dc_);
        const Route& got =
            router_.route(t.partition, t.requester, t.holder, live_by_dc_);
        ASSERT_EQ(got.stages.size(), want.stages.size())
            << step << " pass " << pass << " partition "
            << t.partition.value();
        for (std::size_t i = 0; i < want.stages.size(); ++i) {
          EXPECT_EQ(got.stages[i].dc, want.stages[i].dc) << step;
          EXPECT_EQ(got.stages[i].relay, want.stages[i].relay) << step;
          EXPECT_EQ(got.stages[i].hops_at_entry, want.stages[i].hops_at_entry)
              << step;
          EXPECT_EQ(got.stages[i].latency_ms, want.stages[i].latency_ms)
              << step;
        }
        EXPECT_EQ(got.holder, want.holder) << step;
        EXPECT_EQ(got.total_hops, want.total_hops) << step;
        EXPECT_EQ(got.total_latency_ms, want.total_latency_ms) << step;
      }
    }
  }

  /// A transit relay of the first triple with more than one stage: killing
  /// it forces the cached relay to change.
  ServerId transit_relay() {
    for (const Triple& t : triples_) {
      const Route& route =
          baseline_.route(t.partition, t.requester, t.holder, live_by_dc_);
      if (route.stages.size() > 1) return route.stages.front().relay;
    }
    ADD_FAILURE() << "no multi-stage route";
    return ServerId::invalid();
  }

  void kill(ServerId server) {
    auto& live = live_by_dc_[world_.topology.server(server).datacenter.value()];
    live.erase(std::find(live.begin(), live.end(), server));
    router_.invalidate_routes();
    baseline_.invalidate_routes();
  }

  void revive(ServerId server) {
    auto& live = live_by_dc_[world_.topology.server(server).datacenter.value()];
    live.insert(std::lower_bound(live.begin(), live.end(), server), server);
    router_.invalidate_routes();
    baseline_.invalidate_routes();
  }

  Router baseline_;
  std::vector<Triple> triples_;
};

TEST_F(RelayCacheTest, MatchesMemoOffAcrossInvalidations) {
  expect_matches_baseline("cold start");

  for (std::uint32_t p = 0; p < 16; ++p) {
    router_.invalidate_routes_for(PartitionId{p});
  }
  expect_matches_baseline("invalidate_routes_for");

  const ServerId victim = transit_relay();
  kill(victim);
  expect_matches_baseline("kill");

  revive(victim);
  expect_matches_baseline("revive");

  // A new primary without invalidate_routes_for: the holder check alone
  // must stop the stored routes from being served.
  const auto& servers = world_.topology.servers();
  for (Triple& t : triples_) {
    t.holder = servers[(t.holder.value() + 11) % servers.size()].id;
  }
  expect_matches_baseline("holder moved");

  RouterTestPeer::set_stamp(router_, std::numeric_limits<std::uint32_t>::max());
  kill(victim);  // the invalidation wraps the memo router's stamp
  expect_matches_baseline("stamp wrap");
}

TEST_F(RelayCacheTest, GlobalStampWrapClearsRowsStampedBeforeIt) {
  // Rows filled at stamp 1, then ~2^32 invalidations that never touch
  // them: after the wrap the stamp is 1 again and the rows must not count
  // as current.
  expect_matches_baseline("cold start");
  RouterTestPeer::set_stamp(router_, std::numeric_limits<std::uint32_t>::max());
  kill(transit_relay());
  (void)router_.take_counts();
  expect_matches_baseline("after wrap");
  const RouteCounts counts = router_.take_counts();
  EXPECT_EQ(counts.memo_misses, triples_.size());
  EXPECT_EQ(counts.memo_hits, 2 * triples_.size());
}

TEST_F(RelayCacheTest, PartitionStampWrapClearsThatPartitionsMemo) {
  const Triple t = triples_.front();
  (void)router_.route(t.partition, t.requester, t.holder, live_by_dc_);
  router_.invalidate_routes_for(t.partition);  // partition stamp 0 -> 1
  (void)router_.route(t.partition, t.requester, t.holder, live_by_dc_);
  RouterTestPeer::set_partition_stamp(
      router_, t.partition, std::numeric_limits<std::uint32_t>::max());
  router_.invalidate_routes_for(t.partition);  // wraps back to 1
  (void)router_.take_counts();
  (void)router_.route(t.partition, t.requester, t.holder, live_by_dc_);
  EXPECT_EQ(router_.take_counts().memo_misses, 1u);
  expect_matches_baseline("after partition wrap");
}

TEST_F(RelayCacheTest, PlacementInvalidationKeepsRelaysAndLivenessDropsThem) {
  const Triple t = triples_.front();
  DatacenterId transit = DatacenterId::invalid();
  for (const Triple& candidate : triples_) {
    const Route& route = router_.route(candidate.partition,
                                       candidate.requester, candidate.holder,
                                       live_by_dc_);
    if (candidate.partition == t.partition && route.stages.size() > 1) {
      transit = route.stages.front().dc;
      break;
    }
  }
  ASSERT_TRUE(transit.valid());
  const ServerId cached =
      RouterTestPeer::cached_relay(router_, t.partition, transit);
  ASSERT_TRUE(cached.valid());

  router_.invalidate_routes_for(t.partition);
  EXPECT_EQ(RouterTestPeer::cached_relay(router_, t.partition, transit),
            cached);

  router_.invalidate_routes();
  EXPECT_FALSE(
      RouterTestPeer::cached_relay(router_, t.partition, transit).valid());
}

TEST_F(RelayCacheTest, OnlyRoutesAskedForTwiceAreStored) {
  const PartitionId p = triples_.front().partition;
  for (const Triple& t : triples_) {
    if (t.partition != p) continue;
    (void)router_.route(t.partition, t.requester, t.holder, live_by_dc_);
  }
  EXPECT_EQ(RouterTestPeer::stored_routes(router_, p), 0u);
  const Triple& t = triples_.front();
  for (int ask = 0; ask < 3; ++ask) {
    (void)router_.route(t.partition, t.requester, t.holder, live_by_dc_);
    EXPECT_EQ(RouterTestPeer::stored_routes(router_, p), 1u);
  }
}

TEST_F(RelayCacheTest, MemoOffCachesNoRelay) {
  for (const Triple& t : triples_) {
    (void)baseline_.route(t.partition, t.requester, t.holder, live_by_dc_);
    for (const DatacenterId dc : world_.dc) {
      EXPECT_FALSE(
          RouterTestPeer::cached_relay(baseline_, t.partition, dc).valid());
    }
  }
}

TEST_F(RelayCacheTest, ConcurrentShardsMatchMemoOff) {
  // The propagate-shard contract: memo pre-sized, each shard routes only
  // its own partitions with its own context, and shards fill their rows'
  // memo entries, stored routes and relays at once. Run under TSan in CI.
  constexpr std::uint32_t kShards = 4;
  router_.reserve_memo(16);
  std::vector<Route> got(triples_.size());
  std::vector<Router::RouteCtx> ctxs(kShards);
  std::vector<std::thread> threads;
  for (std::uint32_t shard = 0; shard < kShards; ++shard) {
    threads.emplace_back([&, shard] {
      for (int pass = 0; pass < 3; ++pass) {
        for (std::size_t i = 0; i < triples_.size(); ++i) {
          const Triple& t = triples_[i];
          if (t.partition.value() % kShards != shard) continue;
          got[i] = router_.route(t.partition, t.requester, t.holder,
                                 live_by_dc_, ctxs[shard]);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (Router::RouteCtx& ctx : ctxs) router_.flush_counts(ctx);
  const RouteCounts counts = router_.take_counts();
  EXPECT_EQ(counts.routes, 3 * triples_.size());
  EXPECT_EQ(counts.memo_misses, triples_.size());
  for (std::size_t i = 0; i < triples_.size(); ++i) {
    const Triple& t = triples_[i];
    const Route& want =
        baseline_.route(t.partition, t.requester, t.holder, live_by_dc_);
    ASSERT_EQ(got[i].stages.size(), want.stages.size());
    for (std::size_t k = 0; k < want.stages.size(); ++k) {
      EXPECT_EQ(got[i].stages[k].relay, want.stages[k].relay);
    }
    EXPECT_EQ(got[i].total_latency_ms, want.total_latency_ms);
  }
}

}  // namespace
}  // namespace rfh
