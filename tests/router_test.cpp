#include "routing/router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <thread>

#include "net/graph.h"
#include "topology/world.h"

namespace rfh {

// Reaches the router's stamp and relay rows, so tests can stand a router
// at a 32-bit stamp wrap without 2^32 invalidations.
class RouterTestPeer {
 public:
  static void set_stamp(Router& router, std::uint32_t stamp) {
    router.stamp_ = stamp;
  }
  /// The relay cached for (partition, dc), or invalid if none is current.
  static ServerId cached_relay(const Router& router, PartitionId partition,
                               DatacenterId dc) {
    if (partition.value() >= router.rows_.size()) return ServerId::invalid();
    const Router::RelayRow& row = router.rows_[partition.value()];
    if (row.stamp != router.stamp_ || row.relays.empty()) {
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
  // Liveness changed: the owner of a Router must drop its cached relays
  // (the engine does this in fail_servers / recover_servers).
  router_.invalidate_relays();
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

// --- relay cache vs Router::relay_for ---------------------------------

struct Triple {
  PartitionId partition;
  DatacenterId requester;
  ServerId holder;
};

class RelayCacheTest : public RouterTest {
 protected:
  RelayCacheTest() {
    const auto& servers = world_.topology.servers();
    for (std::uint32_t p = 0; p < 16; ++p) {
      const ServerId holder = servers[(p * 37) % servers.size()].id;
      for (const DatacenterId requester : world_.dc) {
        triples_.push_back(Triple{PartitionId{p}, requester, holder});
      }
    }
  }

  /// The route the paper's rules give, built from scratch: the shortest
  /// datacenter path, dead datacenters skipped at the cost of a hop, and
  /// every transit relay hashed afresh with the static relay_for.
  Route expected(const Triple& t) const {
    const DatacenterId holder_dc = world_.topology.server(t.holder).datacenter;
    Route want;
    want.holder = t.holder;
    std::uint32_t hops = 1;
    double latency = kHopLatencyMs;
    for (const DatacenterId dc : paths_.path(t.requester, holder_dc)) {
      latency = kHopLatencyMs * hops +
                paths_.distance_km(t.requester, dc) / kFibreKmPerMs;
      const std::vector<ServerId>& live = live_by_dc_[dc.value()];
      if (!live.empty()) {
        const ServerId relay = dc == holder_dc
                                   ? t.holder
                                   : Router::relay_for(t.partition, dc, live);
        want.stages.push_back(RouteStage{dc, relay, hops, latency});
      }
      ++hops;
    }
    want.total_hops = hops;
    want.total_latency_ms = latency + kHopLatencyMs;
    return want;
  }

  static void expect_same(const Route& got, const Route& want,
                          const std::string& where) {
    ASSERT_EQ(got.stages.size(), want.stages.size()) << where;
    for (std::size_t i = 0; i < want.stages.size(); ++i) {
      EXPECT_EQ(got.stages[i].dc, want.stages[i].dc) << where;
      EXPECT_EQ(got.stages[i].relay, want.stages[i].relay) << where;
      EXPECT_EQ(got.stages[i].hops_at_entry, want.stages[i].hops_at_entry)
          << where;
      EXPECT_EQ(got.stages[i].latency_ms, want.stages[i].latency_ms) << where;
    }
    EXPECT_EQ(got.holder, want.holder) << where;
    EXPECT_EQ(got.total_hops, want.total_hops) << where;
    EXPECT_EQ(got.total_latency_ms, want.total_latency_ms) << where;
  }

  /// Route every triple twice (the first pass may fill the cache, the
  /// second reads it); every field must match the from-scratch route.
  void expect_matches_relay_for(const char* step) {
    for (int pass = 0; pass < 2; ++pass) {
      for (const Triple& t : triples_) {
        expect_same(
            router_.route(t.partition, t.requester, t.holder, live_by_dc_),
            expected(t),
            std::string(step) + " pass " + std::to_string(pass) +
                " partition " + std::to_string(t.partition.value()));
      }
    }
  }

  /// A transit relay of the first triple with more than one stage: killing
  /// it forces the cached relay to change.
  ServerId transit_relay() const {
    for (const Triple& t : triples_) {
      const Route want = expected(t);
      if (want.stages.size() > 1) return want.stages.front().relay;
    }
    ADD_FAILURE() << "no multi-stage route";
    return ServerId::invalid();
  }

  void kill(ServerId server) {
    auto& live = live_by_dc_[world_.topology.server(server).datacenter.value()];
    live.erase(std::find(live.begin(), live.end(), server));
    router_.invalidate_relays();
  }

  void revive(ServerId server) {
    auto& live = live_by_dc_[world_.topology.server(server).datacenter.value()];
    live.insert(std::lower_bound(live.begin(), live.end(), server), server);
    router_.invalidate_relays();
  }

  std::vector<Triple> triples_;
};

TEST_F(RelayCacheTest, MatchesRelayForAcrossInvalidations) {
  expect_matches_relay_for("cold start");

  const ServerId victim = transit_relay();
  kill(victim);
  expect_matches_relay_for("kill");

  revive(victim);
  expect_matches_relay_for("revive");

  // A new primary for every partition: relays do not depend on placement.
  const auto& servers = world_.topology.servers();
  for (Triple& t : triples_) {
    t.holder = servers[(t.holder.value() + 11) % servers.size()].id;
  }
  expect_matches_relay_for("holder moved");

  // A network rebuild swaps the path table under the router (the engine
  // reassigns its ShortestPaths in place); cached relays stay valid.
  bool rebuilt = false;
  for (std::size_t drop = 0; drop < world_.links.size() && !rebuilt; ++drop) {
    std::vector<Link> links = world_.links;
    links.erase(links.begin() + static_cast<std::ptrdiff_t>(drop));
    DcGraph graph(world_.topology.datacenter_count(), links);
    if (!graph.connected()) continue;
    graph_ = std::move(graph);
    paths_ = ShortestPaths(graph_);
    rebuilt = true;
  }
  ASSERT_TRUE(rebuilt);
  expect_matches_relay_for("network rebuild");

  RouterTestPeer::set_stamp(router_, std::numeric_limits<std::uint32_t>::max());
  kill(victim);  // the invalidation wraps the stamp
  expect_matches_relay_for("stamp wrap");
}

TEST_F(RelayCacheTest, GlobalStampWrapClearsRowsStampedBeforeIt) {
  // Rows filled at stamp 1, then ~2^32 invalidations that never touch
  // them: after the wrap the stamp is 1 again and the rows must not count
  // as current, or the killed relay would still be served.
  expect_matches_relay_for("cold start");
  const ServerId victim = transit_relay();
  RouterTestPeer::set_stamp(router_, std::numeric_limits<std::uint32_t>::max());
  kill(victim);
  expect_matches_relay_for("after wrap");
  for (const Triple& t : triples_) {
    for (const RouteStage& stage :
         router_.route(t.partition, t.requester, t.holder, live_by_dc_)
             .stages) {
      EXPECT_NE(stage.relay, victim);
    }
  }
}

TEST_F(RelayCacheTest, PlacementInvalidationKeepsRelaysAndLivenessDropsThem) {
  Triple t = triples_.front();
  DatacenterId transit = DatacenterId::invalid();
  for (const Triple& candidate : triples_) {
    if (candidate.partition != t.partition) continue;
    const Route& route = router_.route(candidate.partition,
                                       candidate.requester, candidate.holder,
                                       live_by_dc_);
    if (route.stages.size() > 1) {
      t = candidate;
      transit = route.stages.front().dc;
      break;
    }
  }
  ASSERT_TRUE(transit.valid());
  const ServerId cached =
      RouterTestPeer::cached_relay(router_, t.partition, transit);
  ASSERT_TRUE(cached.valid());
  EXPECT_EQ(cached, Router::relay_for(t.partition, transit,
                                      live_by_dc_[transit.value()]));

  // A placement change (the primary moves into the transit datacenter)
  // leaves the cached relay in place.
  const ServerId new_holder = world_.topology.servers_in(transit).back();
  (void)router_.route(t.partition, t.requester, new_holder, live_by_dc_);
  EXPECT_EQ(RouterTestPeer::cached_relay(router_, t.partition, transit),
            cached);

  router_.invalidate_relays();
  EXPECT_FALSE(
      RouterTestPeer::cached_relay(router_, t.partition, transit).valid());
}

TEST_F(RelayCacheTest, ConcurrentShardsMatchRelayFor) {
  // The propagate-shard contract: relay cache pre-sized, each shard
  // routes only its own partitions with its own context, and shards fill
  // their rows' relays at once. Run under TSan in CI.
  constexpr std::uint32_t kShards = 4;
  router_.reserve_relays(16);
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
  EXPECT_EQ(router_.take_counts().routes, 3 * triples_.size());
  for (std::size_t i = 0; i < triples_.size(); ++i) {
    expect_same(got[i], expected(triples_[i]),
                "triple " + std::to_string(i));
  }
}

}  // namespace
}  // namespace rfh
