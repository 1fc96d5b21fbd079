// End-to-end causal-chain reconstruction (the rfh_blackbox contract):
// run full scenarios under FaultPlan chaos with a TimelineStore recorder
// attached, then assert the forensic queries recover complete
// injection -> mechanism -> outcome chains for each fault family.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "check/case.h"
#include "fault/plan.h"
#include "harness/cli.h"
#include "harness/runner.h"
#include "obs/timeline.h"

namespace rfh {
namespace {

Scenario base_scenario(Epoch epochs, std::uint64_t seed) {
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = epochs;
  scenario.sim.seed = seed;
  scenario.world.seed = seed;
  return scenario;
}

/// Run the scenario with a fresh recorder; the store outlives the run.
void fly(const Scenario& scenario, TimelineStore& store) {
  (void)run_policy(scenario, PolicyKind::kRfh, {}, RfhPolicy::Options{},
                   /*trace_sink=*/nullptr, /*metrics=*/nullptr,
                   /*profiler=*/nullptr, /*checker=*/nullptr, &store);
}

bool is_fault(const TimelineRecord& rec, const char* kind) {
  return rec.type == event_type_index<FaultInjected>() &&
         rec.label != nullptr && std::strcmp(rec.label, kind) == 0;
}

/// Count records of `outcome_type` whose chain walks back through a
/// ServerFailed link to a FaultInjected root of the given kind — the
/// full "chaos injected X -> server died -> partition reacted" story.
std::size_t complete_chains(const TimelineQuery& query,
                            std::uint8_t outcome_type, const char* kind) {
  std::size_t complete = 0;
  for (const TimelineRecord& rec : query.records()) {
    if (rec.type != outcome_type) continue;
    const std::vector<TimelineRecord> chain = query.chain(rec.id);
    if (chain.size() < 3) continue;
    if (!is_fault(chain.front(), kind)) continue;
    bool through_failure = false;
    for (const TimelineRecord& link : chain) {
      if (link.type == event_type_index<ServerFailed>()) {
        through_failure = true;
      }
    }
    if (through_failure && chain.back().id == rec.id) ++complete;
  }
  return complete;
}

TEST(BlackboxChainTest, MassCrashChainsPromotionsToInjection) {
  Scenario scenario = base_scenario(30, 7);
  FaultEvent crash;
  crash.kind = FaultKind::kCrash;
  crash.at = 10;
  crash.count = 25;
  scenario.fault_plan.add(crash);
  TimelineStore store(scenario.sim.partitions);
  fly(scenario, store);
  const TimelineQuery query(store);

  // The injection itself is in the record...
  std::size_t injections = 0;
  for (const TimelineRecord& rec : query.records()) {
    if (is_fault(rec, "crash")) ++injections;
  }
  EXPECT_EQ(injections, 1u);
  // ...and killing a quarter of the fleet forced failovers whose chains
  // walk all the way back to it: crash -> ServerFailed -> PrimaryPromoted.
  EXPECT_GT(complete_chains(query, event_type_index<PrimaryPromoted>(),
                            "crash"),
            0u);

  // why() at the crash epoch answers with a causal chain, not a bare
  // record, for at least one affected partition.
  bool found_causal_answer = false;
  for (std::uint32_t p = 0; p < scenario.sim.partitions; ++p) {
    const std::vector<TimelineRecord> chain = query.why(PartitionId{p}, 12);
    if (chain.size() >= 3 && is_fault(chain.front(), "crash")) {
      found_causal_answer = true;
      break;
    }
  }
  EXPECT_TRUE(found_causal_answer);
}

TEST(BlackboxChainTest, DatacenterOutageChainsThroughItsServers) {
  Scenario scenario = base_scenario(24, 11);
  FaultEvent outage;
  outage.kind = FaultKind::kDatacenterOutage;
  outage.at = 8;
  outage.dc = DatacenterId{1};
  outage.recover_after = 8;
  scenario.fault_plan.add(outage);
  TimelineStore store(scenario.sim.partitions);
  fly(scenario, store);
  const TimelineQuery query(store);

  // Every ServerFailed of the outage epoch is parented to the injection.
  const TimelineRecord* injection = nullptr;
  for (const TimelineRecord& rec : query.records()) {
    if (is_fault(rec, "outage")) injection = &rec;
  }
  ASSERT_NE(injection, nullptr);
  EXPECT_EQ(injection->dc, 1u);
  std::size_t outage_kills = 0;
  for (const TimelineRecord& rec : query.records()) {
    if (rec.type == event_type_index<ServerFailed>() &&
        rec.parent == injection->id) {
      ++outage_kills;
    }
  }
  EXPECT_EQ(outage_kills, static_cast<std::size_t>(injection->a))
      << "every kill of the outage should be parented to its injection";
  EXPECT_GT(outage_kills, 0u);
  // And the downstream reactions reconstruct completely.
  const std::size_t promoted = complete_chains(
      query, event_type_index<PrimaryPromoted>(), "outage");
  const std::size_t reseeded =
      complete_chains(query, event_type_index<Reseeded>(), "outage");
  EXPECT_GT(promoted + reseeded, 0u);
}

TEST(BlackboxChainTest, LinkDownChainsTopologyChangeToInjection) {
  Scenario scenario = base_scenario(24, 5);
  FaultEvent linkdown;
  linkdown.kind = FaultKind::kLinkDown;
  linkdown.at = 6;
  linkdown.link_a = DatacenterId{0};
  linkdown.link_b = DatacenterId{1};
  linkdown.restore_at = 14;
  scenario.fault_plan.add(linkdown);
  TimelineStore store(scenario.sim.partitions);
  fly(scenario, store);
  const TimelineQuery query(store);

  const TimelineRecord* injection = nullptr;
  const TimelineRecord* link_failed = nullptr;
  for (const TimelineRecord& rec : query.records()) {
    if (is_fault(rec, "linkdown")) injection = &rec;
    if (rec.type == event_type_index<LinkFailed>()) link_failed = &rec;
  }
  ASSERT_NE(injection, nullptr);
  ASSERT_NE(link_failed, nullptr);
  EXPECT_EQ(link_failed->parent, injection->id);
  const std::vector<TimelineRecord> chain = query.chain(link_failed->id);
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_TRUE(is_fault(chain.front(), "linkdown"));
  // The injection shows up under both endpoint datacenters.
  EXPECT_FALSE(query.dc_records(DatacenterId{0}).empty());
  EXPECT_FALSE(query.dc_records(DatacenterId{1}).empty());
}

TEST(BlackboxChainTest, RollingChurnChainsEveryWave) {
  Scenario scenario = base_scenario(30, 13);
  FaultEvent churn;
  churn.kind = FaultKind::kChurn;
  churn.at = 4;
  churn.until = 28;
  churn.period = 4;
  churn.kill = 3;
  churn.recover = 2;
  scenario.fault_plan.add(churn);
  TimelineStore store(scenario.sim.partitions);
  fly(scenario, store);
  const TimelineQuery query(store);

  // One injection per wave: epochs 4, 8, ..., 24.
  std::vector<Epoch> wave_epochs;
  for (const TimelineRecord& rec : query.records()) {
    if (is_fault(rec, "churn")) wave_epochs.push_back(rec.epoch);
  }
  EXPECT_EQ(wave_epochs.size(), 6u);
  // Each wave's kills are parented to that wave's injection — chains
  // never cross waves.
  for (const TimelineRecord& rec : query.records()) {
    if (rec.type != event_type_index<ServerFailed>()) continue;
    const TimelineRecord* parent = query.find(rec.parent);
    ASSERT_NE(parent, nullptr) << "kill #" << rec.id << " has no parent";
    EXPECT_TRUE(is_fault(*parent, "churn"));
    EXPECT_EQ(parent->epoch, rec.epoch);
  }
}

TEST(BlackboxChainTest, SloBreachChainsToAmbientDisturbance) {
  // Churn from epoch 0 keeps an injection as the ambient cause, and a
  // deliberately tight migration ceiling guarantees the watchdog fires;
  // the breach must then chain back to chaos, not float as a root.
  Scenario scenario = base_scenario(30, 3);
  FaultEvent churn;
  churn.kind = FaultKind::kChurn;
  churn.at = 0;
  churn.until = 30;
  churn.period = 2;
  churn.kill = 2;
  churn.recover = 2;
  scenario.fault_plan.add(churn);
  scenario.slo.migrations_per_epoch = 0.2;
  scenario.slo.short_window = 1;
  scenario.slo.long_window = 2;
  TimelineStore store(scenario.sim.partitions);
  const PolicyRun run = run_policy(
      scenario, PolicyKind::kRfh, {}, RfhPolicy::Options{}, nullptr, nullptr,
      nullptr, nullptr, &store);
  ASSERT_FALSE(run.slo_breaches.empty());
  const TimelineQuery query(store);
  std::size_t chained = 0;
  for (const SloBreachRecord& breach : run.slo_breaches) {
    ASSERT_NE(breach.cause_id, 0u);
    const std::vector<TimelineRecord> chain = query.chain(breach.cause_id);
    ASSERT_FALSE(chain.empty());
    EXPECT_EQ(chain.back().type, event_type_index<SloBreach>());
    if (chain.front().type == event_type_index<FaultInjected>()) ++chained;
  }
  EXPECT_GT(chained, 0u);
}

// rfh_blackbox checks --kill with parse_kills against the scenario it is
// about to fly: the paper drill's 100-server world, or a --case world.
TEST(BlackboxKillTest, KillingEveryServerIsRejectedBeforeTheRun) {
  const Scenario paper = Scenario::paper_random_query();
  std::vector<FailureEvent> failures;
  const std::vector<std::string> all{"100@2"};
  EXPECT_NE(parse_kills(all, paper, failures), "");
  EXPECT_TRUE(failures.empty());
  const std::vector<std::string> most{"60@2", "39@4"};
  EXPECT_EQ(parse_kills(most, paper, failures), "");
  EXPECT_EQ(failures.size(), 2u);

  // A corpus case brings its own world: 10 datacenters x 3 servers.
  const CheckCase::ParseResult parsed = CheckCase::load(
      std::string(RFH_TEST_DATA_DIR) + "/corpus/zone_outage_regional.json");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const Scenario small = parsed.value.to_scenario();
  failures.clear();
  const std::vector<std::string> thirty{"30@2"};
  EXPECT_NE(parse_kills(thirty, small, failures), "");
  const std::vector<std::string> twenty_nine{"29@2"};
  EXPECT_EQ(parse_kills(twenty_nine, small, failures), "");
}

TEST(BlackboxKillTest, KillCountTooWideForUint32IsRejected) {
  const Scenario paper = Scenario::paper_random_query();
  std::vector<FailureEvent> failures;
  for (const char* value : {"4294967296@2", "4294967297@2"}) {
    const std::vector<std::string> kills{value};
    EXPECT_NE(parse_kills(kills, paper, failures), "") << value;
  }
  EXPECT_TRUE(failures.empty());
}

// rfh_blackbox reads --epochs and --partitions with parse_count, so a
// value wider than 32 bits is refused instead of wrapping to a run of 0
// or 1 epochs (or partitions).
TEST(BlackboxFlagTest, CountsTooWideForUint32AreRejected) {
  std::uint32_t out = 7;
  for (const char* value : {"4294967296", "4294967297", "0", "-1", "ten"}) {
    const std::string reason = parse_count("--epochs", value, out);
    EXPECT_NE(reason.find("--epochs"), std::string::npos) << value;
  }
  EXPECT_EQ(out, 7u);
  EXPECT_EQ(parse_count("--partitions", "4294967295", out), "");
  EXPECT_EQ(out, 4294967295u);
}

}  // namespace
}  // namespace rfh
