#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "obs/event_bus.h"
#include "obs/sinks.h"
#include "test_util.h"

namespace rfh {
namespace {

using test::count_of;

Event sample_replica_added() {
  ReplicaAdded e;
  e.epoch = 7;
  e.partition = PartitionId{3};
  e.source = ServerId{1};
  e.target = ServerId{9};
  e.cost = 2.5;
  e.why.rule = DecisionRule::kOverloadHub;
  e.why.observed = 41.0;
  e.why.threshold = 24.0;
  e.why.q_bar = 12.0;
  e.why.beta = 2.0;
  e.why.replica_count = 2;
  e.why.r_min = 2;
  return e;
}

TEST(EventBus, DisabledWithoutSinksAndEmitIsANoOp) {
  EventBus bus;
  EXPECT_FALSE(bus.enabled());
  bus.emit(ServerFailed{0, ServerId{1}});  // must not crash
  EXPECT_EQ(bus.sink_count(), 0u);
}

TEST(EventBus, DispatchesToEverySinkInOrder) {
  EventBus bus;
  CaptureSink a;
  CaptureSink b;
  bus.add_sink(&a);
  bus.add_sink(&b);
  EXPECT_TRUE(bus.enabled());
  bus.emit(ServerFailed{0, ServerId{1}});
  bus.emit(ServerRecovered{1, ServerId{1}});
  EXPECT_EQ(a.events.size(), 2u);
  EXPECT_EQ(count_of<ServerFailed>(a), 1u);
  EXPECT_EQ(count_of<ServerRecovered>(a), 1u);
  ASSERT_EQ(b.events.size(), 2u);
  EXPECT_TRUE(std::holds_alternative<ServerFailed>(b.events[0]));
  EXPECT_TRUE(std::holds_alternative<ServerRecovered>(b.events[1]));
}

TEST(EventBus, OwnedSinksAreFlushedOnClose) {
  std::ostringstream out;
  {
    EventBus bus;
    bus.add_sink(std::make_unique<ChromeTraceSink>(out));
    bus.emit(sample_replica_added());
  }  // destructor closes the JSON array
  const std::string trace = out.str();
  EXPECT_EQ(trace.front(), '[');
  EXPECT_NE(trace.find("]"), std::string::npos);
}

TEST(EventName, CoversEveryAlternative) {
  EXPECT_STREQ(event_name(Event(QueryRoutedSummary{})), "QueryRoutedSummary");
  EXPECT_STREQ(event_name(Event(ReplicaAdded{})), "ReplicaAdded");
  EXPECT_STREQ(event_name(Event(MigrationExecuted{})), "MigrationExecuted");
  EXPECT_STREQ(event_name(Event(Suicide{})), "Suicide");
  EXPECT_STREQ(event_name(Event(ActionDropped{})), "ActionDropped");
  EXPECT_STREQ(event_name(Event(ServerFailed{})), "ServerFailed");
  EXPECT_STREQ(event_name(Event(ServerRecovered{})), "ServerRecovered");
  EXPECT_STREQ(event_name(Event(PrimaryPromoted{})), "PrimaryPromoted");
  EXPECT_STREQ(event_name(Event(Reseeded{})), "Reseeded");
  EXPECT_STREQ(event_name(Event(LinkFailed{})), "LinkFailed");
  EXPECT_STREQ(event_name(Event(LinkRestored{})), "LinkRestored");
  EXPECT_STREQ(event_name(Event(EpochCompleted{})), "EpochCompleted");
}

TEST(EventEpoch, ReadsTheStampedEpoch) {
  EXPECT_EQ(event_epoch(Event(ServerFailed{42, ServerId{1}})), 42u);
  EXPECT_EQ(event_epoch(sample_replica_added()), 7u);
}

TEST(JsonlSink, OneSelfDescribingObjectPerLine) {
  std::ostringstream out;
  JsonlSink sink(out);
  EventBus bus;
  bus.add_sink(&sink);
  bus.emit(sample_replica_added());
  bus.emit_caused(1, ServerFailed{8, ServerId{2}});
  std::istringstream lines(out.str());
  std::string first;
  std::string second;
  ASSERT_TRUE(std::getline(lines, first));
  ASSERT_TRUE(std::getline(lines, second));
  EXPECT_EQ(first.front(), '{');
  EXPECT_EQ(first.back(), '}');
  // The envelope leads the row; a root carries no "parent".
  EXPECT_EQ(first.rfind("{\"id\":1,\"type\":", 0), 0u) << first;
  EXPECT_NE(first.find("\"type\":\"ReplicaAdded\""), std::string::npos);
  EXPECT_NE(first.find("\"epoch\":7"), std::string::npos);
  EXPECT_NE(first.find("\"rule\":\"overload_hub\""), std::string::npos);
  EXPECT_NE(first.find("\"inequality\":\"tr >= beta*q_bar (Eq. 12)\""),
            std::string::npos);
  EXPECT_NE(second.find("\"type\":\"ServerFailed\""), std::string::npos);
  EXPECT_EQ(second.rfind("{\"id\":2,\"parent\":1,", 0), 0u) << second;
}

TEST(JsonlSink, InvalidIdsSerializeAsNull) {
  ActionDropped dropped;  // default target is invalid
  dropped.partition = PartitionId{1};
  const std::string json = event_to_json(Event(dropped));
  EXPECT_NE(json.find("\"target\":null"), std::string::npos);
}

// Structural JSON validation: every brace/bracket/quote balances. This is
// what "loads in Perfetto" reduces to for a generated file (Perfetto
// accepts any well-formed trace_event JSON array).
void expect_balanced_json(const std::string& text) {
  int depth_obj = 0;
  int depth_arr = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++depth_obj; break;
      case '}': --depth_obj; EXPECT_GE(depth_obj, 0); break;
      case '[': ++depth_arr; break;
      case ']': --depth_arr; EXPECT_GE(depth_arr, 0); break;
      default: break;
    }
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth_obj, 0);
  EXPECT_EQ(depth_arr, 0);
}

TEST(ChromeTraceSink, EmitsAWellFormedJsonArrayWithMetadata) {
  std::ostringstream out;
  {
    ChromeTraceSink sink(out);
    EventBus bus;
    bus.add_sink(&sink);
    bus.emit(sample_replica_added());
    EpochCompleted done;
    done.epoch = 7;
    done.total_replicas = 130;
    done.dropped_actions = 2;
    bus.emit(done);
    sink.flush();
    sink.flush();  // idempotent
  }
  const std::string trace = out.str();
  expect_balanced_json(trace);
  EXPECT_EQ(trace.front(), '[');
  // Metadata names the process; the instant event carries its args; the
  // epoch is a duration slice; counters feed the replica census track.
  EXPECT_NE(trace.find("\"process_name\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"C\""), std::string::npos);
  // Epoch 7 at the default 10 s/epoch => ts 70,000,000 us.
  EXPECT_NE(trace.find("\"ts\":70000000"), std::string::npos);
}

// FilterSink tests drive a real bus: the envelope only exists on the
// bus's dispatch path, so direct sink calls would not exercise it.
TEST(FilterSink, PassesOnlyListedTypes) {
  CaptureSink capture;
  FilterSink filter(capture, "ReplicaAdded, ActionDropped");
  EventBus bus;
  bus.add_sink(&filter);
  bus.emit(sample_replica_added());
  bus.emit(ServerFailed{1, ServerId{0}});
  bus.emit(ActionDropped{});
  EXPECT_EQ(capture.events.size(), 2u);
  EXPECT_EQ(count_of<ServerFailed>(capture), 0u);
  EXPECT_TRUE(filter.passes("ReplicaAdded"));
  EXPECT_FALSE(filter.passes("ServerFailed"));
}

TEST(FilterSink, EmptySpecPassesEverything) {
  CaptureSink capture;
  FilterSink filter(capture, "");
  EventBus bus;
  bus.add_sink(&filter);
  bus.emit(ServerFailed{1, ServerId{0}});
  EXPECT_EQ(capture.events.size(), 1u);
}

TEST(FilterSink, FilteredJsonlRowsKeepTheCausalEnvelope) {
  // The same bus feeds an unfiltered and a filtered JSONL sink; every
  // filtered row must be byte-identical to its unfiltered twin, ids and
  // parents included.
  std::ostringstream all_out;
  std::ostringstream filtered_out;
  JsonlSink all(all_out);
  JsonlSink filtered_jsonl(filtered_out);
  FilterSink filter(filtered_jsonl, "ReplicaAdded");
  EventBus bus;
  bus.add_sink(&all);
  bus.add_sink(&filter);
  const std::uint64_t fault = bus.emit(ServerFailed{1, ServerId{0}});
  bus.emit_caused(fault, sample_replica_added());
  bus.emit(sample_replica_added());  // a root: no parent
  bus.close();

  std::vector<std::string> rows;
  std::istringstream all_lines(all_out.str());
  for (std::string line; std::getline(all_lines, line);) {
    if (line.find("\"type\":\"ReplicaAdded\"") != std::string::npos) {
      rows.push_back(line);
    }
  }
  std::vector<std::string> kept;
  std::istringstream filtered_lines(filtered_out.str());
  for (std::string line; std::getline(filtered_lines, line);) {
    kept.push_back(line);
  }
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept, rows);
  EXPECT_EQ(kept[0].rfind("{\"id\":2,\"parent\":1,", 0), 0u) << kept[0];
  EXPECT_EQ(kept[1].rfind("{\"id\":3,\"type\":", 0), 0u) << kept[1];
}

TEST(Taxonomy, NamesAreStable) {
  EXPECT_STREQ(drop_reason_name(DropReason::kBandwidth), "bandwidth");
  EXPECT_STREQ(drop_reason_name(DropReason::kStorageCap), "storage_cap");
  EXPECT_STREQ(drop_reason_name(DropReason::kNodeCap), "node_cap");
  EXPECT_STREQ(drop_reason_name(DropReason::kDeadTarget), "dead_target");
  EXPECT_STREQ(drop_reason_name(DropReason::kInvalid), "invalid");
  EXPECT_STREQ(rule_name(DecisionRule::kAvailabilityFloor),
               "availability_floor");
  EXPECT_STREQ(rule_inequality(DecisionRule::kSuicideCold),
               "tr <= delta*q_bar (Eq. 15)");
  EXPECT_STREQ(action_kind_name(ActionKind::kMigrate), "migrate");
}

}  // namespace
}  // namespace rfh
