// Pluggable trace consumers for the EventBus. Each implements the one
// EventSink entry point, on_record(event, meta).
//
//  * CaptureSink    — every event in memory, in dispatch order; tests
//    count and inspect it, the differential checker slices it per epoch.
//  * JsonlSink      — one self-describing JSON object per line; the
//    machine-readable archive format (jq / pandas friendly).
//  * ChromeTraceSink— Chrome trace_event JSON array loadable in Perfetto /
//    about://tracing; epochs become duration slices, point events become
//    instants, and the replica census becomes a counter track.
//  * FilterSink     — decorator passing only a named subset of event
//    types through to an inner sink (the CLI's --trace-filter).
//
// The bounded, causality-indexed in-memory recorder is TimelineStore
// (obs/timeline.h).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/event_bus.h"

namespace rfh {

/// Keeps every dispatched event, in dispatch order. Unbounded: meant for
/// tests and short checked runs, not for long traced simulations.
class CaptureSink final : public EventSink {
 public:
  void on_record(const Event& event, const TraceMeta& /*meta*/) override {
    events.push_back(event);
  }
  std::vector<Event> events;
};

/// One JSON object per line: {"type":...,"epoch":...,<event fields>},
/// led by the causal envelope — {"id":N,"parent":M,...}; "parent" is
/// omitted for roots — so a JSONL trace carries the same cause chains the
/// flight recorder indexes.
class JsonlSink final : public EventSink {
 public:
  /// The stream must outlive the sink; the sink never closes it.
  explicit JsonlSink(std::ostream& out) : out_(&out) {}

  void on_record(const Event& event, const TraceMeta& meta) override;
  void flush() override { out_->flush(); }

 private:
  std::ostream* out_;
  std::string scratch_;  // reused per event to avoid reallocating
};

/// Chrome trace_event "JSON array format". Each epoch is a complete ("X")
/// slice on the epochs track, point events are instants ("i") on a track
/// per category, and EpochCompleted additionally feeds counter ("C")
/// tracks for replicas and dropped actions. Load the file directly in
/// https://ui.perfetto.dev or about://tracing.
class ChromeTraceSink final : public EventSink {
 public:
  /// `epoch_duration_us` maps one simulated epoch onto the trace
  /// timeline; Table I's 10-second epoch is the default.
  explicit ChromeTraceSink(std::ostream& out,
                           std::uint64_t epoch_duration_us = 10'000'000);

  void on_record(const Event& event, const TraceMeta& meta) override;
  /// Emits the closing bracket (idempotent).
  void flush() override;
  ~ChromeTraceSink() override { flush(); }

 private:
  void write_record(const std::string& json);

  std::ostream* out_;
  std::uint64_t epoch_us_;
  bool first_record_ = true;
  bool closed_ = false;
  std::string scratch_;
};

/// Forwards only events whose type name is in the allow-list.
class FilterSink final : public EventSink {
 public:
  /// `spec` is a comma-separated list of event type names (exact match,
  /// e.g. "ReplicaAdded,ActionDropped"). Unknown names are kept verbatim
  /// and simply never match. An empty spec passes everything through.
  FilterSink(EventSink& inner, std::string_view spec);

  /// Forwards the event together with its envelope, so a filtered row is
  /// identical to the same row of an unfiltered trace.
  void on_record(const Event& event, const TraceMeta& meta) override;
  void flush() override { inner_->flush(); }

  [[nodiscard]] bool passes(std::string_view name) const noexcept;

 private:
  EventSink* inner_;
  std::vector<std::string> allowed_;  // empty => pass-through
};

/// Serialize one event as a single-line JSON object (the JsonlSink row
/// format); exposed for tests and ad-hoc tooling.
[[nodiscard]] std::string event_to_json(const Event& event);

}  // namespace rfh
