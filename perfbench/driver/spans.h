// In-memory span recorder for the traced benchmark pass.
//
// The benchmark opens one span around every call it makes into a public
// layer entry point (Simulation::step, ChaosController::before_epoch, ...)
// and one root span per measured epoch or sweep cell. A span holds its
// name, start, end, parent and the id of the op (epoch or cell) it belongs
// to, so every span of one op shares that id. Spans stay in memory until
// the run ends; write_json() then dumps them in one go.
//
// A layer's self time is its span's duration minus the part of that
// interval covered by its children (self_times()). Recording is
// single-threaded: every traced call is made from the benchmark's thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::uint32_t name = 0;  ///< index into Tracer::names()
  std::int32_t parent = -1;
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;  ///< since the tracer's origin
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Stable id of a span name.
  std::uint32_t intern(std::string_view name);
  /// Spans opened from now on belong to op `op`.
  void set_op(std::uint64_t op) noexcept { op_ = op; }

  /// Open a span as a child of the innermost open span; returns its index.
  std::size_t open(std::uint32_t name);
  void close(std::size_t index);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return names_;
  }
  [[nodiscard]] std::int64_t now_ns() const;

  /// {"names": [...], "spans": [[name, parent, op, start_ns, end_ns], ...]}
  void write_json(std::ostream& out) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::vector<std::string> names_;
  std::uint64_t op_ = 0;
};

/// Duration of each span minus the union of its children's intervals,
/// clipped to the span itself; indexed like `spans`.
[[nodiscard]] std::vector<std::int64_t> self_times(
    const std::vector<Span>& spans);

/// Summed self time, summed duration (ms) and call count per span name,
/// over the spans whose op passes `keep`.
struct LayerTotals {
  double self_ms = 0.0;
  double total_ms = 0.0;
  std::uint64_t calls = 0;
};
[[nodiscard]] std::map<std::string, LayerTotals> layer_totals(
    const Tracer& tracer, const std::function<bool(std::uint64_t)>& keep);

/// Opens a span on construction and closes it on destruction; a null
/// tracer makes both ends a pointer test.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::uint32_t name)
      : tracer_(tracer), index_(tracer ? tracer->open(name) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::size_t index_;
};

}  // namespace perfbench
