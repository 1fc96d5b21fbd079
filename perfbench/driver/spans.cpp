#include "spans.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace perfbench {

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

std::uint32_t Tracer::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::size_t Tracer::open(std::uint32_t name) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.op = op_;
  span.start_ns = now_ns();
  spans_.push_back(span);
  stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
  return spans_.size() - 1;
}

void Tracer::close(std::size_t index) {
  if (stack_.empty() || static_cast<std::size_t>(stack_.back()) != index) {
    throw std::logic_error("perfbench: spans must close innermost first");
  }
  stack_.pop_back();
  spans_[index].end_ns = now_ns();
}

void Tracer::write_json(std::ostream& out) const {
  out << "{\"names\":[";
  for (std::size_t i = 0; i < names_.size(); ++i) {
    out << (i ? "," : "") << '"' << names_[i] << '"';
  }
  out << "],\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << '[' << s.name << ',' << s.parent << ','
        << s.op << ',' << s.start_ns << ',' << s.end_ns << ']';
  }
  out << "]}\n";
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = lo;  // covered up to here
    for (const auto& [start, end] : kids) {
      const std::int64_t a = std::max(start, reach);
      const std::int64_t b = std::min(end, hi);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::map<std::string, LayerTotals> layer_totals(
    const Tracer& tracer, const std::function<bool(std::uint64_t)>& keep) {
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!keep(spans[i].op)) continue;
    LayerTotals& t = out[tracer.names()[spans[i].name]];
    t.self_ms += static_cast<double>(self[i]) * 1e-6;
    t.total_ms += static_cast<double>(spans[i].end_ns - spans[i].start_ns) *
                  1e-6;
    ++t.calls;
  }
  return out;
}

}  // namespace perfbench
