#include "net/shortest_paths.h"

#include <algorithm>
#include <queue>

#include "common/assert.h"

namespace rfh {

ShortestPaths::ShortestPaths(const DcGraph& graph)
    : n_(graph.size()),
      dist_(n_ * n_, kUnreachable),
      pred_(n_ * n_, DatacenterId::invalid()) {
  using QueueItem = std::pair<double, std::uint32_t>;  // (dist, node)
  for (std::size_t s = 0; s < n_; ++s) {
    auto* dist = &dist_[s * n_];
    auto* pred = &pred_[s * n_];
    dist[s] = 0.0;
    std::priority_queue<QueueItem, std::vector<QueueItem>,
                        std::greater<QueueItem>>
        queue;
    queue.emplace(0.0, static_cast<std::uint32_t>(s));
    while (!queue.empty()) {
      const auto [d, at] = queue.top();
      queue.pop();
      if (d > dist[at]) continue;  // stale entry
      for (const Edge& e : graph.neighbors(DatacenterId{at})) {
        const std::uint32_t to = e.to.value();
        const double nd = d + e.km;
        // Strictly-better relaxation, with a deterministic tie-break on
        // equal distance: prefer the lower-id predecessor.
        if (nd < dist[to] ||
            (nd == dist[to] && pred[to].valid() && at < pred[to].value())) {
          dist[to] = nd;
          pred[to] = DatacenterId{at};
          queue.emplace(nd, to);
        }
      }
    }
  }
}

std::vector<DatacenterId> ShortestPaths::path(DatacenterId from,
                                              DatacenterId to) const {
  std::vector<DatacenterId> out;
  path_into(from, to, out);
  return out;
}

void ShortestPaths::path_into(DatacenterId from, DatacenterId to,
                              std::vector<DatacenterId>& out) const {
  RFH_ASSERT(from.value() < n_ && to.value() < n_);
  RFH_ASSERT_MSG(dist_[from.value() * n_ + to.value()] != kUnreachable,
                 "no path between datacenters");
  out.clear();
  DatacenterId at = to;
  while (at != from) {
    out.push_back(at);
    at = pred_[from.value() * n_ + at.value()];
    RFH_ASSERT_MSG(at.valid(), "broken predecessor chain");
  }
  out.push_back(from);
  std::reverse(out.begin(), out.end());
}

double ShortestPaths::distance_km(DatacenterId from, DatacenterId to) const {
  RFH_ASSERT(from.value() < n_ && to.value() < n_);
  return dist_[from.value() * n_ + to.value()];
}

std::uint32_t ShortestPaths::hop_count(DatacenterId from,
                                       DatacenterId to) const {
  if (from == to) return 0;
  return static_cast<std::uint32_t>(path(from, to).size() - 1);
}

std::vector<std::uint32_t> ShortestPaths::transit_counts(
    DatacenterId to) const {
  std::vector<std::uint32_t> counts(n_, 0);
  for (std::size_t s = 0; s < n_; ++s) {
    if (s == to.value()) continue;
    const auto p = path(DatacenterId{static_cast<std::uint32_t>(s)}, to);
    for (std::size_t i = 1; i + 1 < p.size(); ++i) {
      ++counts[p[i].value()];
    }
  }
  return counts;
}

}  // namespace rfh
