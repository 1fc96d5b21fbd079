// All-pairs shortest paths over the datacenter graph.
//
// Routes are computed once per topology change (Dijkstra from every
// source) and cached; queries then walk fixed paths, which is what makes
// "necessary routing paths" — and therefore traffic hubs — well-defined.
// Ties are broken deterministically (lowest-id predecessor) so identical
// seeds give identical figures.
#pragma once

#include <limits>
#include <vector>

#include "common/ids.h"
#include "net/graph.h"

namespace rfh {

class ShortestPaths {
 public:
  explicit ShortestPaths(const DcGraph& graph);

  /// Full path from `from` to `to`, inclusive of both endpoints.
  /// A path from a node to itself is the single-element path {from}.
  [[nodiscard]] std::vector<DatacenterId> path(DatacenterId from,
                                               DatacenterId to) const;

  /// path() written into `out` (cleared first), so a caller routing many
  /// queries reuses one buffer instead of allocating per path.
  void path_into(DatacenterId from, DatacenterId to,
                 std::vector<DatacenterId>& out) const;

  /// Shortest-path length in kilometres; +inf if unreachable.
  [[nodiscard]] double distance_km(DatacenterId from, DatacenterId to) const;

  /// Number of edges on the shortest path (0 for from == to).
  [[nodiscard]] std::uint32_t hop_count(DatacenterId from,
                                        DatacenterId to) const;

  /// For each datacenter, how many of the single-source shortest paths
  /// from all other datacenters to `to` pass *through* it (endpoints not
  /// counted). This is the static "conjunction node" structure; the
  /// dynamic traffic hubs weight it by live query volume.
  [[nodiscard]] std::vector<std::uint32_t> transit_counts(
      DatacenterId to) const;

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  static constexpr double kUnreachable = std::numeric_limits<double>::infinity();

 private:
  std::size_t n_;
  // dist_[s * n_ + t]; pred_[s * n_ + t] = predecessor of t on path from s.
  std::vector<double> dist_;
  std::vector<DatacenterId> pred_;
};

}  // namespace rfh
