#include "sim/cluster.h"

#include <algorithm>

#include "common/assert.h"

namespace rfh {

ClusterState::ClusterState(const Topology& topology, const SimConfig& config)
    : topology_(&topology),
      config_(&config),
      partitions_(config.partitions),
      servers_(static_cast<std::uint32_t>(topology.server_count())),
      live_by_dc_(topology.datacenter_count()),
      ring_(config.ring_tokens_per_server) {
  servers_.bring_all_up();
  std::vector<ServerId> all;
  all.reserve(topology.server_count());
  for (const Server& s : topology.servers()) {
    all.push_back(s.id);
    live_by_dc_[s.datacenter.value()].push_back(s.id);
  }
  ring_.add_servers(all);
}

void ClusterState::add_replica(PartitionId p, ServerId s, bool primary) {
  RFH_ASSERT_MSG(alive(s), "cannot place a copy on a dead server");
  if (primary) {
    RFH_ASSERT_MSG(!primary_of(p).valid(), "partition already has a primary");
  }
  partitions_.add(p, s, primary);
  servers_.add_storage(s, config_->unit_size());
  servers_.inc_copies(s);
}

void ClusterState::remove_replica(PartitionId p, ServerId s) {
  partitions_.remove(p, s);
  servers_.sub_storage(s, config_->unit_size());
  servers_.dec_copies(s);
}

void ClusterState::set_primary(PartitionId p, ServerId s) {
  partitions_.set_primary(p, s);
}

ServerId ClusterState::primary_of(PartitionId p) const {
  return partitions_.primary_of(p);
}

std::span<const Replica> ClusterState::replicas_of(PartitionId p) const {
  return partitions_.replicas(p);
}

bool ClusterState::has_replica(PartitionId p, ServerId s) const {
  return partitions_.has(p, s);
}

std::uint32_t ClusterState::replica_count(PartitionId p) const {
  return partitions_.count(p);
}

std::vector<ServerId> ClusterState::hosts_in_dc(PartitionId p,
                                                DatacenterId dc) const {
  std::vector<ServerId> out;
  ServerId primary = ServerId::invalid();
  for (const Replica& r : replicas_of(p)) {
    if (topology_->server(r.server).datacenter == dc) {
      if (r.primary) {
        primary = r.server;
      } else {
        out.push_back(r.server);
      }
    }
  }
  std::sort(out.begin(), out.end());
  if (primary.valid()) out.push_back(primary);
  return out;
}

Bytes ClusterState::storage_used(ServerId s) const {
  return servers_.storage_used(s);
}

double ClusterState::storage_fraction(ServerId s) const {
  const Bytes cap = topology_->server(s).spec.storage_capacity;
  return cap == 0 ? 1.0
                  : static_cast<double>(storage_used(s)) /
                        static_cast<double>(cap);
}

std::uint32_t ClusterState::copies_on(ServerId s) const {
  return servers_.copies(s);
}

bool ClusterState::can_accept(ServerId s, PartitionId p) const {
  if (!alive(s) || has_replica(p, s)) return false;
  const ServerSpec& spec = topology_->server(s).spec;
  if (copies_on(s) >= spec.max_vnodes) return false;
  if (config_->redundancy == RedundancyMode::kErasure) {
    // Zone diversity: no datacenter may hold more than m fragments of a
    // stripe, so losing one whole DC can never destroy more fragments
    // than the stripe's parity budget tolerates.
    const DatacenterId dc = topology_->server(s).datacenter;
    std::uint32_t in_dc = 0;
    for (const Replica& r : replicas_of(p)) {
      if (topology_->server(r.server).datacenter == dc) ++in_dc;
    }
    if (in_dc >= config_->ec_m) return false;
  }
  const auto projected =
      static_cast<double>(storage_used(s) + config_->unit_size());
  return projected <=
         config_->storage_limit * static_cast<double>(spec.storage_capacity);
}

bool ClusterState::alive(ServerId s) const { return servers_.alive(s); }

std::vector<ClusterState::LostCopy> ClusterState::take_down(ServerId s) {
  RFH_ASSERT_MSG(alive(s), "server already dead");
  std::vector<LostCopy> lost;
  for (std::uint32_t p = 0; p < partitions_.partitions(); ++p) {
    const PartitionId pid{p};
    if (has_replica(pid, s)) {
      const bool was_primary = primary_of(pid) == s;
      remove_replica(pid, s);
      lost.push_back(LostCopy{pid, was_primary});
    }
  }
  servers_.set_alive(s, false);
  live_list_erase(s);
  return lost;
}

std::vector<ClusterState::LostCopy> ClusterState::kill_server(ServerId s) {
  std::vector<LostCopy> lost = take_down(s);
  ring_.remove_server(s);
  return lost;
}

void ClusterState::kill_servers(
    std::span<const ServerId> servers,
    const std::function<void(ServerId, std::span<const LostCopy>)>&
        on_killed) {
  for (const ServerId s : servers) {
    const std::vector<LostCopy> lost = take_down(s);
    if (on_killed) on_killed(s, lost);
  }
  ring_.remove_servers(servers);
}

void ClusterState::revive_server(ServerId s) {
  servers_.set_alive(s, true);
  ring_.add_server(s);
  live_list_insert(s);
}

void ClusterState::revive_servers(std::span<const ServerId> servers) {
  if (servers.empty()) return;
  for (const ServerId s : servers) {
    servers_.set_alive(s, true);
    live_list_insert(s);
  }
  ring_.add_servers(servers);
}

void ClusterState::live_list_insert(ServerId s) {
  std::vector<ServerId>& list =
      live_by_dc_[topology_->server(s).datacenter.value()];
  const auto it = std::lower_bound(list.begin(), list.end(), s);
  RFH_ASSERT(it == list.end() || *it != s);
  list.insert(it, s);
}

void ClusterState::live_list_erase(ServerId s) {
  std::vector<ServerId>& list =
      live_by_dc_[topology_->server(s).datacenter.value()];
  const auto it = std::lower_bound(list.begin(), list.end(), s);
  RFH_ASSERT(it != list.end() && *it == s);
  list.erase(it);
}

void ClusterState::check_invariants() const {
  std::vector<Bytes> used(topology_->server_count(), 0);
  std::vector<std::uint32_t> copies(topology_->server_count(), 0);
  std::uint32_t total = 0;
  for (std::uint32_t p = 0; p < partitions_.partitions(); ++p) {
    std::uint32_t primaries = 0;
    for (const Replica& r : partitions_.replicas(PartitionId{p})) {
      RFH_ASSERT_MSG(alive(r.server), "copy on dead server");
      used[r.server.value()] += config_->unit_size();
      copies[r.server.value()] += 1;
      total += 1;
      if (r.primary) ++primaries;
    }
    RFH_ASSERT_MSG(primaries <= 1, "multiple primaries");
    if (partitions_.count(PartitionId{p}) > 0) {
      RFH_ASSERT_MSG(primaries == 1, "partition without a primary");
    }
  }
  RFH_ASSERT(total == partitions_.total());
  for (std::uint32_t s = 0; s < topology_->server_count(); ++s) {
    const ServerId sid{s};
    RFH_ASSERT(used[s] == servers_.storage_used(sid));
    RFH_ASSERT(copies[s] == servers_.copies(sid));
    if (!alive(sid)) {
      RFH_ASSERT_MSG(copies[s] == 0, "dead server hosts copies");
    }
  }
  std::uint32_t live_listed = 0;
  for (const std::vector<ServerId>& list : live_by_dc_) {
    RFH_ASSERT(std::is_sorted(list.begin(), list.end()));
    for (const ServerId s : list) RFH_ASSERT(alive(s));
    live_listed += static_cast<std::uint32_t>(list.size());
  }
  RFH_ASSERT(live_listed == servers_.live_count());
}

}  // namespace rfh
