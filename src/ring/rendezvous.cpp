#include "ring/rendezvous.h"

#include "common/assert.h"
#include "ring/hash.h"

namespace rfh {

namespace {

template <typename IdHash>
ServerId pick(std::uint64_t key, std::span<const ServerId> candidates,
              IdHash id_hash) {
  RFH_ASSERT_MSG(!candidates.empty(), "no candidates");
  ServerId best = candidates.front();
  std::uint64_t best_weight = 0;
  bool first = true;
  for (const ServerId candidate : candidates) {
    const std::uint64_t weight = hash_combine(key, id_hash(candidate));
    if (first || weight > best_weight ||
        (weight == best_weight && candidate < best)) {
      best = candidate;
      best_weight = weight;
      first = false;
    }
  }
  return best;
}

}  // namespace

ServerId rendezvous_pick(std::uint64_t key,
                         std::span<const ServerId> candidates) {
  return pick(key, candidates, [](ServerId s) {
    return hash64(std::uint64_t{s.value()});
  });
}

ServerId rendezvous_pick(std::uint64_t key,
                         std::span<const ServerId> candidates,
                         std::span<const std::uint64_t> id_hashes) {
  return pick(key, candidates,
              [id_hashes](ServerId s) { return id_hashes[s.value()]; });
}

}  // namespace rfh
