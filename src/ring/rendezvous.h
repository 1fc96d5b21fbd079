// Rendezvous (highest-random-weight) hashing.
//
// Used to pick the per-partition relay server inside a transit datacenter:
// deterministic, uniformly spread across the datacenter's servers, and
// stable under unrelated membership changes (only keys whose winner left
// move).
#pragma once

#include <cstdint>
#include <span>

#include "common/ids.h"

namespace rfh {

/// The server in `candidates` with the highest weight
/// hash_combine(key, hash64(id)); ties go to the lower id. `candidates`
/// must be non-empty.
ServerId rendezvous_pick(std::uint64_t key, std::span<const ServerId> candidates);

/// The same pick with hash64(id) read from `id_hashes[id]`, a table the
/// caller fills once, so each candidate costs one finalizer.
ServerId rendezvous_pick(std::uint64_t key,
                         std::span<const ServerId> candidates,
                         std::span<const std::uint64_t> id_hashes);

}  // namespace rfh
