// Configuration for the streaming load subsystem (src/stream/).
//
// The stream layer disaggregates the engine's per-epoch batch traffic
// into timestamped arrivals and queues them at the serving servers. Its
// contract with batch mode: per-epoch *totals* are identical by
// construction (the stream workload reuses the uniform batch generator
// with mean == arrival_rate, consuming the exact same RNG stream), so
// Eqs. 2-19, the routing/policy phases and the differential oracle are
// untouched. Everything here shapes only *when* within an epoch each
// query arrives and how long it waits.
#pragma once

#include <cstdint>

#include "common/units.h"

namespace rfh {

/// Largest accepted StreamConfig::arrival_rate (mean arrivals per epoch,
/// ~3300x Table I's lambda = 300). Every arrival is sampled, timestamped
/// and queued one at a time, so the rate bounds the work of an epoch: at
/// the ceiling one epoch takes ~0.3 s on one Xeon core (RelWithDebInfo).
/// It also keeps Rng::poisson's draw far inside std::uint64_t. The CLI
/// rejects larger rates with a reason instead of running unbounded.
inline constexpr double kMaxArrivalRate = 1e6;

struct StreamConfig {
  /// Mean arrivals per epoch across all partitions (the batch workload's
  /// mean_queries_per_epoch, so stream and uniform runs at the same seed
  /// generate identical batches). CLI: --arrival-rate.
  double arrival_rate = 300.0;

  /// Per-server waiting-room cap: an arrival finding this many queries
  /// already waiting is dropped by backpressure (counted in
  /// rfh_dropped_backpressure_total, never served, never retried).
  /// CLI: --queue-cap.
  std::uint32_t queue_cap = 32;

  /// Coefficient of variation of the service-time distribution. The
  /// queue is simulated with deterministic service (M/D/c) and its wait
  /// scaled by (1 + cv^2) — the Allen-Cunneen correction relating M/D/c
  /// to M/G/c (see erlang_mgc_mean_wait in common/erlang.h): cv = 1
  /// approximates exponential service, cv = 0 is deterministic.
  /// CLI: --service-cv.
  double service_cv = 1.0;

  /// Mean service time per query, ms. At the Table I defaults a server
  /// holding ~10 queries/epoch offers a = 10 * 1500 / 10000 = 1.5 Erlang
  /// on 4-8 channels — comfortably stable; load factors of 3-4x push hot
  /// servers into queueing and backpressure.
  double service_time_ms = 1500.0;

  /// Wall-clock length of one epoch, ms (Table I: 10 seconds).
  double epoch_ms = 10000.0;

  // --- within-epoch arrival-time modulation -----------------------------
  // Arrival *counts* per epoch come from the batch generator; these knobs
  // shape the timestamp density inside the epoch via an inhomogeneous
  // intensity warped through a piecewise-linear inverse CDF
  // (stream/arrival.cpp). They never change per-epoch totals.

  /// Diurnal sine amplitude (0 disables). Intensity follows
  /// 1 + A * sin(2*pi * epoch_phase) over diurnal_period epochs.
  double diurnal_amplitude = 0.5;
  Epoch diurnal_period = 50;

  /// Flash-crowd multiplier applied to the [flash_start, flash_end)
  /// fraction of every epoch (1.0 disables).
  double flash_factor = 1.0;
  double flash_start = 0.0;
  double flash_end = 0.25;

  /// Popularity drift: when > 0 the stream workload uses the
  /// hotspot-shift batch generator (Zipf with rotating hot set) instead
  /// of uniform, rotating every drift_period epochs by hotspot_drift
  /// partitions. Default 0 keeps exact uniform batch equivalence.
  Epoch drift_period = 0;
  std::uint32_t hotspot_drift = 16;
};

}  // namespace rfh
