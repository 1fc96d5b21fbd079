#include "workload/generator.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"

namespace rfh {

QueryBatch sample_batch(double mean_total, const ZipfSampler& partitions,
                        std::span<const double> requester_weights,
                        std::uint32_t partition_rotation, Rng& rng) {
  const std::uint64_t total = rng.poisson(mean_total);
  const DiscreteSampler requesters(requester_weights);
  const std::size_t n_partitions = partitions.size();
  const std::size_t n_requesters = requester_weights.size();

  // Draw every query, partition then requester, in RNG order, as a
  // (partition, requester) key; count both coordinates (offset by one for
  // the prefix sums below).
  std::vector<std::uint64_t> keys(total);
  std::vector<std::uint32_t> requester_start(n_requesters + 1, 0);
  std::vector<std::uint32_t> partition_start(n_partitions + 1, 0);
  for (std::uint64_t& key : keys) {
    const std::size_t rank = partitions.sample(rng);
    const std::size_t partition = (rank + partition_rotation) % n_partitions;
    const std::size_t requester = requesters.sample(rng);
    key = std::uint64_t{partition} << 32 | requester;
    ++requester_start[requester + 1];
    ++partition_start[partition + 1];
  }
  // Two stable counting sorts, by requester and then by partition, leave
  // equal keys adjacent in partition-major, requester-ascending order: the
  // aggregation costs O(queries + partitions + requesters), with no dense
  // partition x requester plane.
  for (std::size_t r = 0; r < n_requesters; ++r) {
    requester_start[r + 1] += requester_start[r];
  }
  for (std::size_t p = 0; p < n_partitions; ++p) {
    partition_start[p + 1] += partition_start[p];
  }
  std::vector<std::uint64_t> by_requester(total);
  for (const std::uint64_t key : keys) {
    by_requester[requester_start[key & 0xffffffffU]++] = key;
  }
  for (const std::uint64_t key : by_requester) {
    keys[partition_start[key >> 32]++] = key;
  }

  QueryBatch batch;
  for (std::size_t i = 0; i < keys.size();) {
    std::size_t end = i + 1;
    while (end < keys.size() && keys[end] == keys[i]) ++end;
    batch.push_back(
        QueryFlow{PartitionId{static_cast<std::uint32_t>(keys[i] >> 32)},
                  DatacenterId{static_cast<std::uint32_t>(keys[i])},
                  static_cast<double>(end - i)});
    i = end;
  }
  return batch;
}

namespace {

std::vector<double> uniform_weights(std::uint32_t n) {
  return std::vector<double>(n, 1.0);
}

std::vector<double> stage_weights(const FlashStage& stage,
                                  std::uint32_t n_datacenters) {
  if (stage.hot_dcs.empty()) return uniform_weights(n_datacenters);
  RFH_ASSERT(stage.hot_share > 0.0 && stage.hot_share < 1.0);
  RFH_ASSERT(stage.hot_dcs.size() < n_datacenters);
  const double hot_each =
      stage.hot_share / static_cast<double>(stage.hot_dcs.size());
  const double cold_each =
      (1.0 - stage.hot_share) /
      static_cast<double>(n_datacenters - stage.hot_dcs.size());
  std::vector<double> weights(n_datacenters, cold_each);
  for (const DatacenterId dc : stage.hot_dcs) {
    RFH_ASSERT(dc.value() < n_datacenters);
    weights[dc.value()] = hot_each;
  }
  return weights;
}

}  // namespace

UniformWorkload::UniformWorkload(const WorkloadParams& params)
    : params_(params),
      partition_sampler_(params.partitions, params.zipf_exponent) {}

QueryBatch UniformWorkload::generate(Epoch /*epoch*/, Rng& rng) {
  const auto weights = uniform_weights(params_.datacenters);
  return sample_batch(params_.mean_queries_per_epoch, partition_sampler_,
                      weights, /*partition_rotation=*/0, rng);
}

FlashCrowdWorkload::FlashCrowdWorkload(const WorkloadParams& params,
                                       std::vector<FlashStage> stages,
                                       Epoch total_epochs)
    : params_(params),
      partition_sampler_(params.partitions, params.zipf_exponent),
      stages_(std::move(stages)),
      total_epochs_(total_epochs) {
  RFH_ASSERT(!stages_.empty());
  RFH_ASSERT(total_epochs_ > 0);
}

std::size_t FlashCrowdWorkload::stage_at(Epoch epoch) const noexcept {
  const Epoch clamped = std::min(epoch, static_cast<Epoch>(total_epochs_ - 1));
  const std::size_t stage =
      static_cast<std::size_t>(clamped) * stages_.size() / total_epochs_;
  return std::min(stage, stages_.size() - 1);
}

QueryBatch FlashCrowdWorkload::generate(Epoch epoch, Rng& rng) {
  const auto weights =
      stage_weights(stages_[stage_at(epoch)], params_.datacenters);
  return sample_batch(params_.mean_queries_per_epoch, partition_sampler_,
                      weights, /*partition_rotation=*/0, rng);
}

std::vector<FlashStage> FlashCrowdWorkload::paper_stages(
    const std::vector<DatacenterId>& dc_by_letter) {
  RFH_ASSERT(dc_by_letter.size() >= 10);
  auto dcs = [&](const char* letters) {
    std::vector<DatacenterId> out;
    for (const char* c = letters; *c != '\0'; ++c) {
      out.push_back(dc_by_letter[static_cast<std::size_t>(*c - 'A')]);
    }
    return out;
  };
  return {
      FlashStage{dcs("HIJ"), 0.8},
      FlashStage{dcs("ABC"), 0.8},
      FlashStage{dcs("EFG"), 0.8},
      FlashStage{{}, 0.8},  // uniform
  };
}

DiurnalWorkload::DiurnalWorkload(const WorkloadParams& params,
                                 Epoch period_epochs, double amplitude)
    : params_(params),
      partition_sampler_(params.partitions, params.zipf_exponent),
      period_epochs_(period_epochs),
      amplitude_(amplitude) {
  RFH_ASSERT(period_epochs_ > 0);
  RFH_ASSERT(amplitude_ >= 0.0 && amplitude_ < 1.0);
}

double DiurnalWorkload::mean_at(Epoch epoch) const noexcept {
  constexpr double kTwoPi = 6.283185307179586;
  const double phase = kTwoPi * static_cast<double>(epoch % period_epochs_) /
                       static_cast<double>(period_epochs_);
  return params_.mean_queries_per_epoch *
         (1.0 + amplitude_ * std::sin(phase));
}

QueryBatch DiurnalWorkload::generate(Epoch epoch, Rng& rng) {
  const std::vector<double> weights(params_.datacenters, 1.0);
  return sample_batch(mean_at(epoch), partition_sampler_, weights,
                      /*partition_rotation=*/0, rng);
}

SpikeWorkload::SpikeWorkload(const WorkloadParams& params, Epoch spike_period,
                             double spike_factor, Epoch spike_width)
    : params_(params),
      partition_sampler_(params.partitions, params.zipf_exponent),
      spike_period_(spike_period),
      spike_factor_(spike_factor),
      spike_width_(spike_width) {
  RFH_ASSERT(spike_period_ > spike_width_);
  RFH_ASSERT(spike_factor_ >= 1.0);
  RFH_ASSERT(spike_width_ > 0);
}

bool SpikeWorkload::is_spike(Epoch epoch) const noexcept {
  return epoch % spike_period_ < spike_width_;
}

QueryBatch SpikeWorkload::generate(Epoch epoch, Rng& rng) {
  const double mean = params_.mean_queries_per_epoch *
                      (is_spike(epoch) ? spike_factor_ : 1.0);
  const std::vector<double> weights(params_.datacenters, 1.0);
  return sample_batch(mean, partition_sampler_, weights,
                      /*partition_rotation=*/0, rng);
}

HotspotShiftWorkload::HotspotShiftWorkload(const WorkloadParams& params,
                                           Epoch phase_epochs,
                                           std::uint32_t shift_per_phase)
    : params_(params),
      partition_sampler_(params.partitions, params.zipf_exponent),
      phase_epochs_(phase_epochs),
      shift_per_phase_(shift_per_phase) {
  RFH_ASSERT(phase_epochs_ > 0);
}

QueryBatch HotspotShiftWorkload::generate(Epoch epoch, Rng& rng) {
  const std::uint32_t phase = epoch / phase_epochs_;
  const std::uint32_t rotation =
      (phase * shift_per_phase_) % params_.partitions;
  const auto weights = uniform_weights(params_.datacenters);
  return sample_batch(params_.mean_queries_per_epoch, partition_sampler_,
                      weights, rotation, rng);
}

}  // namespace rfh
