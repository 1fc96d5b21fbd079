// Decorators that time two layers the engine calls through interfaces.
//
// TracedWorkload forwards WorkloadGenerator::generate and TracedPolicy
// forwards ReplicationPolicy::decide (plus name() and set_telemetry()) to
// the wrapped object, opening one span around each call and counting the
// flows generated and the actions proposed. They add no behaviour: a
// wrapped run computes the same digests as an unwrapped one
// (tests/selftest.cpp checks this).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "sim/policy.h"
#include "spans.h"
#include "workload/generator.h"

namespace perfbench {

/// Counts recorded at the decorated boundaries.
struct BoundaryCounts {
  std::uint64_t flows = 0;
  std::uint64_t actions_proposed = 0;
};

class TracedWorkload final : public rfh::WorkloadGenerator {
 public:
  TracedWorkload(std::unique_ptr<rfh::WorkloadGenerator> inner,
                 Tracer* tracer, BoundaryCounts& counts)
      : inner_(std::move(inner)),
        tracer_(tracer),
        name_(tracer ? tracer->intern("workload.generate") : 0),
        counts_(counts) {}

  [[nodiscard]] rfh::QueryBatch generate(rfh::Epoch epoch,
                                         rfh::Rng& rng) override {
    const ScopedSpan span(tracer_, name_);
    rfh::QueryBatch batch = inner_->generate(epoch, rng);
    counts_.flows += batch.size();
    return batch;
  }

 private:
  std::unique_ptr<rfh::WorkloadGenerator> inner_;
  Tracer* tracer_;
  std::uint32_t name_;
  BoundaryCounts& counts_;
};

class TracedPolicy final : public rfh::ReplicationPolicy {
 public:
  TracedPolicy(std::unique_ptr<rfh::ReplicationPolicy> inner, Tracer* tracer,
               BoundaryCounts& counts)
      : inner_(std::move(inner)),
        tracer_(tracer),
        name_(tracer ? tracer->intern("core.decide") : 0),
        counts_(counts) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  [[nodiscard]] rfh::Actions decide(const rfh::PolicyContext& ctx) override {
    const ScopedSpan span(tracer_, name_);
    rfh::Actions actions = inner_->decide(ctx);
    counts_.actions_proposed += actions.replications.size() +
                                actions.migrations.size() +
                                actions.suicides.size();
    return actions;
  }
  void set_telemetry(rfh::MetricRegistry* registry) override {
    inner_->set_telemetry(registry);
  }

 private:
  std::unique_ptr<rfh::ReplicationPolicy> inner_;
  Tracer* tracer_;
  std::uint32_t name_;
  BoundaryCounts& counts_;
};

}  // namespace perfbench
