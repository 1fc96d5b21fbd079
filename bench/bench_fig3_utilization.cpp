// Fig. 3 — replica utilization rate.
//   (a) under random (uniform) query, 250 epochs;
//   (b) under flash crowd, 400 epochs.
//
// Paper shape: RFH highest, then request-oriented, then owner-oriented,
// random lowest; under flash crowd the request-oriented curve collapses
// at the first stage switch (epoch 100) and recovers only partially,
// while RFH dips once and re-adapts quickly.
#include <algorithm>
#include <iostream>

#include "bench_report.h"
#include "bench_args.h"
#include "exec/sweep.h"
#include "harness/report.h"

namespace {

// Tail-mean of RFH utilization over the run's last 50 epochs.
double rfh_tail(const rfh::ComparativeResult& r) {
  const rfh::PolicyRun& run = r.run(rfh::PolicyKind::kRfh);
  const std::size_t n = std::min<std::size_t>(50, run.series.size());
  double sum = 0.0;
  for (std::size_t i = run.series.size() - n; i < run.series.size(); ++i) {
    sum += run.series[i].utilization;
  }
  return sum / static_cast<double>(n);
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned jobs = rfh::bench_jobs(argc, argv);
  rfh::BenchReport report("fig3_utilization");
  {
    const rfh::Scenario s = rfh::Scenario::paper_random_query();
    rfh::ComparativeResult r;
    {
      const auto stage = report.stage("random_query");
      r = rfh::run_comparison(s, {}, jobs);
    }
    rfh::print_figure(std::cout, "Fig 3(a): replica utilization, random query",
                      r, &rfh::EpochMetrics::utilization);
    report.add_metric("random_query_rfh_utilization_tail50", rfh_tail(r));
  }
  {
    const rfh::Scenario s = rfh::Scenario::paper_flash_crowd();
    rfh::ComparativeResult r;
    {
      const auto stage = report.stage("flash_crowd");
      r = rfh::run_comparison(s, {}, jobs);
    }
    rfh::print_figure(std::cout, "Fig 3(b): replica utilization, flash crowd",
                      r, &rfh::EpochMetrics::utilization);
    report.add_metric("flash_crowd_rfh_utilization_tail50", rfh_tail(r));
  }
  report.write_file();
  return 0;
}
