// Fig. 8 — load imbalance (Eqs. 24-26: population stddev of per-server
// workload), per epoch.
//   (a) random query;  (b) flash crowd.
//
// Paper shape: RFH lowest (Erlang-B server choice), and it *improves*
// under flash crowd while the other algorithms get worse.
#include <algorithm>
#include <iostream>

#include "bench_report.h"
#include "bench_args.h"
#include "exec/sweep.h"
#include "harness/report.h"

namespace {

// Tail-mean of RFH load imbalance over the run's last 50 epochs.
double rfh_tail(const rfh::ComparativeResult& r) {
  const rfh::PolicyRun& run = r.run(rfh::PolicyKind::kRfh);
  const std::size_t n = std::min<std::size_t>(50, run.series.size());
  double sum = 0.0;
  for (std::size_t i = run.series.size() - n; i < run.series.size(); ++i) {
    sum += run.series[i].load_imbalance;
  }
  return sum / static_cast<double>(n);
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned jobs = rfh::bench_jobs(argc, argv);
  rfh::BenchReport report("fig8_load_imbalance");
  {
    const rfh::Scenario s = rfh::Scenario::paper_random_query();
    rfh::ComparativeResult r;
    {
      const auto stage = report.stage("random_query");
      r = rfh::run_comparison(s, {}, jobs);
    }
    rfh::print_figure(std::cout, "Fig 8(a): load imbalance, random query", r,
                      &rfh::EpochMetrics::load_imbalance);
    report.add_metric("random_query_rfh_imbalance_tail50", rfh_tail(r));
  }
  {
    const rfh::Scenario s = rfh::Scenario::paper_flash_crowd();
    rfh::ComparativeResult r;
    {
      const auto stage = report.stage("flash_crowd");
      r = rfh::run_comparison(s, {}, jobs);
    }
    rfh::print_figure(std::cout, "Fig 8(b): load imbalance, flash crowd", r,
                      &rfh::EpochMetrics::load_imbalance);
    report.add_metric("flash_crowd_rfh_imbalance_tail50", rfh_tail(r));
  }
  report.write_file();
  return 0;
}
