// Fig. 4 — replica number.
//   (a) total under random query       (b) average per partition, random
//   (c) total under flash crowd        (d) average per partition, flash
//
// Paper shape: random needs by far the most copies (~8 per partition),
// owner-oriented next, RFH close to request-oriented at ~4 / ~3; under
// flash crowd RFH stays near its random-query level while the others
// inflate.
#include <iostream>

#include "bench_args.h"
#include "exec/sweep.h"
#include "harness/report.h"

int main(int argc, char** argv) {
  const unsigned jobs = rfh::bench_jobs(argc, argv);
  {
    const rfh::Scenario s = rfh::Scenario::paper_random_query();
    const rfh::ComparativeResult r = rfh::run_comparison(s, {}, jobs);
    rfh::print_figure_u32(std::cout,
                          "Fig 4(a): total replica number, random query", r,
                          &rfh::EpochMetrics::total_replicas);
    rfh::print_figure(std::cout,
                      "Fig 4(b): avg replicas per partition, random query", r,
                      &rfh::EpochMetrics::avg_replicas_per_partition);
  }
  {
    const rfh::Scenario s = rfh::Scenario::paper_flash_crowd();
    const rfh::ComparativeResult r = rfh::run_comparison(s, {}, jobs);
    rfh::print_figure_u32(std::cout,
                          "Fig 4(c): total replica number, flash crowd", r,
                          &rfh::EpochMetrics::total_replicas);
    rfh::print_figure(std::cout,
                      "Fig 4(d): avg replicas per partition, flash crowd", r,
                      &rfh::EpochMetrics::avg_replicas_per_partition);
  }
  return 0;
}
