// Fig. 7 — migration cost (Eq. 1 with migration bandwidth, cumulative).
//   (a) total, random query            (b) average per migration, random
//   (c) total, flash crowd             (d) average per migration, flash
//
// Paper shape: request-oriented pays the most (long-haul moves towards
// requesters); random and owner-oriented pay zero; RFH pays little; all
// migration costs rise under flash crowd versus random query.
#include <iostream>

#include "bench_args.h"
#include "exec/sweep.h"
#include "harness/report.h"

int main(int argc, char** argv) {
  const unsigned jobs = rfh::bench_jobs(argc, argv);
  {
    const rfh::Scenario s = rfh::Scenario::paper_random_query();
    const rfh::ComparativeResult r = rfh::run_comparison(s, {}, jobs);
    rfh::print_figure(std::cout,
                      "Fig 7(a): total migration cost, random query", r,
                      &rfh::EpochMetrics::migration_cost_total);
    rfh::print_figure(std::cout, "Fig 7(b): avg migration cost, random query",
                      r, &rfh::EpochMetrics::migration_cost_avg);
  }
  {
    const rfh::Scenario s = rfh::Scenario::paper_flash_crowd();
    const rfh::ComparativeResult r = rfh::run_comparison(s, {}, jobs);
    rfh::print_figure(std::cout,
                      "Fig 7(c): total migration cost, flash crowd", r,
                      &rfh::EpochMetrics::migration_cost_total);
    rfh::print_figure(std::cout, "Fig 7(d): avg migration cost, flash crowd",
                      r, &rfh::EpochMetrics::migration_cost_avg);
  }
  return 0;
}
