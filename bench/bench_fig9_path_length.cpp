// Fig. 9 — lookup path length (mean hops per query), per epoch.
//   (a) random query;  (b) flash crowd.
//
// Paper shape: every curve drops sharply at the start as the replica
// build-out raises hit chances; owner-oriented stays longest; the
// request-oriented scheme is shortest inside its home stage; RFH is
// near-best overall with a brief spike when the traffic hubs move
// (after epoch ~200 under flash crowd).
#include <iostream>

#include "bench_args.h"
#include "exec/sweep.h"
#include "harness/report.h"

int main(int argc, char** argv) {
  const unsigned jobs = rfh::bench_jobs(argc, argv);
  {
    const rfh::Scenario s = rfh::Scenario::paper_random_query();
    const rfh::ComparativeResult r = rfh::run_comparison(s, {}, jobs);
    rfh::print_figure(std::cout, "Fig 9(a): lookup path length, random query",
                      r, &rfh::EpochMetrics::path_length);
  }
  {
    const rfh::Scenario s = rfh::Scenario::paper_flash_crowd();
    const rfh::ComparativeResult r = rfh::run_comparison(s, {}, jobs);
    rfh::print_figure(std::cout, "Fig 9(b): lookup path length, flash crowd",
                      r, &rfh::EpochMetrics::path_length);
  }
  return 0;
}
