// Fig. 6 — migration times (cumulative count; average per replica).
//   (a) total, random query            (b) average, random query
//   (c) total, flash crowd             (d) average, flash crowd
//
// Paper shape: request-oriented migrates by far the most in every
// setting; random never migrates (no migration function); owner-oriented
// migrates only on membership change (zero under stable topology); RFH
// stays low.
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
                          "Fig 6(a): total migration times, random query", r,
                          &rfh::EpochMetrics::migrations_total);
    rfh::print_figure(std::cout,
                      "Fig 6(b): avg migration times per replica, random query",
                      r, &rfh::EpochMetrics::migrations_avg);
  }
  {
    const rfh::Scenario s = rfh::Scenario::paper_flash_crowd();
    const rfh::ComparativeResult r = rfh::run_comparison(s, {}, jobs);
    rfh::print_figure_u32(std::cout,
                          "Fig 6(c): total migration times, flash crowd", r,
                          &rfh::EpochMetrics::migrations_total);
    rfh::print_figure(std::cout,
                      "Fig 6(d): avg migration times per replica, flash crowd",
                      r, &rfh::EpochMetrics::migrations_avg);
  }
  return 0;
}
