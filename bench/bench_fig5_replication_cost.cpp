// Fig. 5 — replication cost (Eq. 1, cumulative).
//   (a) total, random query            (b) average per replication, random
//   (c) total, flash crowd             (d) average per replication, flash
//
// Paper shape: random pays the most in total and average; RFH the lowest
// total under both settings; under flash crowd RFH's *average* cost rises
// above owner-oriented's (hubs sit away from the owner) while its total
// stays lowest.
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
                      "Fig 5(a): total replication cost, random query", r,
                      &rfh::EpochMetrics::replication_cost_total);
    rfh::print_figure(std::cout,
                      "Fig 5(b): avg replication cost, random query", r,
                      &rfh::EpochMetrics::replication_cost_avg);
  }
  {
    const rfh::Scenario s = rfh::Scenario::paper_flash_crowd();
    const rfh::ComparativeResult r = rfh::run_comparison(s, {}, jobs);
    rfh::print_figure(std::cout,
                      "Fig 5(c): total replication cost, flash crowd", r,
                      &rfh::EpochMetrics::replication_cost_total);
    rfh::print_figure(std::cout,
                      "Fig 5(d): avg replication cost, flash crowd", r,
                      &rfh::EpochMetrics::replication_cost_avg);
  }
  return 0;
}
