// Shared argument handling for the bench_* drivers.
//
// Every bench accepts --jobs=N|auto (worker threads for its sweep fan-out;
// exec/sweep.h semantics: N in [1, 1024], auto = one per hardware
// thread, 1 = serial) or the RFH_JOBS environment variable when the flag
// is absent. Parallelism is purely a scheduling knob: every bench's
// figures and BENCH_*.json metrics are bit-identical for every jobs
// value.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/cli.h"

namespace rfh {

/// Last --jobs value among argv[1..], else $RFH_JOBS, else 0 (hardware).
/// A value outside [1, kMaxJobs] other than "auto" exits 2 with the
/// reason.
inline unsigned bench_jobs(int argc, char** argv) {
  const char* text = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--jobs=", 7) == 0) text = argv[i] + 7;
  }
  if (text == nullptr) text = std::getenv("RFH_JOBS");
  if (text == nullptr) return 0;
  unsigned jobs = 0;
  const std::string error = parse_jobs(text, jobs);
  if (!error.empty()) {
    std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
    std::exit(2);
  }
  return jobs;
}

}  // namespace rfh
