// perfbench_driver: runs one benchmark workload in this process and
// prints one JSON object on stdout (the traced run's layer table goes to
// stderr). perfbench/run.py builds and drives it; by hand:
//
//   perfbench_driver --workload steady_100k --seed 1 --seconds 20 --trace 0
//
// Exit status: 0 when every correctness check passed, 1 when one failed,
// 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-out FILE]\n"
               "workloads:",
               why);
  for (const perfbench::WorkloadInfo& w : perfbench::workloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + '"';
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metric_object(const std::vector<perfbench::Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ',';
    out += quoted(metrics[i].name) + ":{\"value\":" +
           number(metrics[i].value) + ",\"unit\":" +
           quoted(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage(("missing value for " + flag).c_str());
      return 2;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") throw std::invalid_argument(value);
        options.trace = value == "1";
      } else if (flag == "--trace-out") {
        options.trace_out = value;
      } else {
        usage(("unknown flag " + flag).c_str());
        return 2;
      }
    } catch (const std::exception&) {
      usage(("bad value for " + flag + ": " + value).c_str());
      return 2;
    }
  }
  if (!(options.seconds > 0.0 && options.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
    return 2;
  }

  perfbench::RunResult result;
  try {
    result = perfbench::run(options);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
    return 2;
  }

  bool finite = true;
  for (const perfbench::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      finite = false;
      result.fail("metric " + m.name + " is not finite");
    }
  }
  if (!result.failures.empty() && result.failed == 0) result.failed = 1;
  if (result.failed > result.attempted) result.failed = result.attempted;
  const bool correct = result.failures.empty() && result.failed == 0 &&
                       result.attempted > 0 && finite;

  if (!result.layer_table.empty()) std::cerr << result.layer_table;

  std::ostringstream out;
  out << "{\"workload\":" << quoted(options.workload)
      << ",\"seed\":" << options.seed << ",\"trace\":" << options.trace
      << ",\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << result.attempted
      << ",\"failed\":" << result.failed << ",\"failures\":[";
  for (std::size_t i = 0; i < result.failures.size(); ++i) {
    out << (i ? "," : "") << quoted(result.failures[i]);
  }
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(result.digest_prefix));
  out << "],\"metrics\":" << metric_object(result.metrics)
      << ",\"info\":" << metric_object(result.info)
      << ",\"digest_prefix\":" << quoted(digest) << ",\"manifest\":{"
      << "\"bench_version\":" << quoted(perfbench::kBenchVersion)
      << ",\"compiler\":" << quoted(PERFBENCH_COMPILER)
      << ",\"flags\":" << quoted(PERFBENCH_FLAGS)
      << ",\"build_type\":" << quoted(PERFBENCH_BUILD_TYPE)
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"threads\":" << result.threads
      << ",\"seed\":" << options.seed
      << ",\"default_seed\":" << perfbench::kDefaultSeed
      << ",\"held_out_seed\":" << perfbench::kHeldOutSeed << "}}";
  std::cout << out.str() << std::endl;
  return correct ? 0 : 1;
}
