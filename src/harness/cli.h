// Command-line parsing for experiment drivers (examples/rfh_cli.cpp).
//
// Kept in the library (rather than the example binary) so the flag
// grammar is unit-testable and reusable by downstream tools.
//
// Grammar:
//   --policy=rfh|random|owner|request
//   --workload=uniform|flash|hotspot|stream
//   --epochs=N --seed=N --partitions=N
//   --alpha=F --beta=F --gamma=F --delta=F --mu=F --phi=F
//                                 (Table I thresholds; range-checked:
//                                  0 < alpha < 1, beta > 0, gamma > 0,
//                                  delta >= 0, mu >= 0, 0 < phi <= 1)
//   --redundancy=replica|ec(k,m)  (redundancy scheme; ec needs k >= 2,
//                                  m >= 1, k + m <= 16. replica is the
//                                  default and reproduces the paper)
//   --write-fraction=F            (enables consistency tracking)
//   --arrival-rate=F              (stream only: Poisson mean arrivals per
//                                  epoch; 0 < F <= kMaxArrivalRate,
//                                  default Table I's 300)
//   --queue-cap=N                 (stream only: per-server queue-depth cap
//                                  before backpressure drops; 1..1000000)
//   --service-cv=F                (stream only: service-time coefficient
//                                  of variation for the M/G/c wait
//                                  correction; F >= 0, 1 = exponential)
//   --kill=N@E                    (repeatable: kill N random servers at E;
//                                  the counts must sum below the world's
//                                  server count)
//   --metric=<name>               (see metric_names())
//   --compare                     (all four policies)
//   --jobs=N|auto                 (worker threads, N in [1, kMaxJobs];
//                                  auto = one per hardware thread,
//                                  1 = serial. With --compare the
//                                  pool runs policies concurrently; on a
//                                  single-policy run it shards the engine's
//                                  flow propagation (Simulation::set_jobs).
//                                  Results are bit-identical for every N)
//
// Malformed input never asserts or silently clamps: out-of-range values
// and *conflicting* duplicate flags (same flag, different value) yield a
// parse error; --kill stays repeatable by design.
//   --quiet                       (summary line only)
//   --trace-out=FILE              (write a structured event trace; single
//                                  policy runs only)
//   --trace-format=jsonl|chrome   (default jsonl; chrome loads in Perfetto)
//   --trace-filter=A,B,...        (event type names to keep, e.g.
//                                  ReplicaAdded,ActionDropped; default all)
//   --metrics-out=FILE            (dump the telemetry registry after the
//                                  run; single policy runs only)
//   --metrics-format=prom|json    (default prom: Prometheus text format)
//   --profile                     (time the epoch phases; prints a
//                                  breakdown table and, with --trace-out,
//                                  emits PhaseSpan slices into the trace;
//                                  single policy runs only)
//   --fault-plan=FILE             (scheduled chaos: parse a fault-plan
//                                  spec (fault/plan.h) into the scenario;
//                                  single policy runs only)
//   --check-invariants            (verify the invariant catalogue after
//                                  every epoch and report violations;
//                                  single policy runs only)
//   --slo=SPEC                    (service-level objectives, e.g.
//                                  "avail=0.999,p99=250,burn=2"; see
//                                  telemetry/slo.h for the grammar. The
//                                  runner prints breach episodes after the
//                                  run)
//   --blackbox-out=FILE           (dump the causal flight recorder
//                                  (obs/timeline.h) as JSONL after the
//                                  run; single policy runs only. Feed the
//                                  file to rfh_blackbox for forensic
//                                  queries)
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "harness/runner.h"

namespace rfh {

enum class TraceFormat { kJsonl, kChrome };
enum class MetricsFormat { kProm, kJson };

struct CliOptions {
  PolicyKind policy = PolicyKind::kRfh;
  bool compare = false;
  /// Worker threads for --compare sweeps (exec/sweep.h semantics:
  /// 0 = hardware, 1 = serial). On single-policy runs an explicit --jobs
  /// lands in scenario.engine_jobs instead, sharding flow propagation.
  /// Purely a scheduling knob — outputs are bit-identical for every value.
  unsigned jobs = 0;
  bool quiet = false;
  std::string metric = "utilization";
  Scenario scenario = Scenario::paper_random_query();
  std::vector<FailureEvent> failures;
  /// Trace destination; empty disables tracing.
  std::string trace_out;
  TraceFormat trace_format = TraceFormat::kJsonl;
  /// Comma-separated event type allow-list (empty keeps everything).
  std::string trace_filter;
  /// Telemetry-registry dump destination; empty disables the registry.
  std::string metrics_out;
  MetricsFormat metrics_format = MetricsFormat::kProm;
  /// Wall-clock phase profiling (see telemetry/profiler.h).
  bool profile = false;
  /// Path the scenario's fault plan was parsed from (empty without one;
  /// the parsed plan itself lands in scenario.fault_plan).
  std::string fault_plan_path;
  /// Run the InvariantChecker (record mode) over every epoch.
  bool check_invariants = false;
  /// Causal flight-record dump destination; empty disables the recorder.
  /// (The parsed --slo spec itself lands in scenario.slo.)
  std::string blackbox_out;
};

struct CliParseResult {
  bool ok = false;
  std::string error;  // set when !ok
  CliOptions options;
};

/// Parse the argument list (argv[1..]); never aborts — malformed input
/// yields ok=false with a human-readable error.
CliParseResult parse_cli(std::span<const char* const> args);

/// Upper bound on --jobs, in every tool that takes it.
inline constexpr unsigned kMaxJobs = 1024;

/// Parse a --jobs value (rfh_cli, rfh_check and the bench_* tools): "auto"
/// yields 0 (one worker per hardware thread), else an integer in
/// [1, kMaxJobs]. Returns the reason on rejection, else an empty string.
std::string parse_jobs(std::string_view value, unsigned& jobs);

/// Parse a positive 32-bit count flag (--epochs, --partitions; rfh_cli and
/// rfh_blackbox) at its own width: 0, junk and values above 2^32 - 1 are
/// refused rather than wrapped. Returns the reason on rejection, else an
/// empty string.
std::string parse_count(std::string_view flag, std::string_view value,
                        std::uint32_t& out);

/// Parse the repeatable --kill=N@E values (rfh_cli and rfh_blackbox) into
/// `failures`, checked against the world `scenario` builds. The engine
/// never kills its last live server, so the summed N must stay below the
/// world's server count; N is checked at full width, before it is
/// narrowed to FailureEvent::kill_random, so a value that would wrap is
/// refused too. Returns the reason on rejection, else an empty string.
std::string parse_kills(std::span<const std::string> values,
                        const Scenario& scenario,
                        std::vector<FailureEvent>& failures);

/// Extract the named per-epoch metric; sets *ok=false (and returns 0) for
/// an unknown name.
double metric_value(const EpochMetrics& m, const std::string& metric,
                    bool* ok);

/// All metric names accepted by --metric.
std::vector<std::string> metric_names();

}  // namespace rfh
