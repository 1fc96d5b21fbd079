#include "workloads.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <malloc.h>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/rfh_policy.h"
#include "decorators.h"
#include "digest.h"
#include "exec/sweep.h"
#include "fault/chaos.h"
#include "fault/invariants.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "metrics/collector.h"
#include "sim/engine.h"
#include "spans.h"
#include "stats.h"
#include "stream/stream_sim.h"
#include "telemetry/profiler.h"
#include "telemetry/registry.h"
#include "topology/world.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using rfh::Epoch;

constexpr std::uint64_t kSetupOp = ~std::uint64_t{0};
constexpr std::size_t kMaxFailureLines = 8;

double ms_since(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

/// Process CPU time, all threads, user + system, in ms.
double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

/// Wall and process-CPU time since construction. The gated host-time
/// metrics use CPU time: on a machine shared with other tenants, time
/// spent waiting for a core inflates wall time by tens of percent from
/// one run to the next, while the CPU time the simulator burns does not
/// move with it. Wall time is still reported, ungated.
struct Stopwatch {
  Clock::time_point wall0 = Clock::now();
  double cpu0 = process_cpu_ms();
  [[nodiscard]] double wall_ms() const { return ms_since(wall0); }
  [[nodiscard]] double cpu_ms() const { return process_cpu_ms() - cpu0; }
};

/// Wall and CPU samples, one per op.
struct Timings {
  std::vector<double> wall_ms;
  std::vector<double> cpu_ms;
  void add(const Stopwatch& w) {
    cpu_ms.push_back(w.cpu_ms());
    wall_ms.push_back(w.wall_ms());
  }
  [[nodiscard]] std::size_t n() const noexcept { return wall_ms.size(); }
};

/// splitmix64 of (seed, tag): every input of a run derives from its seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
constexpr std::uint64_t kWorldTag = 1;
constexpr std::uint64_t kSimTag = 2;
constexpr std::uint64_t kGridTag = 1000;

/// A /proc/self/status field in MB (0 where unavailable).
double status_mb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stod(line.substr(prefix.size())) / 1024.0;
    }
  }
  return 0.0;
}
double peak_rss_mb() { return status_mb("VmHWM"); }
double rss_mb() { return status_mb("VmRSS"); }

double counter_value(const rfh::MetricRegistry& registry, const char* name) {
  const rfh::Counter* c = registry.find_counter(name);
  return c != nullptr ? c->value() : 0.0;
}
double gauge_value(const rfh::MetricRegistry& registry, const char* name) {
  const rfh::Gauge* g = registry.find_gauge(name);
  return g != nullptr ? g->value() : 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

// --- metric tables ----------------------------------------------------

/// End-to-end metrics, reported by untraced runs of every workload:
/// `epochs` simulated epochs over the loop iterations `iters` (at least
/// `min_iters` of them), the set-up repetitions `setups`, and the
/// simulated outcomes. The wall-clock counterparts go into `info`.
std::vector<Metric> end_to_end(double epochs, const Timings& iters,
                               std::size_t min_iters, const Timings& setups,
                               double unserved, double replicas,
                               double transfer, std::vector<Metric>& info) {
  const Tail wall_tail = tail(iters.wall_ms, min_iters);
  info.push_back({"epochs_per_s", ratio(epochs * 1000.0, sum(iters.wall_ms)),
                  "1/s"});
  info.push_back({"iter_ms_p50", median(iters.wall_ms), "ms"});
  info.push_back({"iter_ms_tail", wall_tail.value, "ms"});
  info.push_back({"setup_wall_s", median(setups.wall_ms) / 1000.0, "s"});
  info.push_back({"iterations", static_cast<double>(iters.n()), "count"});
  info.push_back({"iter_tail_percentile", wall_tail.percentile, "pct"});
  info.push_back({"setup_reps", static_cast<double>(setups.n()), "count"});
  return {
      {"epochs_per_cpu_s", ratio(epochs * 1000.0, sum(iters.cpu_ms)), "1/s"},
      {"iter_cpu_ms_p50", median(iters.cpu_ms), "ms"},
      {"iter_cpu_ms_tail", tail(iters.cpu_ms, min_iters).value, "ms"},
      {"setup_s", median(setups.cpu_ms) / 1000.0, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"sim_unserved_frac", unserved, "fraction"},
      {"sim_replicas_per_partition", replicas, "copies"},
      {"sim_transfer_cost_per_epoch", transfer, "cost"},
  };
}

/// Per-layer metrics, reported by traced runs of every workload (0 where
/// a workload does not exercise the layer). Times and counts are per op:
/// per measured epoch, or per cell on paper_sweep.
const std::vector<std::pair<const char*, const char*>>& layer_metric_names() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"topology.build_world_ms", "ms"},
      {"sim.construct_ms", "ms"},
      {"sim.seed_epoch_ms", "ms"},
      {"core.decide_ms_seed", "ms"},
      {"routing.ms", "ms"},
      {"routing.routes", "count"},
      {"routing.memo_hit_ratio", "ratio"},
      {"rss.after_setup_mb", "MB"},
      {"rss.steady_growth_mb", "MB"},
      {"workload.generate_ms", "ms"},
      {"workload.flows", "count"},
      {"core.decide_ms", "ms"},
      {"core.actions_proposed", "count"},
      {"sim.stats_update_ms", "ms"},
      {"sim.action_apply_ms", "ms"},
      {"sim.engine_self_ms", "ms"},
      {"sim.actions_applied_ratio", "ratio"},
      {"sim.repairs_starved", "count"},
      {"fault.before_epoch_ms", "ms"},
      {"fault.servers_killed", "count"},
      {"fault.servers_revived", "count"},
      {"stream.process_ms", "ms"},
      {"stream.arrivals", "count"},
      {"metrics.collect_ms", "ms"},
      {"harness.glue_ms", "ms"},
      {"exec.cell_ms_p50", "ms"},
      {"exec.pool_occupancy", "ratio"},
      {"exec.tasks_stolen", "count"},
      {"obs.tracing_overhead", "ratio"},
      {"obs.span_coverage", "ratio"},
  };
  return names;
}

std::vector<Metric> layer_metrics(const std::map<std::string, double>& v) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : layer_metric_names()) {
    const auto it = v.find(name);
    out.push_back({name, it != v.end() ? it->second : 0.0, unit});
  }
  for (const auto& [name, value] : v) {
    const bool known = std::any_of(
        layer_metric_names().begin(), layer_metric_names().end(),
        [&](const auto& n) { return name == n.first; });
    if (!known) throw std::logic_error("undeclared layer metric " + name);
  }
  return out;
}

std::string fmt(const char* format, double a, double b = 0.0,
                double c = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof buf, format, a, b, c);
  return buf;
}

/// One "  name   12.345 ms   6.7%" row of a layer table.
std::string table_row(const std::string& name, double ms, double share) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "  %-24s %10.3f ms %6.1f%%\n", name.c_str(),
                ms, 100.0 * share);
  return buf;
}

// --- epoch workloads ----------------------------------------------------

struct EpochSpec {
  std::uint32_t dcs = 0;
  std::uint32_t partitions = 0;
  /// Open-loop stream layer plus 1%-per-epoch churn, engine sharded.
  bool churn_stream = false;
  /// Set-ups per timed run; setup_s is their median.
  int setup_reps = 1;
  /// Timed runs measure at least this many epochs. The simulated outcomes
  /// are means over exactly the first this many, so they do not depend on
  /// how many epochs fit in a run, and the tail percentile is the one
  /// this many samples support.
  std::size_t min_epochs = 40;
  /// The traced pass runs the invariant checker after every epoch, or —
  /// where one check costs tens of seconds (the traffic invariant scans
  /// servers x partitions) — after the last measured epoch only.
  bool check_every_epoch = true;
};

constexpr double kQueriesPerDc = 30.0;

/// The simulation plus whatever the workload layers on top of it.
struct Rig {
  std::unique_ptr<rfh::Simulation> sim;
  std::unique_ptr<rfh::StreamSimulator> stream;
  std::unique_ptr<rfh::ChaosController> chaos;
  rfh::StreamConfig stream_config;
  std::uint32_t partitions = 0;
};

/// What the traced pass attaches; all null in the timed pass.
struct Observers {
  Tracer* tracer = nullptr;
  BoundaryCounts* counts = nullptr;
  rfh::MetricRegistry* registry = nullptr;
  rfh::InvariantChecker* checker = nullptr;
};

/// Destroy the rig and hand its freed heap back to the OS, so every
/// set-up and measured pass starts from the same allocator state rather
/// than reusing pages an earlier pass faulted in.
void release(Rig& rig) {
  rig = Rig{};
  malloc_trim(0);
}

std::uint32_t name_id(Tracer* tracer, const char* name) {
  return tracer != nullptr ? tracer->intern(name) : 0;
}

/// World build + Simulation construction + the epoch-0 seeding step,
/// then the stream layer and chaos controller. Folds the seeding epoch
/// into `digest` and adds the set-up's time to `setups`.
void build_rig(const EpochSpec& spec, std::uint64_t seed, unsigned jobs,
               const Observers& obs, Rig& rig, Digest& digest,
               Timings& setups, RunResult& result) {
  Tracer* t = obs.tracer;
  if (t != nullptr) t->set_op(kSetupOp);
  release(rig);
  rig.partitions = spec.partitions;
  const Stopwatch watch;
  rfh::EpochReport seed_report;
  {
    const ScopedSpan root(t, name_id(t, "setup"));
    rfh::WorldOptions world_options;
    world_options.rooms_per_datacenter = 2;
    world_options.racks_per_room = 5;
    world_options.servers_per_rack = 10;  // 100 servers per datacenter
    world_options.partitions_hint = spec.partitions;
    // The world is part of the workload's definition (WorldOptions'
    // default seed, as in bench_scalability); the run seed drives demand,
    // policy randomness, churn victims and arrival times. Server
    // capacities drawn per seed would make the simulated outcomes differ
    // by tens of percent from seed to seed.
    //
    // Log-spaced chords, as in bench_scalability: O(log n) diameter.
    std::vector<std::uint32_t> strides;
    for (std::uint32_t s = 8; s < spec.dcs; s *= 8) strides.push_back(s);

    rfh::World world;
    {
      const ScopedSpan span(t, name_id(t, "topology.build_world"));
      world = rfh::build_synthetic_world(spec.dcs, world_options, strides);
    }
    rfh::SimConfig config;
    config.partitions = spec.partitions;
    config.seed = derive(seed, kSimTag);
    rfh::WorkloadParams params;
    params.partitions = spec.partitions;
    params.datacenters = spec.dcs;
    params.mean_queries_per_epoch = kQueriesPerDc * spec.dcs;
    std::unique_ptr<rfh::WorkloadGenerator> workload =
        std::make_unique<rfh::UniformWorkload>(params);
    std::unique_ptr<rfh::ReplicationPolicy> policy =
        std::make_unique<rfh::RfhPolicy>();
    if (obs.counts != nullptr) {
      workload = std::make_unique<TracedWorkload>(std::move(workload), t,
                                                  *obs.counts);
      policy = std::make_unique<TracedPolicy>(std::move(policy), t,
                                              *obs.counts);
    }
    {
      const ScopedSpan span(t, name_id(t, "sim.construct"));
      rig.sim = std::make_unique<rfh::Simulation>(
          std::move(world), config, std::move(workload), std::move(policy));
    }
    rig.sim->set_jobs(jobs);
    if (obs.registry != nullptr) rig.sim->set_telemetry(obs.registry);
    {
      const ScopedSpan span(t, name_id(t, "sim.seed_epoch"));
      seed_report = rig.sim->step();
    }
    if (spec.churn_stream) {
      // Open-loop arrivals at the batch rate: the stream workload is the
      // uniform generator with mean == arrival_rate (stream/config.h).
      rig.stream_config.arrival_rate = params.mean_queries_per_epoch;
      rig.stream = std::make_unique<rfh::StreamSimulator>(
          rig.sim->world(), obs.registry, rig.stream_config, config.seed);
      rig.sim->set_flow_log(&rig.stream->flow_log());
      const std::uint32_t wave =
          static_cast<std::uint32_t>(rig.sim->topology().server_count() / 100);
      rfh::FaultPlan plan;
      rfh::FaultEvent churn;
      churn.kind = rfh::FaultKind::kChurn;
      churn.at = 1;
      churn.until = 1U << 30;
      churn.period = 1;
      churn.kill = wave;
      churn.recover = wave;
      plan.add(churn);
      rig.chaos = std::make_unique<rfh::ChaosController>(plan, config.seed);
    }
  }
  setups.add(watch);
  if (seed_report.repairs_starved > 0) {
    result.fail(fmt("seeding epoch: %.0f availability-floor repairs starved",
                    seed_report.repairs_starved));
    ++result.failed;
  }
  if (obs.checker != nullptr && spec.check_every_epoch &&
      obs.checker->check_epoch(*rig.sim, seed_report) > 0) {
    result.fail("seeding epoch: invariants: " +
                obs.checker->violations().back().detail);
    ++result.failed;
  }
  digest.fold(seed_report);
}

struct LoopStats {
  Timings iters;
  /// Running digest after each measured epoch.
  std::vector<std::uint64_t> running;
  /// Epochs the simulated outcomes below are summed over.
  std::size_t outcome_n = 0;
  double unserved = 0.0;
  double replicas = 0.0;
  double transfer = 0.0;
  double stream_p99 = 0.0;
  double data_losses = 0.0;
  double killed = 0.0;
  double revived = 0.0;
  double arrivals = 0.0;
  double applied = 0.0;
  double repairs_starved = 0.0;
  double check_s = 0.0;  ///< time spent in the invariant checker

  [[nodiscard]] std::size_t n() const noexcept { return iters.n(); }
  [[nodiscard]] double epochs_per_cpu_s() const {
    return ratio(static_cast<double>(n()) * 1000.0, sum(iters.cpu_ms));
  }
  /// Per-epoch mean of a quantity summed over every measured epoch.
  [[nodiscard]] double mean(double total) const {
    return ratio(total, static_cast<double>(n()));
  }
  /// Per-epoch mean of a simulated outcome.
  [[nodiscard]] double outcome(double total) const {
    return ratio(total, static_cast<double>(outcome_n));
  }
};

/// The closed measurement loop: chaos, step, stream, collect per epoch.
/// Runs `count` epochs, or for `seconds` and at least `min_count` epochs
/// when count is 0, and checks the running digest epoch by epoch against
/// `expected` when given.
LoopStats run_epochs(const EpochSpec& spec, Rig& rig, const Observers& obs,
                     Digest digest, double seconds, std::size_t min_count,
                     std::size_t count,
                     const std::vector<std::uint64_t>* expected,
                     RunResult& result) {
  Tracer* t = obs.tracer;
  const std::uint32_t id_epoch = name_id(t, "epoch");
  const std::uint32_t id_fault = name_id(t, "fault.before_epoch");
  const std::uint32_t id_step = name_id(t, "sim.step");
  const std::uint32_t id_stream = name_id(t, "stream.process_epoch");
  const std::uint32_t id_collect = name_id(t, "metrics.collect");

  rfh::MetricsCollector collector;
  rfh::InvariantChecker stream_checker;
  LoopStats out;
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (count > 0 ? i >= count
                  : (ms_since(start) >= seconds * 1000.0 && i >= min_count)) {
      break;
    }
    const Epoch e = rig.sim->epoch();
    if (t != nullptr) t->set_op(e);
    const std::uint32_t losses_before = rig.sim->data_losses();
    rfh::ChaosController::Applied applied;
    rfh::EpochReport report;
    std::optional<rfh::StreamEpochStats> stream;
    rfh::EpochMetrics m;
    const Stopwatch watch;
    {
      const ScopedSpan root(t, id_epoch);
      if (rig.chaos) {
        const ScopedSpan span(t, id_fault);
        applied = rig.chaos->before_epoch(*rig.sim, e);
      }
      {
        const ScopedSpan span(t, id_step);
        report = rig.sim->step();
      }
      if (rig.stream) {
        const ScopedSpan span(t, id_stream);
        stream = rig.stream->process_epoch(*rig.sim, report);
      }
      const ScopedSpan span(t, id_collect);
      m = collector.collect(*rig.sim, report);
    }
    out.iters.add(watch);
    collector.clear();

    // Untimed from here: bookkeeping and correctness checks.
    if (stream) {
      m.stream_arrivals = stream->arrivals;
      m.stream_served = stream->served;
      m.stream_blocked = stream->blocked;
      m.stream_dropped = stream->dropped;
      m.stream_max_queue_depth = stream->max_queue_depth;
      m.stream_wait_mean_ms = stream->mean_wait_ms;
      m.stream_p50_ms = stream->p50_ms;
      m.stream_p99_ms = stream->p99_ms;
      m.stream_p999_ms = stream->p999_ms;
      digest.fold(*stream);
    }
    digest.fold(report);
    digest.fold(m);
    out.running.push_back(digest.value());
    if (i + 1 == kPrefixOps) result.digest_prefix = digest.value();

    if (i < spec.min_epochs) {
      ++out.outcome_n;
      out.unserved += m.unserved_fraction;
      out.replicas += m.avg_replicas_per_partition;
      out.transfer += report.replication_cost + report.migration_cost;
      out.stream_p99 += m.stream_p99_ms;
      out.data_losses += rig.sim->data_losses() - losses_before;
    }
    out.killed += static_cast<double>(applied.killed.size());
    out.revived += static_cast<double>(applied.recovered.size());
    out.arrivals += m.stream_arrivals;
    out.applied += report.replications + report.migrations + report.suicides;
    out.repairs_starved += report.repairs_starved;

    std::string why;
    if (obs.checker != nullptr && (spec.check_every_epoch || i + 1 == count)) {
      const auto c0 = Clock::now();
      if (obs.checker->check_epoch(*rig.sim, report) > 0) {
        why = "invariants: " + obs.checker->violations().back().detail;
      }
      out.check_s += ms_since(c0) / 1000.0;
    }
    if (!why.empty()) {
      // reported below
    } else if (report.repairs_starved > 0) {
      why = fmt("%.0f availability-floor repairs starved",
                report.repairs_starved);
    } else if (!(report.total_queries > 0.0) ||
               report.unserved_queries < 0.0 ||
               report.unserved_queries > report.total_queries) {
      why = "query accounting out of range";
    } else if (report.total_replicas < rig.partitions) {
      why = "a partition holds no copy";
    } else if (stream && stream_checker.check_stream(
                             *stream, rig.stream_config,
                             report.total_queries) > 0) {
      why = "stream accounting: " + stream_checker.violations().back().detail;
    } else if (expected != nullptr &&
               (i >= expected->size() || out.running[i] != (*expected)[i])) {
      why = "digest differs from the untraced pass";
    }
    ++result.attempted;
    if (!why.empty()) {
      ++result.failed;
      result.fail(fmt("epoch %.0f: ", e) + why);
    }
  }
  if (result.digest_prefix == 0 && !out.running.empty()) {
    result.digest_prefix = out.running.back();
  }
  return out;
}

void add_outcome_info(const LoopStats& loop, RunResult& result) {
  result.info.push_back({"sim_stream_p99_ms", loop.outcome(loop.stream_p99),
                         "ms"});
  result.info.push_back({"sim_data_losses", loop.outcome(loop.data_losses),
                         "count"});
  result.info.push_back({"outcome_epochs", static_cast<double>(loop.outcome_n),
                         "count"});
}

RunResult run_epoch_workload(const EpochSpec& spec, const RunOptions& opt) {
  RunResult result;
  const unsigned jobs = spec.churn_stream ? bench_threads() : 1;
  result.threads = jobs;
  if (!opt.trace) {
    Rig rig;
    Timings setups;
    Digest digest;
    for (int r = 0; r < spec.setup_reps; ++r) {
      digest = Digest{};
      build_rig(spec, opt.seed, jobs, {}, rig, digest, setups, result);
    }
    const LoopStats loop = run_epochs(spec, rig, {}, digest, opt.seconds,
                                      spec.min_epochs, 0, nullptr, result);
    result.metrics = end_to_end(
        static_cast<double>(loop.n()), loop.iters, spec.min_epochs, setups,
        loop.outcome(loop.unserved), loop.outcome(loop.replicas),
        loop.outcome(loop.transfer), result.info);
    add_outcome_info(loop, result);
    return result;
  }

  // Pass 1, untraced: the reference digests and epochs/s.
  std::vector<std::uint64_t> reference;
  double untraced_eps = 0.0;  // per CPU second
  double rss_after_setup = 0.0;
  double rss_growth = 0.0;
  {
    Rig rig;
    Digest digest;
    RunResult scratch;
    Timings setups;
    build_rig(spec, opt.seed, jobs, {}, rig, digest, setups, result);
    rss_after_setup = rss_mb();
    const LoopStats loop =
        run_epochs(spec, rig, {}, digest, opt.seconds / 4.0,
                   kPrefixOps, 0, nullptr, scratch);
    rss_growth = rss_mb() - rss_after_setup;
    release(rig);
    reference = loop.running;
    untraced_eps = loop.epochs_per_cpu_s();
    result.digest_prefix = scratch.digest_prefix;
    for (const std::string& f : scratch.failures) result.fail(f);
    result.failed += scratch.failed;
  }

  // Pass 2, traced: the same epochs with spans, profiler, registry and
  // the invariant checker attached.
  Tracer tracer;
  BoundaryCounts counts;
  rfh::MetricRegistry registry;
  rfh::PhaseProfiler profiler;
  rfh::InvariantChecker checker;
  const Observers obs{&tracer, &counts, &registry, &checker};
  Rig rig;
  Digest digest;
  Timings setups;
  build_rig(spec, opt.seed, jobs, obs, rig, digest, setups, result);
  const BoundaryCounts seed_counts = counts;
  const double routes0 = counter_value(registry, "rfh_router_routes_total");
  const double hits0 = counter_value(registry, "rfh_router_memo_hits_total");
  const double misses0 =
      counter_value(registry, "rfh_router_memo_misses_total");
  rig.sim->set_profiler(&profiler);
  RunResult traced;
  const LoopStats loop =
      run_epochs(spec, rig, obs, digest, 0.0, 0, reference.size(),
                 &reference, traced);
  profiler.finalize();
  result.attempted += traced.attempted;
  result.failed += traced.failed;
  for (const std::string& f : traced.failures) result.fail(f);

  const auto setup = layer_totals(
      tracer, [](std::uint64_t op) { return op == kSetupOp; });
  const auto epochs = layer_totals(
      tracer, [](std::uint64_t op) { return op != kSetupOp; });
  const double n = static_cast<double>(loop.n());
  auto self = [&](const std::map<std::string, LayerTotals>& m,
                  const char* name) {
    const auto it = m.find(name);
    return it != m.end() ? it->second.self_ms : 0.0;
  };
  auto total = [&](const std::map<std::string, LayerTotals>& m,
                   const char* name) {
    const auto it = m.find(name);
    return it != m.end() ? it->second.total_ms : 0.0;
  };
  auto phase_ms = [&](rfh::Phase p) {
    return profiler.totals(p).total_ms / n;
  };
  const double routes =
      counter_value(registry, "rfh_router_routes_total") - routes0;
  const double hits =
      counter_value(registry, "rfh_router_memo_hits_total") - hits0;
  const double misses =
      counter_value(registry, "rfh_router_memo_misses_total") - misses0;
  const double root_ms = total(epochs, "epoch");
  const double proposed = static_cast<double>(counts.actions_proposed -
                                              seed_counts.actions_proposed);

  std::map<std::string, double> v;
  v["topology.build_world_ms"] = total(setup, "topology.build_world");
  v["sim.construct_ms"] = total(setup, "sim.construct");
  v["sim.seed_epoch_ms"] = total(setup, "sim.seed_epoch");
  v["core.decide_ms_seed"] = total(setup, "core.decide");
  v["routing.ms"] = phase_ms(rfh::Phase::kRouting);
  v["routing.routes"] = routes / n;
  v["routing.memo_hit_ratio"] = ratio(hits, hits + misses);
  v["rss.after_setup_mb"] = rss_after_setup;
  v["rss.steady_growth_mb"] = rss_growth;
  v["workload.generate_ms"] = self(epochs, "workload.generate") / n;
  v["workload.flows"] =
      static_cast<double>(counts.flows - seed_counts.flows) / n;
  v["core.decide_ms"] = self(epochs, "core.decide") / n;
  v["core.actions_proposed"] = proposed / n;
  v["sim.stats_update_ms"] = phase_ms(rfh::Phase::kStatsUpdate);
  v["sim.action_apply_ms"] = phase_ms(rfh::Phase::kActionApply);
  v["sim.engine_self_ms"] = self(epochs, "sim.step") / n;
  v["sim.actions_applied_ratio"] = ratio(loop.applied, proposed);
  v["sim.repairs_starved"] = loop.repairs_starved;
  v["fault.before_epoch_ms"] = self(epochs, "fault.before_epoch") / n;
  v["fault.servers_killed"] = loop.mean(loop.killed);
  v["fault.servers_revived"] = loop.mean(loop.revived);
  v["stream.process_ms"] = self(epochs, "stream.process_epoch") / n;
  v["stream.arrivals"] = loop.mean(loop.arrivals);
  v["metrics.collect_ms"] = self(epochs, "metrics.collect") / n;
  v["harness.glue_ms"] = self(epochs, "epoch") / n;
  v["obs.tracing_overhead"] =
      1.0 - ratio(loop.epochs_per_cpu_s(), untraced_eps);
  v["obs.span_coverage"] = ratio(root_ms - self(epochs, "epoch"), root_ms);
  result.metrics = layer_metrics(v);
  add_outcome_info(loop, result);
  result.info.push_back({"iterations", static_cast<double>(loop.n()),
                         "count"});
  result.info.push_back({"invariant_check_s", loop.check_s, "s"});

  std::ostringstream table;
  table << "layer self time per measured epoch (" << loop.n()
        << " epochs, " << fmt("%.3f", root_ms / n) << " ms each):\n";
  for (const auto& [name, totals] : epochs) {
    table << table_row(name, totals.self_ms / n,
                       ratio(totals.self_ms, root_ms));
  }
  table << "engine phases (PhaseProfiler) per measured epoch:\n";
  for (std::size_t p = 0; p < rfh::kPhaseCount; ++p) {
    const auto phase = static_cast<rfh::Phase>(p);
    const double ms = profiler.totals(phase).total_ms;
    if (ms <= 0.0) continue;
    table << table_row(rfh::phase_name(phase), ms / n, ratio(ms, root_ms));
  }
  table << "set-up: " << fmt("%.1f ms total, of which decide %.1f ms",
                             total(setup, "setup"),
                             total(setup, "core.decide"))
        << '\n';
  result.layer_table = table.str();

  if (!opt.trace_out.empty()) {
    std::ofstream out(opt.trace_out);
    tracer.write_json(out);
  }
  return result;
}

// --- paper_sweep ---------------------------------------------------------

constexpr std::array<rfh::PolicyKind, 4> kPolicies{
    rfh::PolicyKind::kRequest, rfh::PolicyKind::kOwner,
    rfh::PolicyKind::kRandom, rfh::PolicyKind::kRfh};

/// One seed's grid: {random-query, flash-crowd, failure-recovery} x the
/// four policies, every cell seeded from the benchmark seed and `grid`.
std::vector<rfh::SweepCell> paper_grid(std::uint64_t seed, std::size_t grid) {
  const std::uint64_t cell_seed = derive(seed, kGridTag + grid) >> 16;
  rfh::Scenario recovery = rfh::Scenario::paper_failure_recovery();
  rfh::FaultEvent crash;  // Fig. 10: 30 servers killed at epoch 290
  crash.kind = rfh::FaultKind::kCrash;
  crash.at = 290;
  crash.count = 30;
  recovery.fault_plan.add(crash);
  const std::array<std::pair<const char*, rfh::Scenario>, 3> scenarios{{
      {"random_query", rfh::Scenario::paper_random_query()},
      {"flash_crowd", rfh::Scenario::paper_flash_crowd()},
      {"failure_recovery", recovery},
  }};
  std::vector<rfh::SweepCell> cells;
  for (const auto& [label, base] : scenarios) {
    for (const rfh::PolicyKind kind : kPolicies) {
      rfh::SweepCell cell;
      cell.label = std::string(label) + "/" +
                   std::string(rfh::policy_name(kind));
      cell.scenario = base;
      cell.scenario.sim.seed = cell_seed;
      cell.scenario.world.seed = cell_seed;
      // The stock scenarios keep the default 16-vnode cap, under which
      // RFH cells starve availability-floor repairs; the hint lifts the
      // cap to the partition count, where it never binds.
      cell.scenario.world.partitions_hint = cell.scenario.sim.partitions;
      cell.policy = kind;
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

struct CellOutcome {
  std::uint64_t digest = 0;
  double epochs = 0.0;
  double unserved = 0.0;  // summed over epochs
  double replicas = 0.0;  // summed over epochs
  double transfer = 0.0;  // whole-run Eq. 1 cost
  double killed = 0.0;
  double applied = 0.0;
  double proposed = 0.0;
  double repairs_starved = 0.0;
  std::string why;  // empty when every check passed
};

CellOutcome reduce(const rfh::SweepCell& cell, const rfh::PolicyRun& run) {
  CellOutcome out;
  Digest d;
  for (const rfh::EpochMetrics& m : run.series) {
    d.fold(m);
    out.unserved += m.unserved_fraction;
    out.replicas += m.avg_replicas_per_partition;
    out.applied += m.replications_this_epoch + m.migrations_this_epoch +
                   m.suicides_this_epoch;
    out.proposed += m.replications_this_epoch + m.migrations_this_epoch +
                    m.suicides_this_epoch + m.dropped_this_epoch;
    out.repairs_starved += m.repairs_starved;
    if (out.why.empty()) {
      if (m.repairs_starved > 0) {
        out.why = "availability-floor repairs starved";
      } else if (m.unserved_fraction < 0.0 || m.unserved_fraction > 1.0) {
        out.why = "unserved fraction out of range";
      } else if (m.total_replicas < cell.scenario.sim.partitions) {
        out.why = "a partition holds no copy";
      }
    }
  }
  for (const rfh::ServerId s : run.killed) d.add(std::uint64_t{s.value()});
  d.add(run.faults_injected);
  out.digest = d.value();
  out.epochs = static_cast<double>(run.series.size());
  out.killed = static_cast<double>(run.killed.size());
  if (!run.series.empty()) {
    out.transfer = run.series.back().replication_cost_total +
                   run.series.back().migration_cost_total;
  }
  if (run.series.size() != cell.scenario.epochs) out.why = "short series";
  return out;
}

/// Running state over cells taken in index order.
struct CellLedger {
  Digest digest;
  std::vector<std::uint64_t> running;
  Timings cells_time;  ///< per cell, when cells run one at a time
  double epochs = 0.0, unserved = 0.0, replicas = 0.0, transfer = 0.0;
  double killed = 0.0, applied = 0.0, proposed = 0.0, starved = 0.0;

  /// Fold one cell; compares against `expected` when given.
  void add(const rfh::SweepCell& cell, const CellOutcome& o,
           const std::vector<std::uint64_t>* expected, RunResult& result) {
    digest.add(o.digest);
    running.push_back(digest.value());
    if (running.size() == kPrefixOps) result.digest_prefix = digest.value();
    epochs += o.epochs;
    unserved += o.unserved;
    replicas += o.replicas;
    transfer += o.transfer;
    killed += o.killed;
    applied += o.applied;
    proposed += o.proposed;
    starved += o.repairs_starved;
    std::string why = o.why;
    const std::size_t i = running.size() - 1;
    if (why.empty() && expected != nullptr &&
        (i >= expected->size() || (*expected)[i] != running[i])) {
      why = "digest differs from the timed pass";
    }
    ++result.attempted;
    if (!why.empty()) {
      ++result.failed;
      result.fail("cell " + cell.label + ": " + why);
    }
  }
  [[nodiscard]] double cells() const {
    return static_cast<double>(running.size());
  }
};

/// Set-up of one paper-world RFH simulation: world, construction and the
/// seeding epoch, under spans when a tracer is given. Adds its time to
/// `setups`.
void paper_setup(std::uint64_t seed, Tracer* t, Timings& setups) {
  if (t != nullptr) t->set_op(kSetupOp);
  const Stopwatch watch;
  const ScopedSpan root(t, name_id(t, "setup"));
  rfh::Scenario scenario = rfh::Scenario::paper_random_query();
  scenario.sim.seed = derive(seed, kSimTag);
  scenario.world.seed = derive(seed, kWorldTag);
  scenario.world.partitions_hint = scenario.sim.partitions;
  rfh::World world;
  {
    const ScopedSpan span(t, name_id(t, "topology.build_world"));
    world = rfh::build_paper_world(scenario.world);
  }
  std::unique_ptr<rfh::WorkloadGenerator> workload =
      rfh::make_workload(scenario, world);
  std::unique_ptr<rfh::ReplicationPolicy> policy =
      rfh::make_policy(rfh::PolicyKind::kRfh);
  BoundaryCounts counts;
  if (t != nullptr) {
    workload = std::make_unique<TracedWorkload>(std::move(workload), t, counts);
    policy = std::make_unique<TracedPolicy>(std::move(policy), t, counts);
  }
  std::unique_ptr<rfh::Simulation> sim;
  {
    const ScopedSpan span(t, name_id(t, "sim.construct"));
    sim = std::make_unique<rfh::Simulation>(std::move(world), scenario.sim,
                                            std::move(workload),
                                            std::move(policy));
  }
  {
    const ScopedSpan span(t, name_id(t, "sim.seed_epoch"));
    (void)sim->step();
  }
  setups.add(watch);
}

constexpr int kPaperSetupReps = 101;
/// Timed paper_sweep runs complete at least this many grids; simulated
/// outcomes are means over the cells of exactly the first this many.
constexpr std::size_t kPaperMinGrids = 40;

RunResult run_paper_sweep(const RunOptions& opt) {
  RunResult result;
  const unsigned jobs = bench_threads();
  result.threads = jobs;
  rfh::SweepOptions sweep_options;
  sweep_options.jobs = jobs;

  if (!opt.trace) {
    Timings setups;
    for (int r = 0; r < kPaperSetupReps; ++r) {
      paper_setup(opt.seed, nullptr, setups);
    }
    const rfh::SweepRunner runner(sweep_options);
    CellLedger ledger;
    CellLedger outcome;  // the first kPaperMinGrids grids
    Timings grids;
    const auto start = Clock::now();
    for (std::size_t g = 0;; ++g) {
      if (ms_since(start) >= opt.seconds * 1000.0 && g >= kPaperMinGrids) {
        break;
      }
      const std::vector<rfh::SweepCell> cells = paper_grid(opt.seed, g);
      const Stopwatch watch;
      const std::vector<rfh::SweepCellResult> results = runner.run(cells);
      grids.add(watch);
      for (std::size_t c = 0; c < cells.size(); ++c) {
        ledger.add(cells[c], reduce(cells[c], results[c].run), nullptr,
                   result);
      }
      if (g + 1 == kPaperMinGrids) outcome = ledger;
    }
    result.metrics = end_to_end(
        ledger.epochs, grids, kPaperMinGrids, setups,
        ratio(outcome.unserved, outcome.epochs),
        ratio(outcome.replicas, outcome.epochs),
        ratio(outcome.transfer, outcome.epochs), result.info);
    result.info.push_back({"cells_per_s",
                           ratio(ledger.cells() * 1000.0, sum(grids.wall_ms)),
                           "1/s"});
    result.info.push_back({"cells_per_cpu_s",
                           ratio(ledger.cells() * 1000.0, sum(grids.cpu_ms)),
                           "1/s"});
    return result;
  }

  Tracer tracer;
  Timings setups;
  paper_setup(opt.seed, &tracer, setups);
  const double rss_after_setup = rss_mb();

  // Pass A, untraced and serial: reference digests and cells/s.
  CellLedger plain;
  std::size_t grids = 0;
  {
    RunResult scratch;
    const auto start = Clock::now();
    while (grids < 2 || ms_since(start) < opt.seconds * 1000.0 / 4.0) {
      for (const rfh::SweepCell& cell : paper_grid(opt.seed, grids)) {
        const Stopwatch watch;
        const rfh::PolicyRun run = rfh::run_policy(
            cell.scenario, cell.policy, {}, cell.rfh);
        plain.cells_time.add(watch);
        plain.add(cell, reduce(cell, run), nullptr, scratch);
      }
      ++grids;
    }
    result.digest_prefix = scratch.digest_prefix;
  }

  // Pass B, traced: the same cells one at a time through run_policy with
  // a PhaseProfiler per policy and a fresh registry per cell.
  std::array<rfh::PhaseProfiler, kPolicies.size()> profilers;
  CellLedger traced;
  double routes = 0.0, hits = 0.0, misses = 0.0;
  const std::uint32_t id_cell = tracer.intern("cell");
  const std::uint32_t id_run = tracer.intern("harness.run_policy");
  for (std::size_t g = 0; g < grids; ++g) {
    for (const rfh::SweepCell& cell : paper_grid(opt.seed, g)) {
      const std::size_t k = static_cast<std::size_t>(
          std::find(kPolicies.begin(), kPolicies.end(), cell.policy) -
          kPolicies.begin());
      rfh::MetricRegistry registry;
      tracer.set_op(traced.running.size());
      rfh::PolicyRun run;
      const Stopwatch watch;
      {
        const ScopedSpan root(&tracer, id_cell);
        const ScopedSpan span(&tracer, id_run);
        run = rfh::run_policy(cell.scenario, cell.policy, {}, cell.rfh,
                              nullptr, &registry, &profilers[k]);
      }
      traced.cells_time.add(watch);
      routes += counter_value(registry, "rfh_router_routes_total");
      hits += counter_value(registry, "rfh_router_memo_hits_total");
      misses += counter_value(registry, "rfh_router_memo_misses_total");
      traced.add(cell, reduce(cell, run), &plain.running, result);
    }
  }

  // Pass C: the invariant checker over the same cells (untimed).
  {
    CellLedger checked;
    for (std::size_t g = 0; g < grids; ++g) {
      for (const rfh::SweepCell& cell : paper_grid(opt.seed, g)) {
        rfh::InvariantChecker checker;
        const rfh::PolicyRun run = rfh::run_policy(
            cell.scenario, cell.policy, {}, cell.rfh, nullptr, nullptr,
            nullptr, &checker);
        RunResult scratch;
        checked.add(cell, reduce(cell, run), &plain.running, scratch);
        result.failed += scratch.failed;
        for (const std::string& f : scratch.failures) result.fail(f);
        if (!checker.violations().empty()) {
          ++result.failed;
          result.fail("cell " + cell.label + ": invariants: " +
                      checker.violations().front().detail);
        }
      }
    }
  }

  // Pass D: the pooled sweep with its registry (pool counters).
  rfh::MetricRegistry sweep_registry;
  sweep_options.registry = &sweep_registry;
  double occupancy = 0.0;
  {
    const rfh::SweepRunner runner(sweep_options);
    CellLedger pooled;
    for (std::size_t g = 0; g < grids; ++g) {
      const std::vector<rfh::SweepCell> cells = paper_grid(opt.seed, g);
      const std::vector<rfh::SweepCellResult> results = runner.run(cells);
      occupancy += gauge_value(sweep_registry, "rfh_pool_occupancy_ratio");
      RunResult scratch;
      for (std::size_t c = 0; c < cells.size(); ++c) {
        pooled.add(cells[c], reduce(cells[c], results[c].run),
                   &plain.running, scratch);
      }
      result.failed += scratch.failed;
      for (const std::string& f : scratch.failures) result.fail(f);
    }
  }

  const double cells = traced.cells();
  rfh::PhaseProfiler::PhaseTotals sums[rfh::kPhaseCount] = {};
  for (const rfh::PhaseProfiler& p : profilers) {
    for (std::size_t ph = 0; ph < rfh::kPhaseCount; ++ph) {
      const auto t = p.totals(static_cast<rfh::Phase>(ph));
      sums[ph].total_ms += t.total_ms;
      sums[ph].calls += t.calls;
    }
  }
  auto per_cell = [&](rfh::Phase p) {
    return sums[static_cast<std::size_t>(p)].total_ms / cells;
  };
  double phases_ms = 0.0;
  for (const auto& s : sums) phases_ms += s.total_ms;
  const auto setup = layer_totals(
      tracer, [](std::uint64_t op) { return op == kSetupOp; });
  auto total = [&](const char* name) {
    const auto it = setup.find(name);
    return it != setup.end() ? it->second.total_ms : 0.0;
  };
  const double cell_total_ms = sum(traced.cells_time.wall_ms);

  std::map<std::string, double> v;
  v["topology.build_world_ms"] = total("topology.build_world");
  v["sim.construct_ms"] = total("sim.construct");
  v["sim.seed_epoch_ms"] = total("sim.seed_epoch");
  v["core.decide_ms_seed"] = total("core.decide");
  v["routing.ms"] = per_cell(rfh::Phase::kRouting);
  v["routing.routes"] = routes / cells;
  v["routing.memo_hit_ratio"] = ratio(hits, hits + misses);
  v["rss.after_setup_mb"] = rss_after_setup;
  v["rss.steady_growth_mb"] = rss_mb() - rss_after_setup;
  v["workload.generate_ms"] = per_cell(rfh::Phase::kWorkloadGen);
  v["core.decide_ms"] = per_cell(rfh::Phase::kPolicyDecide);
  v["core.actions_proposed"] = traced.proposed / cells;
  v["sim.stats_update_ms"] = per_cell(rfh::Phase::kStatsUpdate);
  v["sim.action_apply_ms"] = per_cell(rfh::Phase::kActionApply);
  v["sim.engine_self_ms"] = per_cell(rfh::Phase::kRouting) +
                            per_cell(rfh::Phase::kStatsUpdate) +
                            per_cell(rfh::Phase::kActionApply);
  v["sim.actions_applied_ratio"] = ratio(traced.applied, traced.proposed);
  v["sim.repairs_starved"] = traced.starved;
  v["fault.servers_killed"] = traced.killed / cells;
  v["metrics.collect_ms"] = per_cell(rfh::Phase::kMetricsCollect);
  v["harness.glue_ms"] = (cell_total_ms - phases_ms) / cells;
  v["exec.cell_ms_p50"] = median(traced.cells_time.wall_ms);
  v["exec.pool_occupancy"] = occupancy / static_cast<double>(grids);
  v["exec.tasks_stolen"] =
      counter_value(sweep_registry, "rfh_pool_tasks_stolen_total") / cells;
  v["obs.tracing_overhead"] = 1.0 - ratio(sum(plain.cells_time.cpu_ms),
                                          sum(traced.cells_time.cpu_ms));
  v["obs.span_coverage"] = ratio(phases_ms, cell_total_ms);
  result.metrics = layer_metrics(v);
  result.info.push_back({"cells", cells, "count"});
  result.info.push_back({"cells_per_s_serial_untraced",
                         ratio(plain.cells() * 1000.0,
                               sum(plain.cells_time.wall_ms)),
                         "1/s"});

  std::ostringstream table;
  table << "phase time per cell by policy (" << grids << " grids, "
        << fmt("%.3f", cell_total_ms / cells) << " ms per cell):\n  policy  ";
  for (std::size_t ph = 0; ph < rfh::kPhaseCount; ++ph) {
    table << ' ' << rfh::phase_name(static_cast<rfh::Phase>(ph));
  }
  table << '\n';
  const double cells_per_policy = cells / static_cast<double>(kPolicies.size());
  for (std::size_t k = 0; k < kPolicies.size(); ++k) {
    table << "  " << rfh::policy_name(kPolicies[k]);
    double policy_total = 0.0;
    for (std::size_t ph = 0; ph < rfh::kPhaseCount; ++ph) {
      policy_total += profilers[k].totals(static_cast<rfh::Phase>(ph)).total_ms;
    }
    for (std::size_t ph = 0; ph < rfh::kPhaseCount; ++ph) {
      const double ms =
          profilers[k].totals(static_cast<rfh::Phase>(ph)).total_ms;
      table << fmt(" %.3fms(%.0f%%)", ms / cells_per_policy,
                   100.0 * ratio(ms, policy_total));
    }
    table << '\n';
  }
  result.layer_table = table.str();
  if (!opt.trace_out.empty()) {
    std::ofstream out(opt.trace_out);
    tracer.write_json(out);
  }
  return result;
}

constexpr EpochSpec kSteady{1000, 8000, false, 3, 40, false};
constexpr EpochSpec kChurn{100, 800, true, 5, 700, true};

}  // namespace

void RunResult::fail(const std::string& what) {
  if (failures.size() < kMaxFailureLines) failures.push_back(what);
}

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> list = {
      {"steady_100k",
       "100k servers, steady demand: routing dominates each epoch and the "
       "8000-partition seeding epoch dominates set-up"},
      {"churn_stream_10k",
       "1% churn per epoch voids every route memo, exercises chaos, repair "
       "and the stream layer, with the engine sharded"},
      {"paper_sweep",
       "paper-size cells: per-epoch fixed costs and cell-level parallelism "
       "set throughput, large-N work is negligible"},
  };
  return list;
}

unsigned bench_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(hw, 1U, 4U);
}

RunResult run(const RunOptions& options) {
  if (options.workload == "steady_100k") {
    return run_epoch_workload(kSteady, options);
  }
  if (options.workload == "churn_stream_10k") {
    return run_epoch_workload(kChurn, options);
  }
  if (options.workload == "paper_sweep") return run_paper_sweep(options);
  throw std::invalid_argument("unknown workload: " + options.workload);
}

std::uint64_t small_world_digest(std::uint64_t seed, std::uint32_t epochs,
                                 bool decorated) {
  const EpochSpec spec{12, 96, false, 1, 0, true};
  Tracer tracer;
  BoundaryCounts counts;
  Observers obs;
  if (decorated) {
    obs.tracer = &tracer;
    obs.counts = &counts;
  }
  Rig rig;
  Digest digest;
  Timings setups;
  RunResult result;
  build_rig(spec, seed, 1, obs, rig, digest, setups, result);
  const LoopStats loop =
      run_epochs(spec, rig, obs, digest, 0.0, 0, epochs, nullptr, result);
  return loop.running.empty() ? 0 : loop.running.back();
}

}  // namespace perfbench
