// Day-level benchmark: SRP (the paper's method) against SAP (the grid
// baseline whose spacetime A*, reservation table and table heuristic the
// other baselines share) on identical generated inputs, default options,
// through the program's public entry points.
//
//   day_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-dir DIR]
//   day_bench --self-test
//
// Workloads:
//   day-w3       one W-3 day (Fig. 18 protocol): fresh planners, every
//                route kept all day, uniform rack demand;
//   multiday-w2  three W-2 days on one continuous clock through one shared
//                planner per algorithm, with route retirement and cadence
//                pruning; each day starts once the last route of the day
//                before has ended;
//   service-w1   a double-surge stream of rack->picker requests on W-1,
//                drained by a PlannerService with 2 pool workers: the
//                speculative and sharded PlanBatch paths;
//   service-w1-serial
//                the same stream through a PlannerService with its default
//                single pool worker: serial waves, table prefetch on the
//                worker.
//
// A run repeats whole rounds (set-up, SRP pass, SAP pass, output check)
// until the next round would overrun --seconds, and reports medians over
// rounds, or latency percentiles over every sample of the run. Round k of a
// run draws its inputs from (--seed, k). Each pass's
// output is checked by route_check.h, never by the program's own
// validators. The last line of standard output is one JSON
// object {correct, attempted, failed, metrics}; the line before it is the
// run record (counts, seed, resolved dispatch knobs). With --trace 1 the
// metrics are the per-layer ones, and spans plus the layer table are
// written under --trace-dir.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/planner_factory.h"
#include "core/heuristic_table.h"
#include "core/kernel_dispatch.h"
#include "core/search_engine.h"
#include "core/search_queue.h"
#include "layout/layout_generator.h"
#include "probe_planner.h"
#include "route_check.h"
#include "service/planner_service.h"
#include "sim/simulator.h"
#include "srp/srp_planner.h"
#include "trace.h"
#include "workload/arrival_profile.h"
#include "workload/scenario.h"
#include "workload/task_generator.h"

extern char** environ;

namespace carp::perfbench {
namespace {

enum class Kind { kSimDay, kSimMultiDay, kService };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  const char* scenario;
  double scale;           // task count and day length scale (simulator)
  int days;               // consecutive days (simulator)
  std::int64_t requests;  // stream length (service)
  int workers;            // service pool workers (service)
};

// Sizes: day-w3's goal set outgrows the 64 MiB table budget (evictions and
// rebuilds); multiday-w2 is long enough for release/prune/compaction churn
// on every day; the service stream is long enough for well over 1000
// latency samples per round while W-1's 68 picker goals fit the budget.
// service-w1's 2 workers leave headroom on a 4-core host; service-w1-serial
// keeps ServiceOptions' default of one.
constexpr WorkloadSpec kWorkloads[] = {
    {"day-w3", Kind::kSimDay, "W-3", 0.015, 1, 0, 0},
    {"multiday-w2", Kind::kSimMultiDay, "W-2", 0.01, 3, 0, 0},
    {"service-w1", Kind::kService, "W-1", 0.0, 1, 1500, 2},
    {"service-w1-serial", Kind::kService, "W-1", 0.0, 1, 1500, 1},
};
// Prune cadence of the multi-day run: several sweeps per day.
constexpr TimeStep kMultiDayPruneEvery = 512;
// Multi-day clock: day k's arrivals start at k * kDayStride * day_length.
// A day's routes run on for about as long again as its arrival window, so
// the stride leaves room for the day to finish before the next one starts
// (checked every pass): Simulator::Run retires every route of its day, which
// is only legal once no later query can emerge before that route's end.
constexpr TimeStep kDayStride = 3;
// Set-up samples per run: set-up is tens of milliseconds, so one stolen
// time slice moves a single sample by 20 %.
constexpr std::size_t kSetupSamples = 25;

const ProbeNames kSrpNames = {
    "srp.plan",    "srp.query", "srp.commit",   "srp.commit_sharded",
    "srp.release", "srp.prune", "srp.prefetch", "srp.read_stats"};
const ProbeNames kSapNames = {
    "sap.plan",    "sap.query", "sap.commit",   "sap.commit_sharded",
    "sap.release", "sap.prune", "sap.prefetch", "sap.read_stats"};

// ---------------------------------------------------------------- output

std::string Num(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << metrics[i].name << "\": {\"value\": "
       << Num(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}";
  return os.str();
}

std::string JsonList(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += Num(values[i]);
  }
  return out + "]";
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, q in (0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
  return v[idx];
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

constexpr double kMiB = 1024.0 * 1024.0;

// CPU time of the whole process (every thread), in seconds. Time the
// hypervisor steals from a virtual CPU does not count, so a pass's CPU time
// beside its wall time tells a slower program from a busier host.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Host CPU time counters from /proc/stat's aggregate line: (steal, total)
// in clock ticks, or zeros where the file is unavailable. The share of
// time the hypervisor gave away during a run explains most run-to-run
// drift on shared virtual machines, so the run record carries it.
std::pair<double, double> StealAndTotalTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  if (!stat || cpu != "cpu") return {0, 0};
  double total = 0, steal = 0, v = 0;
  for (int field = 0; field < 10 && (stat >> v); ++field) {
    total += field < 8 ? v : 0;  // guest time is already counted in user
    if (field == 7) steal = v;
  }
  return {steal, total};
}

// ---------------------------------------------------------------- inputs

struct Inputs {
  layout::Warehouse warehouse;
  std::vector<std::vector<workload::DeliveryTask>> days;  // simulator
  std::vector<service::PlanRequest> requests;             // service
};

workload::Scenario ScenarioOf(const WorkloadSpec& spec) {
  workload::Scenario base = workload::PaperScenario(spec.scenario);
  const double scale =
      spec.kind == Kind::kService
          ? static_cast<double>(spec.requests) /
                static_cast<double>(base.daily_tasks.front())
          : spec.scale;
  return workload::ScaledScenario(base, scale);
}

// Generator seed of round `round` of a run with workload seed `seed`. Each
// round draws its own inputs, so a run's medians average over several
// inputs of the workload rather than resting on one draw.
std::uint64_t RoundSeed(std::uint64_t seed, std::size_t round) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + round + 1;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return (x ^ (x >> 31)) >> 20;  // leaves room for the per-day offset
}

void GenerateInputs(const WorkloadSpec& spec,
                    const workload::Scenario& scenario, std::uint64_t seed,
                    Inputs& in) {
  if (spec.kind == Kind::kService) {
    workload::TaskGeneratorOptions opts;
    opts.task_count = spec.requests;
    opts.day_length = scenario.day_length;
    opts.seed = seed * 1000;
    const auto tasks = workload::GenerateTasks(
        in.warehouse, workload::ArrivalProfile::DoubleSurge(), opts);
    for (const auto& task : tasks) {
      service::PlanRequest r;
      r.id = static_cast<std::int64_t>(in.requests.size());
      r.release_time = task.arrival;
      r.origin = in.warehouse.rack_access[task.rack_index];
      r.destination = in.warehouse.pickers[task.picker_index];
      if (r.origin == r.destination) continue;
      in.requests.push_back(r);
    }
    return;
  }
  for (int day = 0; day < spec.days; ++day) {
    workload::TaskGeneratorOptions opts;
    opts.task_count = scenario.daily_tasks[static_cast<std::size_t>(day) %
                                           scenario.daily_tasks.size()];
    opts.day_length = scenario.day_length;
    opts.seed = seed * 1000 + static_cast<std::uint64_t>(day);
    auto tasks = workload::GenerateTasks(
        in.warehouse, workload::ArrivalProfile::DoubleSurge(), opts);
    for (auto& task : tasks) {
      task.arrival += static_cast<TimeStep>(day) * kDayStride *
                      scenario.day_length;
    }
    in.days.push_back(std::move(tasks));
  }
}

// ---------------------------------------------------------------- passes

struct PassResult {
  double seconds = 0;
  double cpu_seconds = 0;  // process CPU time over the same span
  std::vector<double> latency_us;
  std::vector<double> cpu_latency_us;  // simulator: thread CPU per PlanRoute
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t finished = 0;  // tasks (simulator) or requests (service)
  std::size_t peak_retained = 0;
  TimeStep reported_makespan = -1;  // simulator only
  std::vector<PlannedQuery> routes;
  std::string error;  // a pass-level inconsistency

  // Layer readings (traced runs use them; cheap to take always).
  core::PlannerStats stats;
  double fallback_s = 0;
  std::int64_t waves = 0;
  double untimed_s = 0;  // RetainedBytes reads inside the pass (service)
  std::int64_t speculated = 0;
  std::int64_t invalidated = 0;
  std::int64_t shard_commits = 0;
  std::int64_t shard_contentions = 0;
  std::int64_t shard_retries = 0;
};

PassResult RunSimPass(const WorkloadSpec& spec, const Inputs& in,
                      core::Planner& planner, bool is_srp, Tracer& tracer) {
  ProbePlanner probe(planner, tracer, is_srp ? kSrpNames : kSapNames,
                     /*keep_routes=*/true);
  sim::SimulatorOptions options;
  options.validate = false;  // the benchmark checks routes itself
  if (spec.kind == Kind::kSimMultiDay) {
    options.retire_routes = true;
    options.prune_every = kMultiDayPruneEvery;
  }
  sim::Simulator simulator(in.warehouse, probe, options);

  PassResult r;
  const double cpu_start = ProcessCpuSeconds();
  const std::int64_t start = NowNs();
  {
    Tracer::Scope pass(tracer, is_srp ? "pass.srp" : "pass.sap");
    for (const auto& tasks : in.days) {
      if (!tasks.empty() && tasks.front().arrival < r.reported_makespan) {
        r.error = "a day's routes ran into the next day's arrivals";
      }
      Tracer::Scope run(tracer, is_srp ? "sim.run.srp" : "sim.run.sap");
      const sim::RunMetrics m = simulator.Run(tasks);
      r.reported_makespan = std::max(r.reported_makespan, m.makespan);
      r.failed += m.failed_queries;
      r.finished += m.finished_tasks;
      // The simulator samples RetainedBytes at its progress points: the
      // paper's MC series.
      if (is_srp) r.peak_retained = std::max(r.peak_retained, m.peak_mc_bytes);
    }
  }
  r.seconds = static_cast<double>(NowNs() - start) * 1e-9;
  r.cpu_seconds = ProcessCpuSeconds() - cpu_start;
  r.latency_us = probe.plan_latency_us();
  r.cpu_latency_us = probe.plan_cpu_us();
  r.attempted = static_cast<std::int64_t>(r.latency_us.size());
  r.routes = probe.planned();
  if (probe.batch_commits() != 0) {
    r.error = "simulator committed routes outside PlanRoute";
  }
  if (probe.failed() != r.failed) {
    r.error = "simulator and probe disagree on failed queries";
  }
  r.stats = probe.stats();
  r.fallback_s = probe.fallback_seconds();
  return r;
}

PassResult RunServicePass(const WorkloadSpec& spec, const Inputs& in,
                          core::Planner& planner, bool is_srp,
                          Tracer& tracer) {
  ProbePlanner probe(planner, tracer, is_srp ? kSrpNames : kSapNames,
                     /*keep_routes=*/false);
  // SRP's MC, read at as many points as the simulator samples per day.
  // The reads happen between waves and are left out of the pass time.
  if (is_srp) {
    probe.SampleRetainedEvery(std::max<std::int64_t>(
        1, static_cast<std::int64_t>(in.requests.size()) /
               sim::SimulatorOptions{}.sample_points));
  }
  service::ServiceOptions options;
  options.threads = spec.workers;

  PassResult r;
  const double cpu_start = ProcessCpuSeconds();
  const std::int64_t start = NowNs();
  std::optional<service::PlannerService> svc;
  {
    Tracer::Scope pass(tracer, is_srp ? "pass.srp" : "pass.sap");
    svc.emplace(probe, options);
    {
      Tracer::Scope submit(tracer, "service.submit");
      for (const auto& req : in.requests) svc->Submit(req);
    }
    Tracer::Scope drain(tracer,
                        is_srp ? "service.drain.srp" : "service.drain.sap");
    svc->RunUntilDrained();
  }
  r.seconds = static_cast<double>(NowNs() - start) * 1e-9 -
              probe.sample_seconds();
  r.cpu_seconds = ProcessCpuSeconds() - cpu_start - probe.sample_seconds();
  r.peak_retained = probe.peak_retained();
  r.untimed_s = probe.sample_seconds();

  const service::ServiceMetrics& m = svc->metrics();
  for (double ms : m.latency_ms) r.latency_us.push_back(ms * 1e3);
  r.attempted = static_cast<std::int64_t>(in.requests.size());
  r.failed = m.failed;
  r.finished = m.planned;
  r.waves = m.waves;
  r.speculated = m.speculated;
  r.invalidated = m.invalidated;
  r.shard_commits = m.shard_commits;
  r.shard_contentions = m.shard_contentions;
  r.shard_retries = m.shard_retries;
  if (m.planned + m.failed != r.attempted) {
    r.error = "service planned " + std::to_string(m.planned) + " and failed " +
              std::to_string(m.failed) + " of " +
              std::to_string(r.attempted) + " requests";
  }
  std::vector<PlannedQuery> queries;
  queries.reserve(in.requests.size());
  for (const auto& req : in.requests) {
    queries.push_back(
        PlannedQuery{req.release_time, req.origin, req.destination, {}});
  }
  std::int64_t unanswered = 0;
  const std::string match =
      MatchArchive(queries, svc->archive(), r.routes, unanswered);
  if (!match.empty()) {
    r.error = "service archive: " + match;
  } else if (unanswered != m.failed) {
    r.error = "service archive leaves " + std::to_string(unanswered) +
              " requests unanswered, the service reports " +
              std::to_string(m.failed) + " failed";
  }
  r.stats = probe.stats();
  r.fallback_s = probe.fallback_seconds();
  svc.reset();  // joins the pool workers
  return r;
}

// ---------------------------------------------------------------- rounds

struct Round {
  PassResult srp;
  PassResult sap;
  std::map<std::string, double> layers;  // traced runs
  // SRP's output totals, recomputed from its routes by the check.
  std::int64_t srp_route_steps = 0;
  TimeStep srp_makespan = 0;
  // Set-up breakdown (traced runs).
  double layout_s = 0, workload_s = 0, srp_build_s = 0, sap_build_s = 0;
  srp::SrpTimeBreakdown breakdown;
  srp::SegmentStoreStats store;
  std::size_t segments_peak = 0;
};

struct Planners {
  Inputs in;
  std::unique_ptr<srp::SrpPlanner> srp;
  std::unique_ptr<core::Planner> sap;
};

// Layout generation, input generation and construction of both planners:
// everything before the first query. Returns the wall time and, in
// *cpu_seconds, the process CPU time.
double SetUp(const WorkloadSpec& spec, const workload::Scenario& scenario,
             std::uint64_t seed, bool trace, Tracer& tracer, Planners& p,
             Round* round, double* cpu_seconds = nullptr) {
  const double cpu_start = ProcessCpuSeconds();
  const std::int64_t t0 = NowNs();
  {
    Tracer::Scope s(tracer, "layout.generate");
    p.in.warehouse = layout::GenerateWarehouse(scenario.layout);
  }
  const std::int64_t t1 = NowNs();
  {
    Tracer::Scope s(tracer, "workload.generate");
    GenerateInputs(spec, scenario, seed, p.in);
  }
  const std::int64_t t2 = NowNs();
  {
    Tracer::Scope s(tracer, "srp.build");
    srp::SrpPlannerOptions options;
    options.enable_time_breakdown = trace;
    p.srp = std::make_unique<srp::SrpPlanner>(p.in.warehouse.matrix, options);
  }
  const std::int64_t t3 = NowNs();
  {
    Tracer::Scope s(tracer, "sap.build");
    p.sap = baselines::MakePlanner("SAP", p.in.warehouse.matrix);
  }
  const std::int64_t t4 = NowNs();
  if (cpu_seconds != nullptr) *cpu_seconds = ProcessCpuSeconds() - cpu_start;
  if (round != nullptr) {
    round->layout_s = static_cast<double>(t1 - t0) * 1e-9;
    round->workload_s = static_cast<double>(t2 - t1) * 1e-9;
    round->srp_build_s = static_cast<double>(t3 - t2) * 1e-9;
    round->sap_build_s = static_cast<double>(t4 - t3) * 1e-9;
  }
  return static_cast<double>(t4 - t0) * 1e-9;
}

PassResult RunPass(const WorkloadSpec& spec, const Inputs& in,
                   core::Planner& planner, bool is_srp, Tracer& tracer) {
  return spec.kind == Kind::kService
             ? RunServicePass(spec, in, planner, is_srp, tracer)
             : RunSimPass(spec, in, planner, is_srp, tracer);
}

double TotalOf(const std::map<std::string, Tracer::NameTotals>& totals,
               const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0 : it->second.total_s;
}

void AddPlannerLayers(const char* suffix, const PassResult& p,
                      const std::map<std::string, Tracer::NameTotals>& totals,
                      bool simulator, std::map<std::string, double>& out) {
  const std::string sfx = suffix;
  const core::PlannerStats& s = p.stats;
  const std::int64_t lookups = s.heuristic_hits + s.heuristic_misses;
  out["core.heuristic.build_s." + sfx] = s.heuristic_build_seconds;
  out["core.heuristic.misses." + sfx] = static_cast<double>(s.heuristic_misses);
  out["core.heuristic.hits." + sfx] = static_cast<double>(s.heuristic_hits);
  out["core.heuristic.hit_ratio." + sfx] =
      lookups == 0 ? 0 : static_cast<double>(s.heuristic_hits) /
                             static_cast<double>(lookups);
  out["core.heuristic.evictions." + sfx] =
      static_cast<double>(s.heuristic_evictions);
  out["core.heuristic.rebuilds." + sfx] =
      static_cast<double>(s.heuristic_rebuilds);
  out["core.heuristic.cache_mib." + sfx] =
      static_cast<double>(s.heuristic_bytes) / kMiB;
  out["core.heuristic.prefetch_scheduled." + sfx] =
      static_cast<double>(s.heuristic_prefetch_scheduled);
  out["core.heuristic.prefetch_hits." + sfx] =
      static_cast<double>(s.heuristic_prefetch_hits);
  out["core.heuristic.prefetch_late." + sfx] =
      static_cast<double>(s.heuristic_prefetch_late);
  out["core.heuristic.prefetch_build_s." + sfx] =
      s.heuristic_prefetch_build_seconds;

  out["core.batch.speculated." + sfx] = static_cast<double>(p.speculated);
  out["core.batch.invalidated." + sfx] = static_cast<double>(p.invalidated);
  out["core.batch.kept_ratio." + sfx] =
      p.speculated == 0 ? 0
                        : static_cast<double>(p.speculated - p.invalidated) /
                              static_cast<double>(p.speculated);
  out["core.batch.shard_commits." + sfx] =
      static_cast<double>(p.shard_commits);
  out["core.batch.shard_contentions." + sfx] =
      static_cast<double>(p.shard_contentions);
  out["core.batch.shard_retries." + sfx] =
      static_cast<double>(p.shard_retries);

  // Service upkeep is the retirement and pruning the service does between
  // waves: the probe's release and prune spans. The rest of the drain,
  // less the probe's own stats and MC reads, is wave time.
  const double upkeep =
      TotalOf(totals, sfx + ".release") + TotalOf(totals, sfx + ".prune");
  const double drain = TotalOf(totals, "service.drain." + sfx);
  const double probe_reads =
      TotalOf(totals, sfx + ".read_stats") + p.untimed_s;
  out["service.waves." + sfx] = static_cast<double>(p.waves);
  out["service.wave_s." + sfx] =
      simulator ? 0 : std::max(0.0, drain - upkeep - probe_reads);
  out["service.upkeep_s." + sfx] = simulator ? 0 : upkeep;

  // Simulator orchestration: the day runs' self time, i.e. their wall time
  // minus the planner calls made inside them.
  const auto it = totals.find("sim.run." + sfx);
  out["sim.overhead_s." + sfx] =
      simulator && it != totals.end() ? it->second.self_s : 0;
}

std::map<std::string, double> LayerMetrics(const Round& round,
                                           const Tracer& tracer,
                                           bool simulator) {
  const auto totals = tracer.Totals();
  std::map<std::string, double> m;
  m["layout.generate_s"] = round.layout_s;
  m["workload.generate_s"] = round.workload_s;
  m["srp.build_s"] = round.srp_build_s;
  m["baselines.sap.build_s"] = round.sap_build_s;

  const core::PlannerStats& s = round.srp.stats;
  m["srp.queries"] = static_cast<double>(s.queries);
  m["srp.plan_s"] =
      TotalOf(totals, "srp.plan") + TotalOf(totals, "srp.query");
  m["srp.inter_s"] = round.breakdown.inter_seconds;
  m["srp.intra_s"] = round.breakdown.intra_seconds;
  m["srp.conversion_s"] = round.breakdown.conversion_seconds;
  m["srp.static_path_hits"] = static_cast<double>(s.static_path_hits);
  m["srp.fallbacks"] = static_cast<double>(s.fallbacks);
  m["srp.fallback_s"] = round.srp.fallback_s;
  m["srp.expanded_nodes"] = static_cast<double>(s.expanded_nodes);
  m["srp.store.candidates_examined"] =
      static_cast<double>(round.store.candidates_examined);
  m["srp.store.blocks_scanned"] =
      static_cast<double>(round.store.blocks_scanned);
  m["srp.store.blocks_skipped"] =
      static_cast<double>(round.store.blocks_skipped);
  const std::int64_t blocks =
      round.store.blocks_scanned + round.store.blocks_skipped;
  m["srp.store.block_skip_ratio"] =
      blocks == 0 ? 0 : static_cast<double>(round.store.blocks_skipped) /
                            static_cast<double>(blocks);
  m["srp.store.lanes_processed"] =
      static_cast<double>(round.store.lanes_processed);
  m["srp.store.lanes_survived"] =
      static_cast<double>(round.store.lanes_survived);
  m["srp.segments_peak"] = static_cast<double>(round.segments_peak);
  m["srp.release_s"] = TotalOf(totals, "srp.release");
  m["srp.prune_s"] = TotalOf(totals, "srp.prune");
  m["srp.store.tombstones"] = static_cast<double>(round.store.tombstones);
  m["srp.store.compactions"] = static_cast<double>(round.store.compactions);

  const core::PlannerStats& a = round.sap.stats;
  m["baselines.sap.plan_s"] =
      TotalOf(totals, "sap.plan") + TotalOf(totals, "sap.query");
  m["baselines.sap.expanded_nodes"] = static_cast<double>(a.expanded_nodes);
  m["baselines.sap.intervals_built"] = static_cast<double>(a.intervals_built);
  m["baselines.sap.release_s"] = TotalOf(totals, "sap.release");
  m["baselines.sap.prune_s"] = TotalOf(totals, "sap.prune");

  AddPlannerLayers("srp", round.srp, totals, simulator, m);
  AddPlannerLayers("sap", round.sap, totals, simulator, m);
  return m;
}

// The per-layer metric names of a workload, in report order. The service
// workloads add the prefetch and service metrics, and service-w1 (2
// workers) the core.batch ones: PlanBatch plans a 1-worker wave serially.
// BENCHMARK.json lists the simulator workloads' set, since it lists no
// service workload.
std::vector<std::pair<std::string, std::string>> LayerUnits(
    const WorkloadSpec& spec) {
  std::vector<std::pair<std::string, std::string>> units = {
      {"layout.generate_s", "s"},
      {"workload.generate_s", "s"},
      {"srp.build_s", "s"},
      {"baselines.sap.build_s", "s"},
      {"srp.queries", "count"},
      {"srp.plan_s", "s"},
      {"srp.inter_s", "s"},
      {"srp.intra_s", "s"},
      {"srp.conversion_s", "s"},
      {"srp.static_path_hits", "count"},
      {"srp.fallbacks", "count"},
      {"srp.fallback_s", "s"},
      {"srp.expanded_nodes", "count"},
      {"srp.store.candidates_examined", "count"},
      {"srp.store.blocks_scanned", "count"},
      {"srp.store.blocks_skipped", "count"},
      {"srp.store.block_skip_ratio", "ratio"},
      {"srp.store.lanes_processed", "count"},
      {"srp.store.lanes_survived", "count"},
      {"srp.segments_peak", "count"},
      {"srp.release_s", "s"},
      {"srp.prune_s", "s"},
      {"srp.store.tombstones", "count"},
      {"srp.store.compactions", "count"},
      {"baselines.sap.plan_s", "s"},
      {"baselines.sap.expanded_nodes", "count"},
      {"baselines.sap.intervals_built", "count"},
      {"baselines.sap.release_s", "s"},
      {"baselines.sap.prune_s", "s"},
  };
  const std::vector<std::pair<std::string, std::string>> shared = {
      {"core.heuristic.build_s", "s"},
      {"core.heuristic.misses", "count"},
      {"core.heuristic.hits", "count"},
      {"core.heuristic.hit_ratio", "ratio"},
      {"core.heuristic.evictions", "count"},
      {"core.heuristic.rebuilds", "count"},
      {"core.heuristic.cache_mib", "MiB"},
      {"core.heuristic.prefetch_scheduled", "count"},
      {"core.heuristic.prefetch_hits", "count"},
      {"core.heuristic.prefetch_late", "count"},
      {"core.heuristic.prefetch_build_s", "s"},
      {"core.batch.speculated", "count"},
      {"core.batch.invalidated", "count"},
      {"core.batch.kept_ratio", "ratio"},
      {"core.batch.shard_commits", "count"},
      {"core.batch.shard_contentions", "count"},
      {"core.batch.shard_retries", "count"},
      {"service.waves", "count"},
      {"service.wave_s", "s"},
      {"service.upkeep_s", "s"},
      {"sim.overhead_s", "s"},
  };
  for (const char* sfx : {"srp", "sap"}) {
    for (const auto& [name, unit] : shared) {
      const bool service_only = name.rfind("core.heuristic.prefetch", 0) == 0 ||
                                name.rfind("service.", 0) == 0;
      const bool batch = name.rfind("core.batch.", 0) == 0;
      if (service_only && spec.kind != Kind::kService) continue;
      if (batch && spec.workers < 2) continue;
      units.emplace_back(name + "." + sfx, unit);
    }
  }
  return units;
}

// ---------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;
  bool self_test = false;
};

bool ParseArgs(int argc, char** argv, Args& args, std::string& error) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      error = "missing value for " + arg;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && args.seconds > 0 &&
                     args.seconds <= 3600;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (arg == "--trace-dir") {
      args.trace_dir = value;
    } else {
      error = "unknown argument " + arg;
      return false;
    }
  }
  if (args.self_test) return true;
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    error =
        "usage: day_bench --workload NAME --seed N --seconds S --trace 0|1 "
        "[--trace-dir DIR] | --self-test";
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, args, error)) {
    std::cerr << "day_bench: " << error << "\n";
    return 2;
  }
  // Every CARP_FORCE_* variable selects a non-default dispatch path.
  for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
    if (std::strncmp(*env, "CARP_FORCE_", 11) == 0) {
      std::cerr << "day_bench: refusing to run with " << *env
                << " set; the benchmark measures default dispatch\n";
      return 2;
    }
  }
  const std::string self_test = SelfTest();
  if (!self_test.empty()) {
    std::cerr << "day_bench: output check self-test failed: " << self_test
              << "\n";
    return 3;
  }
  if (args.self_test) {
    std::cerr << "day_bench: output check self-test passed\n";
    return 0;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::cerr << "day_bench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const bool simulator = spec->kind != Kind::kService;
  const workload::Scenario scenario = ScenarioOf(*spec);

  // The checker's own copy of the layout, built outside any timing.
  const layout::Warehouse check_layout =
      layout::GenerateWarehouse(scenario.layout);
  StaticDistances distances(check_layout.matrix);

  Tracer tracer(args.trace);
  std::vector<Round> rounds;
  std::vector<double> setup_samples, setup_wall_samples;
  std::string resolved_kernel, resolved_engine;
  std::int64_t checked_routes = 0;
  std::int64_t check_ns = 0;
  bool correct = true;
  std::string failure;

  const auto ticks_before = StealAndTotalTicks();
  const std::int64_t run_start = NowNs();
  const double budget_ns = args.seconds * 1e9;
  double longest_round_ns = 0;
  // Set-up samples come first, back to back, after one untimed warm-up
  // that takes a fresh process's first-touch page faults. Every sample is
  // then taken under the same conditions, none right after a pass.
  {
    Tracer quiet(false);
    for (std::size_t i = 0; i <= kSetupSamples; ++i) {
      Planners p;
      double cpu_seconds = 0;
      const double seconds =
          SetUp(*spec, scenario, RoundSeed(args.seed, i), false, quiet, p,
                nullptr, &cpu_seconds);
      if (i > 0) {
        setup_samples.push_back(cpu_seconds);
        setup_wall_samples.push_back(seconds);
      }
    }
  }
  while (rounds.empty() ||
         static_cast<double>(NowNs() - run_start) + longest_round_ns <=
             budget_ns) {
    const std::int64_t round_start = NowNs();
    Round round;
    Planners p;
    SetUp(*spec, scenario, RoundSeed(args.seed, rounds.size()), args.trace,
          tracer, p, &round);
    // Alternate which algorithm runs first so slow drift of the host
    // lands on both sides.
    const bool srp_first = rounds.size() % 2 == 0;
    for (int k = 0; k < 2; ++k) {
      if ((k == 0) == srp_first) {
        round.srp = RunPass(*spec, p.in, *p.srp, /*is_srp=*/true, tracer);
      } else {
        round.sap = RunPass(*spec, p.in, *p.sap, /*is_srp=*/false, tracer);
      }
    }
    round.breakdown = p.srp->time_breakdown();
    round.store = p.srp->StoreStats();
    round.segments_peak = p.srp->peak_segment_count();
    resolved_kernel = core::ToString(round.srp.stats.collision_kernel);
    resolved_engine = core::ToString(round.srp.stats.search_engine);
    // Free both planners and their table caches before the check, so the
    // checker's own memory stays under the planners' peak in ru_maxrss.
    p.srp.reset();
    p.sap.reset();

    // Output check, untimed.
    for (PassResult* pass : {&round.srp, &round.sap}) {
      const char* who = pass == &round.srp ? "SRP" : "SAP";
      if (!pass->error.empty()) {
        correct = false;
        failure = std::string(who) + ": " + pass->error;
        break;
      }
      const std::int64_t check_start = NowNs();
      const CheckReport report =
          CheckRoutes(check_layout.matrix, pass->routes, distances);
      check_ns += NowNs() - check_start;
      checked_routes += report.routes;
      if (!report.ok()) {
        correct = false;
        failure = std::string(who) + ": " + report.first_violation;
        break;
      }
      if (report.routes != pass->attempted - pass->failed) {
        correct = false;
        failure = std::string(who) + ": " + std::to_string(report.routes) +
                  " routes for " +
                  std::to_string(pass->attempted - pass->failed) +
                  " planned queries";
        break;
      }
      if (simulator && report.makespan != pass->reported_makespan) {
        correct = false;
        failure = std::string(who) + ": makespan " +
                  std::to_string(report.makespan) +
                  " recomputed from routes, simulator reports " +
                  std::to_string(pass->reported_makespan);
        break;
      }
      if (pass == &round.srp) {
        round.srp_route_steps = report.route_steps;
        round.srp_makespan = report.makespan;
      }
      pass->routes = {};
    }
    if (!correct) break;

    if (args.trace) {
      if (rounds.empty() && !args.trace_dir.empty()) {
        const std::string path = args.trace_dir + "/" + spec->name + "-seed" +
                                 std::to_string(args.seed) + ".spans.jsonl";
        if (!tracer.WriteJsonLines(path)) {
          std::cerr << "day_bench: cannot write " << path << "\n";
          return 1;
        }
      }
      round.layers = LayerMetrics(round, tracer, simulator);
      tracer.Clear();
    }
    rounds.push_back(std::move(round));
    longest_round_ns = std::max(
        longest_round_ns, static_cast<double>(NowNs() - round_start));
  }

  const auto ticks_after = StealAndTotalTicks();
  const double ticks = ticks_after.second - ticks_before.second;
  const double steal_share =
      ticks > 0 ? (ticks_after.first - ticks_before.first) / ticks : 0;

  std::int64_t attempted = 0, failed = 0, finished = 0;
  std::vector<double> srp_tc, sap_tc, srp_cpu, sap_cpu, peak_mc, makespan,
      steps;
  // Percentiles over every SRP sample of the run: a round alone leaves only
  // its 15 or so slowest queries beyond p99.
  std::vector<double> latency_us, cpu_latency_us;
  for (const Round& r : rounds) {
    attempted += r.srp.attempted + r.sap.attempted;
    failed += r.srp.failed + r.sap.failed;
    finished += r.srp.finished + r.sap.finished;
    latency_us.insert(latency_us.end(), r.srp.latency_us.begin(),
                      r.srp.latency_us.end());
    cpu_latency_us.insert(cpu_latency_us.end(), r.srp.cpu_latency_us.begin(),
                          r.srp.cpu_latency_us.end());
    srp_tc.push_back(r.srp.seconds);
    sap_tc.push_back(r.sap.seconds);
    srp_cpu.push_back(r.srp.cpu_seconds);
    sap_cpu.push_back(r.sap.cpu_seconds);
    peak_mc.push_back(static_cast<double>(r.srp.peak_retained) / kMiB);
    makespan.push_back(static_cast<double>(r.srp_makespan));
    steps.push_back(static_cast<double>(r.srp_route_steps));
  }

  // Run record: one JSON line ahead of the result.
  std::cout << "{\"record\": {\"workload\": \"" << spec->name
            << "\", \"seed\": " << args.seed
            << ", \"trace\": " << (args.trace ? 1 : 0)
            << ", \"rounds\": " << rounds.size()
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"finished\": " << finished
            << ", \"finished_unit\": \""
            << (simulator ? "tasks" : "requests") << "\""
            << ", \"checked_routes\": " << checked_routes
            << ", \"check_s\": " << Num(static_cast<double>(check_ns) * 1e-9)
            << ", \"srp_latency_samples\": " << latency_us.size()
            << ", \"srp_query_wall_p50_us\": "
            << Num(Quantile(latency_us, 0.50))
            << ", \"srp_query_wall_p99_us\": "
            << Num(Quantile(latency_us, 0.99))
            << ", \"setup_samples\": " << setup_samples.size()
            << ", \"host_steal_share\": " << Num(steal_share)
            << ", \"hardware_concurrency\": "
            << std::thread::hardware_concurrency()
            << ", \"collision_kernel\": \"" << resolved_kernel
            << "\", \"search_queue\": \""
            << core::ToString(
                   core::ResolveSearchQueue(core::SearchQueue::kAuto))
            << "\", \"search_engine\": \"" << resolved_engine
            << "\", \"heuristic\": \""
            << core::ToString(srp::SrpPlannerOptions{}.heuristic) << "\""
            << ", \"service_workers\": "
            << spec->workers
            << ", \"round_srp_tc_s\": " << JsonList(srp_tc)
            << ", \"round_sap_tc_s\": " << JsonList(sap_tc)
            << ", \"round_srp_cpu_s\": " << JsonList(srp_cpu)
            << ", \"round_sap_cpu_s\": " << JsonList(sap_cpu)
            << ", \"setup_s_samples\": " << JsonList(setup_samples)
            << ", \"setup_wall_s_samples\": " << JsonList(setup_wall_samples)
            << (correct ? "" : ", \"error\": \"see stderr\"") << "}}\n";
  if (!correct) {
    std::cerr << "day_bench: output check failed: " << failure << "\n";
    return 1;
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    // The simulator's passes run on one thread, so their CPU time is the
    // wall time they would take on an idle host; it leaves out the slices
    // other work and the hypervisor took. A service pass waits on its pool
    // and its latency is a wave's wall time, so it keeps wall times.
    if (simulator) {
      metrics = {
          {"setup_s", Median(setup_samples), "s"},
          {"srp_tc_cpu_s", Median(srp_cpu), "s"},
          {"sap_tc_cpu_s", Median(sap_cpu), "s"},
          {"srp_query_cpu_p50_us", Quantile(cpu_latency_us, 0.50), "us"},
          {"srp_query_cpu_p99_us", Quantile(cpu_latency_us, 0.99), "us"},
      };
    } else {
      metrics = {
          {"setup_s", Median(setup_samples), "s"},
          {"srp_tc_s", Median(srp_tc), "s"},
          {"sap_tc_s", Median(sap_tc), "s"},
          {"srp_query_p50_us", Quantile(latency_us, 0.50), "us"},
          {"srp_query_p99_us", Quantile(latency_us, 0.99), "us"},
      };
    }
    metrics.insert(metrics.end(), {
        {"srp_makespan", Median(makespan), "steps"},
        {"srp_route_steps", Median(steps), "steps"},
        {"srp_peak_mc_mib", Median(peak_mc), "MiB"},
        {"peak_rss_mib", PeakRssMiB(), "MiB"},
    });
  } else {
    for (const auto& [name, unit] : LayerUnits(*spec)) {
      std::vector<double> values;
      for (const Round& r : rounds) {
        const auto it = r.layers.find(name);
        values.push_back(it == r.layers.end() ? 0 : it->second);
      }
      metrics.push_back(Metric{name, Median(values), unit});
    }
    if (!args.trace_dir.empty()) {
      const std::string path = args.trace_dir + "/" + spec->name + "-seed" +
                               std::to_string(args.seed) + ".layers.json";
      std::ofstream out(path);
      out << "{\"workload\": \"" << spec->name << "\", \"seed\": "
          << args.seed << ", \"srp_tc_s\": " << Num(Median(srp_tc))
          << ", \"sap_tc_s\": " << Num(Median(sap_tc))
          << ", \"metrics\": " << MetricsJson(metrics) << "}\n";
      if (!out) {
        std::cerr << "day_bench: cannot write " << path << "\n";
        return 1;
      }
    }
  }
  std::cout << "{\"correct\": true, \"attempted\": " << attempted
            << ", \"failed\": " << failed
            << ", \"metrics\": " << MetricsJson(metrics) << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace carp::perfbench

int main(int argc, char** argv) { return carp::perfbench::Main(argc, argv); }
