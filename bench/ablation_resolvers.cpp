// Ablation — alarm resolution back-ends (Section 4.4 and related work):
// the oracle (the simulation-section assumption), a DNS MOASRR service that
// is often unavailable, the IRR registry with stale records, and no resolver
// at all (alarm-only monitoring). Forged DNS answers are not swept here; the
// ExperimentGolden tests pin that path. The second section replays a
// seeded registry-outage schedule against the asynchronous resolution path
// and gates the fault-tolerance contract: no alarm lost, bounded settle
// latency, hardened strictly better than naive fail-fast.
#include <iostream>
#include <numeric>

#include "bench_util.h"
#include "moas/util/strings.h"

using namespace moas;
using namespace moas::bench;

namespace {

core::SweepPoint run(const topo::AsGraph& graph, core::ExperimentConfig config,
                     std::size_t jobs) {
  config.deployment = core::Deployment::Full;
  core::Experiment experiment(graph, config);
  util::Rng rng(5);
  return experiment.run_point(0.15, kOriginSets, kAttackerSets, rng, jobs);
}

struct ArmResult {
  core::SweepPoint point;
  std::vector<core::RunResult> runs;

  std::size_t total(std::size_t core::RunResult::* field) const {
    return std::accumulate(runs.begin(), runs.end(), std::size_t{0},
                           [&](std::size_t sum, const core::RunResult& r) {
                             return sum + r.*field;
                           });
  }
  double mean_settle_latency() const {
    const obs::FixedHistogram* settle =
        point.metrics.find_histogram("detector.alarm_settle_latency");
    return settle == nullptr ? 0.0 : settle->mean();
  }
  std::string outage_schedule() const {
    std::string all;
    for (const core::RunResult& r : runs) all += r.outage_log;
    return all;
  }
};

/// Like run(), but keeps the per-run results so the gates can look at alarm
/// lifecycles and outage replay logs, not just point means.
ArmResult run_arm(const topo::AsGraph& graph, core::ExperimentConfig config,
                  std::size_t jobs) {
  config.deployment = core::Deployment::Full;
  core::Experiment experiment(graph, config);
  util::Rng rng(5);
  const core::SweepPlan plan =
      experiment.plan_sweep({0.15}, kOriginSets, kAttackerSets, rng);
  util::ThreadPool pool(jobs);
  ArmResult arm;
  arm.runs = experiment.execute_plan(plan, pool);
  arm.point = experiment.reduce_plan(plan, arm.runs).front();
  return arm;
}

/// The DNS-under-outage scenario every outage-regime arm shares: a flaky
/// DNS MOASRR backend resolved through `async` (optionally backed by an IRR
/// fallback source), and (when `with_outage`) seeded registry outage
/// windows plus latency spikes replayed against the resolution chain.
core::ExperimentConfig outage_scenario(const core::AsyncResolver::Config& async,
                                       bool fallback_irr, bool with_outage) {
  core::AsyncResolution resolution{.resolver = async};
  if (fallback_irr) resolution.fallback_irr = core::IrrBackend{};
  if (with_outage) {
    chaos::RegistryOutageConfig outage;
    outage.outages = 8.0;
    outage.outage_mean = 12.0;
    outage.spikes = 3.0;
    outage.spike_factor = 5.0;
    resolution.outage = outage;
  }
  core::ExperimentConfig config;
  config.engine = core::EventRun{.async_resolution = resolution,
                                 .trace_level = obs::TraceLevel::Summary};
  config.resolver = core::DnsBackend{.unavailability = 0.3};
  return config;
}

core::AsyncResolver::Config hardened_async() {
  return core::AsyncResolver::Config{};  // retries + breaker + stale cache on
}

core::AsyncResolver::Config naive_async() {
  core::AsyncResolver::Config config;
  config.source.max_attempts = 1;     // no retries
  config.source.breaker_threshold = 0;  // no breaker
  config.stale_cache = false;         // no last-resort answers
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t jobs = bench_jobs(argc, argv);
  const topo::AsGraph& graph = paper_topology(460);

  std::cout << "=== Ablation: origin-resolution back-ends (Sec 4.4) ===\n";
  std::cout << "paper: DNS-based checking is proposed but 'DNS operations rely on the "
               "routing to function correctly' and IRR records are 'outdated or "
               "inaccurate'\n\n";

  util::TablePrinter table({"resolver", "adopting_false_pct", "no_route_pct",
                            "alarms_per_run"});

  {
    core::ExperimentConfig config;
    config.resolver = core::OracleBackend{};
    const auto p = run(graph, config, jobs);
    table.add_row({"oracle (paper's assumption)",
                   util::fmt_double(p.mean_adopted_false * 100.0, 2),
                   util::fmt_double(p.mean_no_route * 100.0, 2),
                   util::fmt_double(p.mean_alarms, 1)});
  }
  for (double unavail : {0.25, 0.5, 0.9}) {
    core::ExperimentConfig config;
    config.resolver = core::DnsBackend{.unavailability = unavail};
    const auto p = run(graph, config, jobs);
    table.add_row({"dns, " + util::fmt_double(unavail * 100.0, 0) + "% unavailable",
                   util::fmt_double(p.mean_adopted_false * 100.0, 2),
                   util::fmt_double(p.mean_no_route * 100.0, 2),
                   util::fmt_double(p.mean_alarms, 1)});
  }
  for (double stale : {0.25, 0.75}) {
    core::ExperimentConfig config;
    config.resolver = core::IrrBackend{.staleness = stale};
    const auto p = run(graph, config, jobs);
    table.add_row({"irr, " + util::fmt_double(stale * 100.0, 0) + "% stale records",
                   util::fmt_double(p.mean_adopted_false * 100.0, 2),
                   util::fmt_double(p.mean_no_route * 100.0, 2),
                   util::fmt_double(p.mean_alarms, 1)});
  }
  {
    core::ExperimentConfig config;
    config.resolver = core::AlarmOnly{};
    const auto p = run(graph, config, jobs);
    table.add_row({"none (alarm-only monitoring)",
                   util::fmt_double(p.mean_adopted_false * 100.0, 2),
                   util::fmt_double(p.mean_no_route * 100.0, 2),
                   util::fmt_double(p.mean_alarms, 1)});
  }
  table.print(std::cout);
  std::cout << "\ndetection is only as good as conflict resolution: a degraded DNS or "
               "stale IRR pushes the residual toward the alarm-only (plain-BGP-like) "
               "level, while alarms keep firing either way.\n";

  std::cout << "\n=== Outage regime: asynchronous resolution under registry outages ===\n";
  std::cout << "seeded outage windows take the registry sources down while conflicts "
               "are in flight; 'hardened' rides them out with retries, a circuit "
               "breaker, an IRR fallback and a stale cache, 'fail-fast' gives each "
               "conflict a single attempt.\n\n";

  const ArmResult baseline = run_arm(
      graph, outage_scenario(hardened_async(), /*fallback_irr=*/true, /*with_outage=*/false),
      jobs);
  const ArmResult naive = run_arm(
      graph, outage_scenario(naive_async(), /*fallback_irr=*/false, /*with_outage=*/true),
      jobs);
  const ArmResult hardened = run_arm(
      graph, outage_scenario(hardened_async(), /*fallback_irr=*/true, /*with_outage=*/true),
      jobs);

  util::TablePrinter outage_table({"arm", "adopted_false", "expired_alarms",
                                   "pending_alarms", "settle_mean_s"});
  const auto add_arm = [&](const std::string& label, const ArmResult& arm) {
    outage_table.add_row({label,
                          std::to_string(arm.total(&core::RunResult::adopted_false)),
                          std::to_string(arm.total(&core::RunResult::alarms_expired)),
                          std::to_string(arm.total(&core::RunResult::alarms_pending)),
                          util::fmt_double(arm.mean_settle_latency(), 3)});
  };
  add_arm("hardened, no outage", baseline);
  add_arm("fail-fast + outage", naive);
  add_arm("hardened + outage", hardened);
  outage_table.print(std::cout);

  // Gate 1 — zero lost alarms: every alarm settles (Resolved or Expired) by
  // quiescence in every arm; a Pending alarm at the end is a silent drop.
  bool ok = true;
  for (const auto* arm : {&baseline, &naive, &hardened}) {
    if (arm->total(&core::RunResult::alarms_pending) != 0) {
      std::cerr << "FAIL: pending alarms survived to quiescence — an alarm was "
                   "silently dropped\n";
      ok = false;
    }
  }

  // Gate 2 — the comparison is fair: both outage arms replayed byte-identical
  // outage schedules (same seeds, same windows).
  if (naive.outage_schedule() != hardened.outage_schedule() ||
      naive.outage_schedule().empty()) {
    std::cerr << "FAIL: outage arms saw different (or empty) fault schedules — the "
                 "hardening comparison is meaningless\n";
    ok = false;
  }

  // Gate 3 — hardening pays: under the identical outage schedule, the
  // hardened chain must strictly beat naive fail-fast on residual damage.
  const std::size_t naive_false = naive.total(&core::RunResult::adopted_false);
  const std::size_t hardened_false = hardened.total(&core::RunResult::adopted_false);
  if (hardened_false >= naive_false) {
    std::cerr << "FAIL: hardened resolution (" << hardened_false
              << " adopted-false) is not strictly better than fail-fast ("
              << naive_false << ") under the same outage schedule\n";
    ok = false;
  }

  // Gate 4 — bounded inflation: riding out outages may delay settlement, but
  // never by more than the per-request deadline on average.
  const double budget = hardened_async().request_deadline;
  if (hardened.mean_settle_latency() > baseline.mean_settle_latency() + budget) {
    std::cerr << "FAIL: outage inflated mean settle latency from "
              << baseline.mean_settle_latency() << "s to "
              << hardened.mean_settle_latency() << "s — beyond the " << budget
              << "s request deadline\n";
    ok = false;
  }

  if (!ok) return 1;
  std::cout << "\ngates passed: no alarm lost in any arm, identical outage schedules "
               "across arms, hardened < fail-fast on adopted-false ("
            << hardened_false << " vs " << naive_false
            << "), settle-latency inflation within the request deadline.\n";
  return 0;
}
