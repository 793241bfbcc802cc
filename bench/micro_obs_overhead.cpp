// Microbenchmark — observability overhead: run the identical sweep plan
// with the trace bus Off, at Summary, and at Full, and report the
// wall-clock delta. The budget: Summary-level tracing (what fig9 and the
// churn ablation enable for the latency histograms) must cost under 2% of
// the Off baseline; Off itself is a null-pointer check per potential event
// (and compiles to nothing with MOAS_OBS_TRACE=OFF).
//
// Also a correctness gate, always enforced: the swept outcomes (adoption /
// alarm / no-route scalars) must be bit-identical across levels — the
// observer must not perturb the experiment.
//
// Usage:
//   micro_obs_overhead [--smoke] [--gate] [--reps N]
//
// Each rep walks one sweep plan and runs every planned run at all three
// levels back to back, rotating which level goes first, so host load that
// drifts over the rep hits every level alike. A level's overhead is the
// median over reps of its summed run time in the rep divided by the Off
// sum of the same rep. --smoke runs a smaller plan (each level's sum per
// rep still over 0.5 s) so CI finishes in tens of seconds; --gate enforces
// the 2% Summary budget on that median; --reps sets the repetitions
// (minimum 5). Runs execute serially on one thread so the timing measures
// per-run cost, not pool scheduling.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "moas/util/stats.h"
#include "moas/util/strings.h"

using namespace moas;
using namespace moas::bench;

namespace {

/// Outcome identity across trace levels compares the swept scalars only:
/// the registries legitimately differ (Summary adds eviction-latency
/// samples Off cannot compute), but nothing the experiment *measures* may
/// move when an observer is attached.
bool outcomes_identical(const std::vector<core::SweepPoint>& a,
                        const std::vector<core::SweepPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const core::SweepPoint& x = a[i];
    const core::SweepPoint& y = b[i];
    if (x.attacker_fraction != y.attacker_fraction || x.runs != y.runs ||
        x.mean_adopted_false != y.mean_adopted_false ||
        x.stddev_adopted_false != y.stddev_adopted_false ||
        x.mean_affected != y.mean_affected || x.mean_no_route != y.mean_no_route ||
        x.mean_alarms != y.mean_alarms || x.mean_false_alarms != y.mean_false_alarms ||
        x.mean_structural_cutoff != y.mean_structural_cutoff) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool gate = false;
  std::size_t reps = 5;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    if (arg == "--gate") gate = true;
    if (arg == "--reps" && i + 1 < argc) reps = std::strtoul(argv[i + 1], nullptr, 10);
  }
  reps = std::max<std::size_t>(reps, 5);

  const topo::AsGraph& graph = paper_topology(250);
  const std::vector<double> fractions =
      smoke ? std::vector<double>{0.05, 0.20} : std::vector<double>{0.05, 0.20, 0.30};
  // 20 attacker sets keep each level's per-rep sum above 0.5 s on a 4-core
  // x86 VM even in smoke mode (~5 ms per run on the 250-AS topology).
  const std::size_t origin_sets = kOriginSets;
  const std::size_t attacker_sets = 20;
  const std::size_t total_runs = fractions.size() * origin_sets * attacker_sets;
  constexpr std::uint64_t kSeed = 2501;

  std::cout << "=== Micro: observability overhead (" << graph.node_count() << "-AS, "
            << total_runs << " runs/level, median of " << reps << " interleaved reps"
            << (smoke ? ", smoke" : "") << ") ===\n";
  std::cout << "trace compiled " << (obs::kTraceCompiledIn ? "in" : "OUT (MOAS_OBS_TRACE=OFF)")
            << "; Summary budget: < 2% over the Off baseline\n\n";

  constexpr std::array<obs::TraceLevel, 3> kLevels = {
      obs::TraceLevel::Off, obs::TraceLevel::Summary, obs::TraceLevel::Full};
  std::vector<core::Experiment> experiments;
  for (const obs::TraceLevel level : kLevels) {
    core::ExperimentConfig config;
    config.num_origins = 1;
    config.deployment = core::Deployment::Full;
    config.engine = core::EventRun{.trace_level = level};
    experiments.emplace_back(graph, config);
  }

  // One plan, drawn once: every level runs exactly the same placements.
  util::Rng rng(kSeed);
  const core::SweepPlan plan =
      experiments[0].plan_sweep(fractions, origin_sets, attacker_sets, rng);

  // Each rep walks the plan once and runs every planned run at all three
  // levels back to back, rotating which level goes first, so host speed
  // that drifts within a rep hits every level alike. seconds[level][rep] is
  // that level's summed run time in the rep; results[level] holds the
  // level's run results from the first rep.
  std::array<std::vector<double>, kLevels.size()> seconds;
  std::array<std::vector<core::RunResult>, kLevels.size()> results;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (auto& level_seconds : seconds) level_seconds.push_back(0.0);
    for (std::size_t i = 0; i < plan.runs.size(); ++i) {
      const core::PlannedRun& run = plan.runs[i];
      for (std::size_t k = 0; k < kLevels.size(); ++k) {
        const std::size_t level = (i + rep + k) % kLevels.size();
        const auto start = std::chrono::steady_clock::now();
        core::RunResult result = experiments[level].run_with(run.origins, run.attackers, run.seed);
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        seconds[level].back() += elapsed.count();
        if (rep == 0) results[level].push_back(std::move(result));
      }
    }
  }

  bool ok = true;
  std::array<double, kLevels.size()> overhead_pct{};
  util::TablePrinter table(
      {"trace_level", "median_seconds", "runs_per_sec", "median_overhead_pct"});
  for (std::size_t level = 0; level < kLevels.size(); ++level) {
    std::vector<double> ratios;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      ratios.push_back(seconds[level][rep] / seconds[0][rep]);
    }
    overhead_pct[level] = (util::median(ratios) - 1.0) * 100.0;
    const double median_seconds = util::median(seconds[level]);
    table.add_row({obs::to_string(kLevels[level]), util::fmt_double(median_seconds, 3),
                   util::fmt_double(static_cast<double>(total_runs) / median_seconds, 2),
                   util::fmt_double(overhead_pct[level], 2)});
    if (!outcomes_identical(experiments[0].reduce_plan(plan, results[0]),
                            experiments[level].reduce_plan(plan, results[level]))) {
      ok = false;
      std::cerr << "FAIL: sweep outcomes at trace level " << obs::to_string(kLevels[level])
                << " differ from the untraced baseline — the observer perturbed "
                   "the experiment\n";
    }
  }
  table.print(std::cout);

  const double summary_overhead = overhead_pct[1];
  if (gate && obs::kTraceCompiledIn && summary_overhead > 2.0) {
    ok = false;
    std::cerr << "FAIL: Summary-level tracing costs " << util::fmt_double(summary_overhead, 2)
              << "% — over the 2% budget\n";
  }

  if (!ok) {
    std::cerr << "\nOBS OVERHEAD BENCH FAILED\n";
    return EXIT_FAILURE;
  }
  std::cout << "\ntracing leaves every swept outcome bit-identical; Summary overhead "
            << util::fmt_double(summary_overhead, 2) << "% vs the untraced baseline.\n";
  return 0;
}
