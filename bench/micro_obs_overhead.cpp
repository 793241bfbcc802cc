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
//   micro_obs_overhead [--smoke] [--gate] [--reps N] [--jobs N] [--out PATH]
//
// --smoke shrinks the sweep so CI finishes in seconds; --gate enforces the
// 2% Summary budget (off by default: shared CI runners time too noisily to
// gate unconditionally); --reps sets the repetitions per level (the best
// rep is scored, which filters scheduler noise); --out overrides the
// BENCH_obs.json path. Runs execute serially (jobs fixed at 1) so the
// timing measures per-run cost, not pool scheduling.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "moas/util/strings.h"

using namespace moas;
using namespace moas::bench;

namespace {

struct LevelResult {
  obs::TraceLevel level = obs::TraceLevel::Off;
  double best_seconds = 0.0;
  double overhead_pct = 0.0;  // vs the Off baseline
  std::vector<core::SweepPoint> points;
};

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

std::string json_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool gate = false;
  std::size_t reps = 3;
  std::string out_path = "BENCH_obs.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    if (arg == "--gate") gate = true;
    if (arg == "--reps" && i + 1 < argc) reps = std::strtoul(argv[i + 1], nullptr, 10);
    if (arg == "--out" && i + 1 < argc) out_path = argv[i + 1];
  }
  if (reps == 0) reps = 1;
  if (smoke) reps = std::min<std::size_t>(reps, 2);

  const topo::AsGraph& graph = paper_topology(250);
  const std::vector<double> fractions =
      smoke ? std::vector<double>{0.05, 0.20} : std::vector<double>{0.05, 0.20, 0.30};
  const std::size_t origin_sets = smoke ? 2 : kOriginSets;
  const std::size_t attacker_sets = smoke ? 2 : kAttackerSets;
  const std::size_t total_runs = fractions.size() * origin_sets * attacker_sets;
  constexpr std::uint64_t kSeed = 2501;

  std::cout << "=== Micro: observability overhead (" << graph.node_count() << "-AS, "
            << total_runs << " runs/level, best of " << reps << (smoke ? ", smoke" : "")
            << ") ===\n";
  std::cout << "trace compiled " << (obs::kTraceCompiledIn ? "in" : "OUT (MOAS_OBS_TRACE=OFF)")
            << "; Summary budget: < 2% over the Off baseline\n\n";

  const std::vector<obs::TraceLevel> levels = {
      obs::TraceLevel::Off, obs::TraceLevel::Summary, obs::TraceLevel::Full};
  std::vector<LevelResult> results;
  for (const obs::TraceLevel level : levels) {
    core::ExperimentConfig config;
    config.num_origins = 1;
    config.deployment = core::Deployment::Full;
    config.engine = core::EventRun{.trace_level = level};
    core::Experiment experiment(graph, config);

    LevelResult result;
    result.level = level;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      util::Rng rng(kSeed);  // identical plan every rep and every level
      const auto start = std::chrono::steady_clock::now();
      std::vector<core::SweepPoint> points =
          experiment.sweep(fractions, origin_sets, attacker_sets, rng, /*jobs=*/1);
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (rep == 0 || elapsed.count() < result.best_seconds) {
        result.best_seconds = elapsed.count();
      }
      if (rep == 0) result.points = std::move(points);
    }
    if (!results.empty()) {
      const double baseline = results.front().best_seconds;
      result.overhead_pct = (result.best_seconds - baseline) / baseline * 100.0;
    }
    results.push_back(std::move(result));
  }

  bool outcomes_ok = true;
  util::TablePrinter table({"trace_level", "best_seconds", "runs_per_sec", "overhead_pct"});
  for (const LevelResult& result : results) {
    table.add_row({obs::to_string(result.level), util::fmt_double(result.best_seconds, 3),
                   util::fmt_double(static_cast<double>(total_runs) / result.best_seconds, 2),
                   util::fmt_double(result.overhead_pct, 2)});
    if (!outcomes_identical(results.front().points, result.points)) {
      outcomes_ok = false;
      std::cerr << "FAIL: sweep outcomes at trace level " << obs::to_string(result.level)
                << " differ from the untraced baseline — the observer perturbed "
                   "the experiment\n";
    }
  }
  table.print(std::cout);
  bool ok = outcomes_ok;

  const double summary_overhead = results[1].overhead_pct;
  if (gate && obs::kTraceCompiledIn && summary_overhead > 2.0) {
    ok = false;
    std::cerr << "FAIL: Summary-level tracing costs " << util::fmt_double(summary_overhead, 2)
              << "% — over the 2% budget\n";
  }

  // Manifest: the timings plus one merged registry snapshot (the Summary
  // run's first sweep point), so CI archives both the overhead numbers and
  // a full example of the exported metrics schema.
  std::ofstream out(out_path);
  out << "{\n";
  out << "  \"bench\": \"micro_obs_overhead\",\n";
  out << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n";
  out << "  \"trace_compiled_in\": " << (obs::kTraceCompiledIn ? "true" : "false") << ",\n";
  out << "  \"topology_ases\": " << graph.node_count() << ",\n";
  out << "  \"total_runs\": " << total_runs << ",\n";
  out << "  \"reps\": " << reps << ",\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    out << "    {\"trace_level\": \"" << obs::to_string(results[i].level)
        << "\", \"best_seconds\": " << json_double(results[i].best_seconds)
        << ", \"overhead_pct\": " << json_double(results[i].overhead_pct) << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"outcomes_identical\": " << (outcomes_ok ? "true" : "false") << ",\n";
  out << "  \"summary_metrics\": " << results[1].points.front().metrics.to_json() << "\n";
  out << "}\n";
  out.close();
  std::cout << "\nwrote " << out_path << "\n";

  if (!ok) {
    std::cerr << "\nOBS OVERHEAD BENCH FAILED\n";
    return EXIT_FAILURE;
  }
  std::cout << "tracing leaves every swept outcome bit-identical; Summary overhead "
            << util::fmt_double(summary_overhead, 2) << "% vs the untraced baseline.\n";
  return 0;
}
