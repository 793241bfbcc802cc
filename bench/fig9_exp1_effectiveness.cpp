// Figure 9 — Experiment 1: spoof-resilience of the MOAS-list scheme in the
// 460-AS topology. Two panels: (a) one valid origin AS, (b) two valid
// origin ASes; each compares Normal BGP against Full MOAS Detection over a
// sweep of the attacker percentage.
//
// Paper reference points (460-AS): at 4% attackers, Normal BGP >= ~36% vs
// ~0.15% with detection; at 30% attackers, ~51%+ vs ~9.8%.
#include "bench_util.h"

using namespace moas;
using namespace moas::bench;

int main(int argc, char** argv) {
  const std::size_t jobs = bench_jobs(argc, argv);
  const TraceOptions trace = bench_trace(argc, argv);
  const topo::AsGraph& graph = paper_topology(460);

  for (std::size_t origins : {std::size_t{1}, std::size_t{2}}) {
    core::ExperimentConfig config;
    config.num_origins = origins;
    // Summary-level tracing feeds the eviction-latency histogram; its cost
    // is bounded by micro_obs_overhead's <2% budget.
    config.engine = core::EventRun{.trace_level = obs::TraceLevel::Summary};

    config.deployment = core::Deployment::None;
    CurveSpec normal{"normal_bgp", &graph, config, 460 + origins, 10};
    config.deployment = core::Deployment::Full;
    CurveSpec full{"full_moas", &graph, config, 460 + origins, 10};
    // A --trace-out dump would interleave both panels into one file; only
    // panel (a) dumps so the stream stays one self-describing sweep.
    const std::vector<Curve> curves =
        run_curves({normal, full}, jobs, origins == 1 ? trace : TraceOptions{});

    print_report("Figure 9(" + std::string(origins == 1 ? "a" : "b") + "): " +
                     std::to_string(origins) + " origin AS" + (origins > 1 ? "es" : "") +
                     ", " + std::to_string(graph.node_count()) + "-AS topology",
                 "paper: normal BGP rises steeply and stays high; full MOAS detection "
                 "stays near zero for small attacker sets and grows only with the "
                 "structural cut-off",
                 curves);
    print_latency_report(curves);
  }
  return 0;
}
