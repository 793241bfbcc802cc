// Engine microbenchmarks (google-benchmark): the hot paths under every
// figure bench — the decision process, MOAS-list checks and whole-network
// convergence.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "moas/core/detector.h"
#include "moas/core/moas_list.h"
#include "moas/topo/route_views.h"
#include "moas/util/rng.h"

using namespace moas;

namespace {

void BM_DecisionProcess(benchmark::State& state) {
  // Pick the best among N candidates.
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  std::vector<bgp::RibEntry> entries;
  for (std::size_t i = 0; i < n; ++i) {
    bgp::RibEntry entry;
    entry.route.prefix = *net::Prefix::parse("10.0.0.0/8");
    std::vector<bgp::Asn> path;
    const auto hops = 1 + rng.index(6);
    for (std::size_t h = 0; h < hops; ++h) {
      path.push_back(static_cast<bgp::Asn>(1 + rng.index(60000)));
    }
    entry.route.attrs.path = bgp::AsPath(std::move(path));
    entry.learned_from = static_cast<bgp::Asn>(i + 1);
    entries.push_back(std::move(entry));
  }
  std::vector<const bgp::RibEntry*> candidates;
  for (const auto& e : entries) candidates.push_back(&e);
  for (auto _ : state) benchmark::DoNotOptimize(bgp::select_best(candidates));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DecisionProcess)->Arg(2)->Arg(8)->Arg(32);

void BM_MoasListCheck(benchmark::State& state) {
  // The per-update cost of the paper's mechanism: decode + set compare.
  bgp::Route route;
  route.prefix = *net::Prefix::parse("135.38.0.0/16");
  route.attrs.path = bgp::AsPath({7, 4006});
  route.attrs.communities = core::encode_moas_list({4006, 2026});
  const bgp::AsnSet reference{4006, 2026};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::lists_consistent(core::read_claim(route).list, reference));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MoasListCheck);

void BM_DetectorAccept(benchmark::State& state) {
  class NullContext final : public bgp::RouterContext {
   public:
    bgp::Asn self() const override { return 1; }
    sim::Time current_time() const override { return 0.0; }
    std::size_t invalidate_origins(const net::Prefix&, const bgp::AsnSet&) override {
      return 0;
    }
  };
  auto alarms = std::make_shared<core::AlarmLog>();
  core::MoasDetector detector(alarms, nullptr);
  NullContext ctx;
  bgp::Route route;
  route.prefix = *net::Prefix::parse("135.38.0.0/16");
  route.attrs.path = bgp::AsPath({7, 4006});
  route.attrs.communities = core::encode_moas_list({4006, 2026});
  for (auto _ : state) benchmark::DoNotOptimize(detector.accept(route, 7, ctx));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DetectorAccept);

void BM_NetworkConvergence(benchmark::State& state) {
  // Full propagation of one prefix through a sampled paper topology.
  const auto size = static_cast<std::size_t>(state.range(0));
  const topo::AsGraph& graph = bench::paper_topology(size);
  for (auto _ : state) {
    bgp::Network network;
    for (bgp::Asn asn : graph.nodes()) network.add_router(asn);
    for (const auto& edge : graph.edges()) network.connect(edge.a, edge.b, edge.rel_of_b);
    network.router(graph.stubs().front()).originate(*net::Prefix::parse("10.0.0.0/8"));
    network.run_to_quiescence();
    benchmark::DoNotOptimize(network.messages_sent());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkConvergence)->Arg(250)->Arg(460)->Arg(630)->Unit(benchmark::kMillisecond);

void BM_FullExperimentRun(benchmark::State& state) {
  const topo::AsGraph& graph = bench::paper_topology(460);
  core::ExperimentConfig config;
  config.deployment = core::Deployment::Full;
  core::Experiment experiment(graph, config);
  util::Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(experiment.run_once(46, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullExperimentRun)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
