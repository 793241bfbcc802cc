// End-to-end reproductions of the paper's scenarios at test-suite scale:
// smaller topologies and fewer runs than the benches, but the same
// qualitative claims.
#include <gtest/gtest.h>

#include <cmath>

#include "moas/core/experiment.h"
#include "moas/topo/gen_internet.h"
#include "moas/topo/metrics.h"
#include "moas/topo/sampler.h"

namespace moas::core {
namespace {

const topo::AsGraph& internet() {
  static const topo::AsGraph graph = [] {
    util::Rng rng(20020623);
    topo::InternetConfig config;
    config.tier1 = 8;
    config.tier2 = 30;
    config.tier3 = 60;
    config.stubs = 900;
    return topo::generate_internet(config, rng);
  }();
  return graph;
}

const topo::AsGraph& topology(std::size_t target) {
  static std::map<std::size_t, topo::AsGraph> cache;
  auto it = cache.find(target);
  if (it == cache.end()) {
    util::Rng rng(target);
    it = cache.emplace(target, topo::sample_to_size(internet(), target, rng)).first;
  }
  return it->second;
}

double mean_adoption(const topo::AsGraph& graph, ExperimentConfig config,
                     double attacker_fraction, std::uint64_t seed) {
  Experiment experiment(graph, config);
  util::Rng rng(seed);
  return experiment.run_point(attacker_fraction, 2, 3, rng).mean_adopted_false;
}

TEST(PaperExperiment1, NormalBgpDamageGrowsWithAttackers) {
  ExperimentConfig config;
  config.deployment = Deployment::None;
  const double low = mean_adoption(topology(150), config, 0.04, 1);
  const double high = mean_adoption(topology(150), config, 0.30, 1);
  EXPECT_GT(low, 0.05);   // even a few attackers grab a real share
  EXPECT_GT(high, low);   // more attackers, more damage
  EXPECT_GT(high, 0.35);  // large attacker sets devastate plain BGP
}

TEST(PaperExperiment1, MoasListSlashesAdoption) {
  ExperimentConfig config;
  config.deployment = Deployment::None;
  const double normal = mean_adoption(topology(150), config, 0.2, 2);
  config.deployment = Deployment::Full;
  const double full = mean_adoption(topology(150), config, 0.2, 2);
  EXPECT_LT(full, normal / 4.0);
  EXPECT_LT(full, 0.15);
}

TEST(PaperExperiment1, BothOriginCountsBehaveSimilarly) {
  ExperimentConfig config;
  config.deployment = Deployment::Full;
  config.num_origins = 1;
  const double one = mean_adoption(topology(150), config, 0.2, 3);
  config.num_origins = 2;
  const double two = mean_adoption(topology(150), config, 0.2, 3);
  // Two origins give the attackers strictly more to block; adoption stays
  // in the same small ballpark, and is not worse for two origins on
  // average.
  EXPECT_LE(two, one + 0.05);
}

TEST(PaperExperiment2, LargerTopologyMoreRobustUnderDetection) {
  ExperimentConfig config;
  config.deployment = Deployment::Full;
  const double small = mean_adoption(topology(100), config, 0.3, 4);
  const double large = mean_adoption(topology(260), config, 0.3, 4);
  EXPECT_LT(large, small + 1e-9);
}

TEST(PaperExperiment2, TopologySizeMattersLessWithoutDetection) {
  // "Without our MOAS solution, the effects of the attackers on the
  //  topologies are quite similar."
  ExperimentConfig config;
  config.deployment = Deployment::None;
  const double small = mean_adoption(topology(100), config, 0.3, 5);
  const double large = mean_adoption(topology(260), config, 0.3, 5);
  EXPECT_NEAR(small, large, 0.15);
}

TEST(PaperExperiment3, HalfDeploymentProtectsSubstantially) {
  ExperimentConfig config;
  config.deployment = Deployment::None;
  const double normal = mean_adoption(topology(260), config, 0.3, 6);
  config.deployment = Deployment::Partial;
  config.deployment_fraction = 0.5;
  const double half = mean_adoption(topology(260), config, 0.3, 6);
  config.deployment = Deployment::Full;
  const double full = mean_adoption(topology(260), config, 0.3, 6);
  // The paper: partial deployment cuts adoption by more than 63% at 30%
  // attackers in the large topology.
  EXPECT_LT(half, normal * 0.63);
  EXPECT_LT(full, half);
}

TEST(AttackerStrategies, AllListForgeriesAreCaught) {
  for (AttackerStrategy strategy :
       {AttackerStrategy::NoList, AttackerStrategy::OwnList, AttackerStrategy::AugmentedList,
        AttackerStrategy::ValidListForgedOrigin}) {
    ExperimentConfig config;
    config.deployment = Deployment::Full;
    config.num_origins = 2;
    config.strategy = strategy;
    Experiment experiment(topology(150), config);
    util::Rng rng(7);
    const RunResult result = experiment.run_once(6, rng);
    // Residual adoption equals the structural cutoff, i.e. only cut-off
    // nodes can be fooled, whatever list the attacker forges.
    const double cut_population = static_cast<double>(
        result.total_ases - result.attackers - result.origin_set.size());
    const auto expected = static_cast<std::size_t>(
        std::lround(result.structural_cutoff * cut_population));
    EXPECT_EQ(result.adopted_false + result.no_route, expected)
        << "strategy " << to_string(strategy);
  }
}

TEST(Ablation, CommunityStrippingCausesFalseAlarmsNotDamage) {
  ExperimentConfig config;
  config.deployment = Deployment::Full;
  config.num_origins = 2;
  Experiment experiment(topology(150), config);

  config.strip_fraction = 0.4;
  Experiment stripped(topology(150), config);

  util::Rng rng_a(8);
  util::Rng rng_b(8);
  const SweepPoint clean = experiment.run_point(0.0, 2, 2, rng_a);
  const SweepPoint noisy = stripped.run_point(0.0, 2, 2, rng_b);
  EXPECT_DOUBLE_EQ(clean.mean_false_alarms, 0.0);
  EXPECT_GT(noisy.mean_false_alarms, 0.0);
  EXPECT_DOUBLE_EQ(noisy.mean_adopted_false, 0.0);
  EXPECT_DOUBLE_EQ(noisy.mean_no_route, 0.0);
}

TEST(Ablation, GaoRexfordPolicyStillProtected) {
  ExperimentConfig config;
  config.policy = bgp::PolicyMode::GaoRexford;
  config.deployment = Deployment::None;
  const double normal = mean_adoption(topology(150), config, 0.2, 9);
  config.deployment = Deployment::Full;
  const double full = mean_adoption(topology(150), config, 0.2, 9);
  EXPECT_LT(full, normal);
}

TEST(Ablation, MraiDelaysButDoesNotChangeOutcome) {
  ExperimentConfig config;
  config.deployment = Deployment::Full;
  config.engine = EventRun{.mrai = 0.0};
  Experiment fast(topology(100), config);
  config.engine = EventRun{.mrai = 30.0};
  Experiment paced(topology(100), config);
  util::Rng rng(10);
  const auto origins = fast.draw_origins(rng);
  const auto attackers = fast.draw_attackers(10, origins, rng);
  const RunResult a = fast.run_with(origins, attackers, 99);
  const RunResult b = paced.run_with(origins, attackers, 99);
  // Same final adoption; MRAI only paces the churn (fewer messages).
  EXPECT_EQ(a.adopted_false, b.adopted_false);
  EXPECT_LE(b.messages, a.messages);
}

TEST(Ablation, DnsResolverDegradesGracefully) {
  ExperimentConfig config;
  config.deployment = Deployment::Full;
  config.resolver = DnsBackend{.unavailability = 0.5};
  const double flaky = mean_adoption(topology(150), config, 0.2, 11);
  config.resolver = DnsBackend{};
  const double perfect = mean_adoption(topology(150), config, 0.2, 11);
  config.resolver = AlarmOnly{};  // alarm-only deployment
  const double alarm_only = mean_adoption(topology(150), config, 0.2, 11);
  EXPECT_LE(perfect, flaky + 1e-9);
  EXPECT_LE(flaky, alarm_only + 1e-9);
  EXPECT_GT(alarm_only, 0.2);  // without filtering, plain-BGP-like damage
}

}  // namespace
}  // namespace moas::core
