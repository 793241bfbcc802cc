// Outcome goldens for the Section 5 scenario pipeline. Each case runs a
// handful of seeded runs on a ~250-AS sample and pins the FNV-1a hash of a
// canonical text of every RunResult: outcome tallies, alarm lifecycle,
// latencies, the metrics manifest, the fault and outage logs. The configs
// cover the paths the perfbench digests (oracle resolver, full deployment,
// one origin) never take, on both engines, plus the event-only fault paths
// and the multi-prefix workload. Any refactor of the scenario code must
// leave these hashes unchanged.
#include "moas/core/experiment.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <string_view>

#include "moas/core/multi_prefix.h"
#include "moas/topo/gen_internet.h"
#include "moas/topo/sampler.h"

namespace moas::core {
namespace {

const topo::AsGraph& topology() {
  static const topo::AsGraph graph = [] {
    util::Rng rng(77);
    topo::InternetConfig config;
    config.tier1 = 6;
    config.tier2 = 30;
    config.tier3 = 60;
    config.stubs = 700;
    const topo::AsGraph internet = topo::generate_internet(config, rng);
    return topo::sample_to_size(internet, 250, rng, 0.10);
  }();
  return graph;
}

std::string fnv1a_hex(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(hash));
  return out;
}

std::string hex_double(double value) {
  char out[40];
  std::snprintf(out, sizeof out, "%a", value);
  return out;
}

std::string canonical(const RunResult& r) {
  const obs::MetricsRegistry& m = r.metrics;
  std::string text;
  for (std::size_t n :
       {r.total_ases, r.attackers, r.population, r.adopted_false, r.adopted_valid, r.no_route,
        r.alarms, r.false_alarms, r.alarms_pending, r.alarms_resolved, r.alarms_expired,
        static_cast<std::size_t>(m.counter("detector.rejections")), r.fault_events,
        r.final_ribs.size()}) {
    text += std::to_string(n) + ' ';
  }
  const std::uint64_t message_faults =
      m.counter("chaos.msgs_dropped") + m.counter("chaos.msgs_duplicated") +
      m.counter("chaos.msgs_reordered") + m.counter("chaos.corruptions_detected") +
      m.counter("chaos.corruptions_undetected") + m.counter("chaos.corruptions_harmless") +
      m.counter("chaos.attr_corruptions_applied");
  for (std::uint64_t n :
       {r.messages, m.counter("router.withdrawals_sent"), m.counter("router.announcements_sent"),
        m.counter("router.stale_retained"), m.counter("router.stale_swept"),
        m.counter("router.routes_withdrawn"), m.counter("router.error_withdraws"),
        m.counter("chaos.attr_corruptions_applied"), m.counter("chaos.corrupt_session_resets"),
        m.counter("chaos.treat_as_withdraws"), m.counter("chaos.attr_discards"),
        m.counter("chaos.poisoned_blocked"), r.resolver_queries,
        m.counter("resolver.cache_hits") + m.counter("resolver.cache_negative_hits"),
        message_faults}) {
    text += std::to_string(n) + ' ';
  }
  for (double x : {r.structural_cutoff, r.attack_injected_at, r.first_alarm_latency,
                   r.eviction_latency}) {
    text += hex_double(x) + ' ';
  }
  text += r.quiesced ? "q " : "nq ";
  text += r.false_route_stuck ? "stuck\n" : "clear\n";
  for (bgp::Asn asn : r.origin_set) text += std::to_string(asn) + ',';
  text += '\n';
  for (bgp::Asn asn : r.attacker_set) text += std::to_string(asn) + ',';
  text += '\n' + r.metrics.to_json() + '\n' + r.fault_log + '\n' + r.outage_log + '\n';
  for (const std::string& violation : r.invariant_report) text += violation + '\n';
  return text;
}

/// Two runs per case, a light and a heavy attack, drawn from one seed.
std::string run_case(const ExperimentConfig& config, std::uint64_t seed) {
  const Experiment experiment(topology(), config);
  util::Rng rng(seed);
  std::string text;
  for (std::size_t attackers : {std::size_t{10}, std::size_t{50}}) {
    text += canonical(experiment.run_once(attackers, rng));
  }
  return fnv1a_hex(text);
}

ExperimentConfig wave(ExperimentConfig config) {
  config.engine = WaveRun{};
  return config;
}

/// DNS resolver behind a cache, half the ASes capable, a fifth of them
/// stripping communities, two origins (so a MOAS list is attached).
ExperimentConfig dns_partial() {
  ExperimentConfig config;
  config.resolver = DnsBackend{.unavailability = 0.2, .forgery = 0.1};
  config.resolver_cache_ttl = 30.0;
  config.deployment = Deployment::Partial;
  config.deployment_fraction = 0.5;
  config.strip_fraction = 0.2;
  config.num_origins = 2;
  config.keep_final_ribs = true;
  return config;
}

/// Stale IRR resolver, sub-prefix hijack against a converged network under
/// Gao–Rexford export policy.
ExperimentConfig irr_subprefix() {
  ExperimentConfig config;
  config.resolver = IrrBackend{.staleness = 0.3, .stale_origins = {64512}};
  config.strategy = AttackerStrategy::SubPrefixHijack;
  config.converge_before_attack = true;
  config.policy = bgp::PolicyMode::GaoRexford;
  config.keep_final_ribs = true;
  return config;
}

TEST(ExperimentGolden, EventDnsPartialStripTwoOrigins) {
  EXPECT_EQ(run_case(dns_partial(), 11), "41d3259765fdd436");
}

TEST(ExperimentGolden, WaveDnsPartialStripTwoOrigins) {
  EXPECT_EQ(run_case(wave(dns_partial()), 11), "506f577a44ddd169");
}

TEST(ExperimentGolden, EventIrrSubPrefixConvergedGaoRexford) {
  EXPECT_EQ(run_case(irr_subprefix(), 12), "47ec928cfdd9084b");
}

TEST(ExperimentGolden, WaveIrrSubPrefixConvergedGaoRexford) {
  EXPECT_EQ(run_case(wave(irr_subprefix()), 12), "6b297c49ff4ef6bb");
}

TEST(ExperimentGolden, EventAsyncFallbackUnderRegistryOutage) {
  ExperimentConfig config;
  config.resolver = DnsBackend{.unavailability = 0.3};
  config.resolver_cache_ttl = 10.0;
  chaos::RegistryOutageConfig outage;
  outage.outages = 2.0;
  outage.outage_mean = 20.0;
  outage.spikes = 1.0;
  const AsyncResolution async{.fallback_irr = IrrBackend{.staleness = 0.2}, .outage = outage};
  config.engine = EventRun{.async_resolution = async, .trace_level = obs::TraceLevel::Summary};
  EXPECT_EQ(run_case(config, 13), "8b184f42ea1152d0");
}

/// Alarm-only monitoring: capable routers raise alarms but have no registry
/// to resolve them against.
ExperimentConfig alarm_only() {
  ExperimentConfig config;
  config.resolver = AlarmOnly{};
  return config;
}

TEST(ExperimentGolden, EventAlarmOnly) {
  EXPECT_EQ(run_case(alarm_only(), 16), "e8f03b546b9c25ed");
}

TEST(ExperimentGolden, WaveAlarmOnly) {
  EXPECT_EQ(run_case(wave(alarm_only()), 16), "d2c591f9c68c7716");
}

TEST(ExperimentGolden, EventFailFastAsyncDns) {
  // ablation_resolvers' fail-fast arm without its outage schedule: one
  // attempt per request, no circuit breaker, no stale answers.
  ExperimentConfig config;
  config.resolver = DnsBackend{.unavailability = 0.3};
  AsyncResolution async;
  async.resolver.source.max_attempts = 1;
  async.resolver.source.breaker_threshold = 0;
  async.resolver.stale_cache = false;
  config.engine = EventRun{.async_resolution = async, .trace_level = obs::TraceLevel::Summary};
  EXPECT_EQ(run_case(config, 17), "91e5e1239caa9452");
}

TEST(ExperimentGolden, EventChurnGracefulRestartRevisedErrorHandling) {
  ExperimentConfig config;
  chaos::ScheduleConfig churn;
  churn.seed = 0xc0ffee;
  churn.horizon = 120.0;
  churn.flaps_per_link = 0.2;
  churn.session_resets_per_link = 0.1;
  churn.crashes_per_router = 0.05;
  churn.restart_delay_mean = 8.0;
  churn.msg_drop = 0.005;
  churn.msg_reorder = 0.005;
  churn.msg_corrupt = 0.01;
  churn.attr_corruptions_per_link = 0.05;
  config.engine = EventRun{.graceful_restart = 30.0,
                           .revised_error_handling = true,
                           .churn = churn,
                           .check_invariants = true,
                           .trace_level = obs::TraceLevel::Summary};
  EXPECT_EQ(run_case(config, 14), "8c53b5a6a3a0de81");
}

TEST(ExperimentGolden, MultiPrefixPartialSubPrefix) {
  MultiPrefixConfig config;
  config.num_prefixes = 24;
  config.block_size = 5;
  config.origins_per_prefix = 1;
  config.attacked_fraction = 0.5;
  config.strategy = AttackerStrategy::SubPrefixHijack;
  config.deployment = Deployment::Partial;
  config.deployment_fraction = 0.6;
  config.seed = 15;
  const MultiPrefixResult r = run_multi_prefix(topology(), config);
  std::string text;
  for (std::size_t n : {r.prefixes, r.attacked, r.blocks, r.alarms, r.false_alarms,
                        r.adopted_false, r.adopted_valid, r.no_route, r.routes_installed,
                        r.rib_entries, r.rib_bytes, r.baseline_rib_bytes}) {
    text += std::to_string(n) + ' ';
  }
  EXPECT_EQ(fnv1a_hex(text), "b269c2c22c6c23ec");
}

}  // namespace
}  // namespace moas::core
