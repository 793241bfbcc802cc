#include "moas/core/experiment.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "moas/chaos/engine.h"
#include "moas/chaos/invariants.h"
#include "moas/core/moas_invariants.h"
#include "moas/sim/wave_engine.h"
#include "moas/topo/metrics.h"
#include "moas/topo/route_views.h"
#include "moas/util/assert.h"
#include "moas/util/stats.h"
#include "moas/util/thread_pool.h"
#include "scenario.h"

namespace moas::core {

namespace {

// Event-engine link model: every message takes kLinkDelay seconds plus
// uniform jitter up to kJitter, and a run must quiesce within kMaxEvents.
constexpr double kLinkDelay = 0.05;
constexpr double kJitter = 0.02;
constexpr std::size_t kMaxEvents = 50'000'000;

std::shared_ptr<PrefixOriginDb> ground_truth(const net::Prefix& victim,
                                             const AsnSet& origins) {
  auto truth = std::make_shared<PrefixOriginDb>();
  truth->set(victim, origins);
  return truth;
}

/// An IRR mirror whose stale records answer `irr.stale_origins`.
std::shared_ptr<OriginResolver> make_irr(const IrrBackend& irr,
                                         const std::shared_ptr<PrefixOriginDb>& truth,
                                         const net::Prefix& victim, util::Rng& rng) {
  auto stale = std::make_shared<PrefixOriginDb>();
  if (!irr.stale_origins.empty()) stale->set(victim, irr.stale_origins);
  IrrResolver::Config config;
  config.staleness = irr.staleness;
  config.seed = rng.next();
  return std::make_shared<IrrResolver>(truth, stale, config);
}

/// The registry the detectors query (null: alarm-only detectors). Dns and
/// Irr draw their seed from the run rng, the same draw on either engine.
std::shared_ptr<OriginResolver> make_resolver(const ResolverBackend& backend,
                                              const std::shared_ptr<PrefixOriginDb>& truth,
                                              const net::Prefix& victim,
                                              const AsnSet& attackers, util::Rng& rng) {
  if (std::holds_alternative<OracleBackend>(backend)) {
    return std::make_shared<OracleResolver>(truth);
  }
  if (const auto* irr = std::get_if<IrrBackend>(&backend)) {
    return make_irr(*irr, truth, victim, rng);
  }
  const auto* spec = std::get_if<DnsBackend>(&backend);
  if (spec == nullptr) return nullptr;  // AlarmOnly
  DnsResolver::Config dns;
  dns.unavailability = spec->unavailability;
  dns.forgery = spec->forgery;
  if (!attackers.empty()) dns.forged_answer = attackers;
  dns.seed = rng.next();
  return std::make_shared<DnsResolver>(truth, dns);
}

/// Churn-aware resolver cache (ExperimentConfig::resolver_cache_ttl > 0):
/// under session churn the same prefix alarms repeatedly, and without a
/// cache every alarm is a fresh registry lookup. The cache collects its
/// backend's metrics, so the run still reports the real registry load.
std::shared_ptr<OriginResolver> with_cache(std::shared_ptr<OriginResolver> resolver,
                                           double ttl, CachingResolver::TimeFn now) {
  if (!resolver || ttl <= 0.0) return resolver;
  CachingResolver::Config cache;
  cache.ttl = ttl;
  cache.negative_ttl = std::min(ttl, 5.0);
  return std::make_shared<CachingResolver>(std::move(resolver), std::move(now), cache);
}

/// Community-stripping routers (Section 4.3): a sampled share of the
/// non-origin routers drop the optional transitive attribute on
/// re-advertisement.
template <class Engine>
void sample_strippers(Engine& engine, double fraction, const std::vector<bgp::Asn>& all_ases,
                      const AsnSet& origins, util::Rng& rng) {
  if (fraction <= 0.0) return;
  std::vector<bgp::Asn> pool = all_ases;
  std::erase_if(pool, [&](bgp::Asn asn) { return origins.contains(asn); });
  const auto want =
      static_cast<std::size_t>(std::lround(fraction * static_cast<double>(pool.size())));
  for (std::size_t i : rng.sample_indices(pool.size(), want)) {
    engine.router(pool[i]).set_strip_communities(true);
  }
}

/// Alarm bookkeeping: lifecycle counts, settle histogram, false-alarm
/// classification. Returns the earliest attacker-implicating alarm time
/// (-1 if none).
double account_alarms(RunResult& result, const AlarmLog& alarms, const AsnSet& attackers) {
  result.alarms = alarms.size();
  result.alarms_pending = alarms.count_state(MoasAlarm::State::Pending);
  result.alarms_resolved = alarms.count_state(MoasAlarm::State::Resolved);
  result.alarms_expired = alarms.count_state(MoasAlarm::State::Expired);
  // Settle latency (alarm raised -> terminal state): instantaneous on the
  // synchronous path, and exactly the resolution latency the degraded mode
  // added on the async path — the bounded-inflation gate reads this.
  auto& settle = result.metrics.histogram("detector.alarm_settle_latency", kAlarmLatencySpec);
  for (const MoasAlarm& alarm : alarms.alarms()) {
    if (alarm.settled_at >= 0.0) settle.add(alarm.settled_at - alarm.at);
  }
  double first_alarm_at = -1.0;
  for (const MoasAlarm& alarm : alarms.alarms()) {
    if (!scenario::implicates_attacker(alarm, attackers)) {
      ++result.false_alarms;
    } else if (first_alarm_at < 0.0 || alarm.at < first_alarm_at) {
      first_alarm_at = alarm.at;
    }
  }
  return first_alarm_at;
}

/// The tail of every run: outcome scoring, the two perfbench mirrors read
/// out of the metrics registry, the structural cutoff and the converged-RIB
/// snapshot.
template <class Engine>
void finish_run(RunResult& result, Engine& engine, const ExperimentConfig& config,
                const topo::AsGraph& graph, const std::vector<bgp::Asn>& all_ases,
                const net::Prefix& victim, const AsnSet& origins, const AsnSet& attackers) {
  const scenario::Outcomes outcomes =
      scenario::score(engine, all_ases, victim, config.strategy, origins, attackers);
  result.total_ases = all_ases.size();
  result.attackers = attackers.size();
  result.population = outcomes.population;
  result.adopted_false = outcomes.adopted_false;
  result.adopted_valid = outcomes.adopted_valid;
  result.no_route = outcomes.no_route;
  result.origin_set = origins;
  result.attacker_set = attackers;

  // The registry is the only counter store; `messages` and
  // `resolver_queries` are the two mirrors perfbench's runner reads. The
  // resolver names exist even for resolver-less runs, so manifest consumers
  // can rely on them unconditionally.
  obs::MetricsRegistry& m = result.metrics;
  m.count("resolver.queries", 0);
  m.count("resolver.cache_hits", 0);
  result.messages = m.counter("network.messages_sent");
  result.resolver_queries = m.counter("resolver.queries");
  if (!attackers.empty()) {
    result.structural_cutoff = topo::fraction_cut_off(graph, origins, attackers);
  }
  if (config.keep_final_ribs) {
    for (bgp::Asn asn : all_ases) {
      const bgp::LocRib& rib = engine.router(asn).loc_rib();
      for (const net::Prefix& prefix : rib.prefixes()) {
        result.final_ribs.push_back({asn, *rib.best(prefix)});
      }
    }
  }
}

}  // namespace

const char* to_string(Deployment deployment) {
  switch (deployment) {
    case Deployment::None: return "normal-bgp";
    case Deployment::Partial: return "partial-moas";
    case Deployment::Full: return "full-moas";
  }
  return "?";
}

Experiment::Experiment(const topo::AsGraph& graph, ExperimentConfig config)
    : graph_(&graph), config_(config) {
  MOAS_REQUIRE(graph.node_count() >= 3, "topology too small");
  MOAS_REQUIRE(graph.is_connected(), "experiment topology must be connected");
  MOAS_REQUIRE(!graph.stubs().empty(), "topology has no stub ASes to victimize");
  MOAS_REQUIRE(config.num_origins >= 1 && config.num_origins <= 3,
               "paper evaluates 1-2 origins; 3 supported for ablations");
  MOAS_REQUIRE(config.deployment_fraction >= 0.0 && config.deployment_fraction <= 1.0,
               "deployment fraction must be a probability");
  MOAS_REQUIRE(config.strip_fraction >= 0.0 && config.strip_fraction <= 1.0,
               "strip fraction must be a probability");
  MOAS_REQUIRE(config.resolver_cache_ttl >= 0.0, "resolver cache TTL must be non-negative");
  if (const auto* event = std::get_if<EventRun>(&config.engine)) {
    MOAS_REQUIRE(!event->graceful_restart || *event->graceful_restart > 0.0,
                 "graceful restart needs a positive restart time");
    MOAS_REQUIRE(!event->async_resolution || !std::holds_alternative<AlarmOnly>(config.resolver),
                 "async resolution needs a registry backend");
  }
}

bgp::AsnSet Experiment::draw_origins(util::Rng& rng) const {
  const std::vector<bgp::Asn> stubs = graph_->stubs();
  MOAS_REQUIRE(stubs.size() >= config_.num_origins, "not enough stubs for origins");
  bgp::AsnSet origins;
  for (std::size_t i : rng.sample_indices(stubs.size(), config_.num_origins)) {
    origins.insert(stubs[i]);
  }
  return origins;
}

bgp::AsnSet Experiment::draw_attackers(std::size_t count, const bgp::AsnSet& origins,
                                       util::Rng& rng) const {
  std::vector<bgp::Asn> pool;
  switch (config_.placement) {
    case AttackerPlacement::Anywhere: pool = graph_->nodes(); break;
    case AttackerPlacement::StubsOnly: pool = graph_->stubs(); break;
    case AttackerPlacement::TransitOnly: pool = graph_->transits(); break;
  }
  std::erase_if(pool, [&](bgp::Asn asn) { return origins.contains(asn); });
  MOAS_REQUIRE(count <= pool.size(), "not enough candidate attackers");
  bgp::AsnSet attackers;
  for (std::size_t i : rng.sample_indices(pool.size(), count)) attackers.insert(pool[i]);
  return attackers;
}

RunResult Experiment::run_once(std::size_t num_attackers, util::Rng& rng) const {
  const bgp::AsnSet origins = draw_origins(rng);
  const bgp::AsnSet attackers = draw_attackers(num_attackers, origins, rng);
  return run_with(origins, attackers, rng.next());
}

RunResult Experiment::run_with(const bgp::AsnSet& origins, const bgp::AsnSet& attackers,
                               std::uint64_t seed) const {
  MOAS_REQUIRE(!origins.empty(), "need at least one valid origin");
  for (bgp::Asn o : origins) {
    MOAS_REQUIRE(graph_->has_node(o), "origin not in topology");
    MOAS_REQUIRE(!attackers.contains(o), "an origin cannot also be an attacker");
  }
  return std::visit(
      [&](const auto& engine) { return run(engine, origins, attackers, seed); },
      config_.engine);
}

RunResult Experiment::run(const EventRun& event, const bgp::AsnSet& origins,
                          const bgp::AsnSet& attackers, std::uint64_t seed) const {
  util::Rng rng(seed);
  const net::Prefix victim = topo::prefix_for_asn(*origins.begin());
  const auto truth = ground_truth(victim, origins);
  std::shared_ptr<OriginResolver> resolver =
      make_resolver(config_.resolver, truth, victim, attackers, rng);

  bgp::Network::Config net_config;
  net_config.mode = config_.policy;
  net_config.link_delay = kLinkDelay;
  net_config.jitter = kJitter;
  net_config.graceful_restart = event.graceful_restart;
  net_config.revised_error_handling = event.revised_error_handling;
  net_config.seed = rng.next();
  bgp::Network network(net_config);

  // Per-run trace bus, stamped from the run's own clock. Runs are
  // self-contained and single-threaded (the sweep determinism contract), so
  // one bus per run is the "per-thread buffer": the sweep harness serializes
  // buses in plan order and the merged stream is bit-identical for any --jobs.
  const bool tracing = event.trace_level != obs::TraceLevel::Off;
  obs::TraceBus bus(event.trace_level, &network.clock());
  if (tracing) network.set_trace(&bus);

  const std::vector<bgp::Asn> all_ases = graph_->nodes();
  for (bgp::Asn asn : all_ases) network.add_router(asn);
  for (const auto& edge : graph_->edges()) {
    network.connect(edge.a, edge.b, edge.rel_of_b);
  }

  resolver = with_cache(std::move(resolver), config_.resolver_cache_ttl,
                        [&network] { return network.clock().now(); });

  // Asynchronous fault-tolerant resolution: the (possibly cached) primary
  // becomes source 0 of the fallback chain, optionally backed by an IRR
  // mirror, with a seeded registry-outage schedule replayed against both.
  // Declared after `network` so in-flight requests die before the clock.
  std::shared_ptr<AsyncResolver> async;
  std::shared_ptr<chaos::RegistryOutageSchedule> outage_schedule;
  if (event.async_resolution) {
    const AsyncResolution& spec = *event.async_resolution;
    AsyncResolver::Config async_config = spec.resolver;
    async_config.seed ^= rng.next();  // one run seed reproduces latency draws
    async = std::make_shared<AsyncResolver>(network.clock(), async_config);
    async->add_source(resolver);
    if (spec.fallback_irr) async->add_source(make_irr(*spec.fallback_irr, truth, victim, rng));
    if (spec.outage) {
      chaos::RegistryOutageConfig outage = *spec.outage;
      outage.seed ^= seed;  // same mixing rule as churn
      outage_schedule = std::make_shared<chaos::RegistryOutageSchedule>(
          chaos::compile_registry_outages(outage, async->source_count()));
      async->set_outage_schedule(outage_schedule);
    }
    if (tracing) async->set_trace(&bus);
  }

  auto alarms = std::make_shared<AlarmLog>();
  if (tracing) alarms->set_trace(&bus);
  const std::vector<std::shared_ptr<MoasDetector>> detectors =
      scenario::deploy_detectors(network, config_.deployment, config_.deployment_fraction,
                                 all_ases, attackers, alarms, resolver, rng);
  for (const auto& detector : detectors) {
    if (async) detector->set_async_resolver(async);
    if (tracing) detector->set_trace(&bus);
  }
  sample_strippers(network, config_.strip_fraction, all_ases, origins, rng);

  if (event.mrai > 0.0) {
    for (bgp::Asn asn : all_ases) network.router(asn).set_mrai(event.mrai);
  }
  if (!event.prefer_established) {
    // Equal-key tie contests then resolve by lowest neighbor ASN instead of
    // route age — the timing-independent mode the wave engine matches.
    for (bgp::Asn asn : all_ases) network.router(asn).set_prefer_established(false);
  }

  // Background churn: compile the seeded fault schedule for this topology
  // and arm it on the shared clock, so faults interleave with the workload.
  // The engine clears its message tap on destruction — it must die before
  // `network`, hence the declaration after it.
  std::unique_ptr<chaos::ChaosEngine> engine;
  if (event.churn) {
    chaos::ScheduleConfig churn = *event.churn;
    churn.seed ^= seed;  // one run seed reproduces workload and faults alike
    engine = std::make_unique<chaos::ChaosEngine>(
        network, chaos::compile_schedule(churn, network.links(), network.asns()));
    engine->arm();
  }

  const bgp::PathAttributes origin_attrs = scenario::origin_attrs(origins);
  for (bgp::Asn origin : origins) {
    const double at = rng.uniform01() * 0.5;
    network.clock().schedule_after(at, [&network, origin, victim, origin_attrs] {
      network.router(origin).originate(victim, origin_attrs.communities,
                                       origin_attrs.large_communities);
    });
  }

  RunResult result;
  if (config_.converge_before_attack) {
    // Phase 1: the legitimate announcements converge (steady state).
    result.propagation_seconds += scenario::elapsed_seconds(
        [&] { result.quiesced = network.run_to_quiescence(kMaxEvents); });
    MOAS_ENSURE(result.quiesced, "valid-route convergence failed within the event cap");
  }

  // Phase 2 (or a single racing phase): the fault/attack is injected. In
  // the racing model the attacker is compromised from t = 0 — its
  // suppression filter is armed before any valid announcement can transit
  // it (see install_suppression) — and only the false origination races the
  // valid ones. Under converge_before_attack the attacker instead behaves
  // honestly through phase 1 (the steady state includes it) and turns at
  // injection time.
  for (bgp::Asn attacker : attackers) {
    const AttackPlan plan{attacker, victim, origins, config_.strategy};
    if (!config_.converge_before_attack) {
      install_suppression(network.router(attacker), plan);
    }
    const double at = rng.uniform01() * 0.5;
    // Injection time = earliest false origination on the run's clock; the
    // latency metrics below measure from here.
    const sim::Time inject_at = network.clock().now() + at;
    if (result.attack_injected_at < 0.0 || inject_at < result.attack_injected_at) {
      result.attack_injected_at = inject_at;
    }
    network.clock().schedule_after(at, [&network, plan] {
      if (obs::trace_wants(network.trace(), obs::TraceLevel::Summary)) {
        network.trace()->emit(
            obs::TraceEvent(obs::EventKind::AttackInjected, plan.attacker)
                .with_prefix(plan.target));
      }
      launch_attack(network, plan);
    });
  }
  result.propagation_seconds += scenario::elapsed_seconds(
      [&] { result.quiesced = network.run_to_quiescence(kMaxEvents); });
  MOAS_ENSURE(result.quiesced, "simulation failed to quiesce within the event cap");

  result.metrics = network.collect_metrics();
  if (engine) engine->collect_metrics(result.metrics);
  for (const auto& detector : detectors) detector->collect_metrics(result.metrics);
  // Resolver counters ("resolver.*") come straight from the components: the
  // async resolver collects its whole fallback chain (each source's backend
  // included); otherwise the possibly-cached synchronous resolver reports.
  if (async) {
    async->collect_metrics(result.metrics);
    result.outage_log = outage_schedule ? outage_schedule->to_string() : std::string();
  } else if (resolver) {
    resolver->collect_metrics(result.metrics);
  }

  if (engine) {
    result.fault_events = engine->schedule().events.size();
    result.fault_log = engine->log_text();
  }
  if (event.check_invariants) {
    chaos::NetworkInvariantChecker checker;
    register_moas_invariants(checker, alarms);
    if (engine) {
      chaos::register_corruption_invariants(checker, *engine);
      for (const auto& [from, to] : engine->dirty_links()) {
        checker.exclude_direction(from, to);
      }
    }
    for (const auto& violation : checker.check(network)) {
      result.invariant_report.push_back(violation.to_string());
    }
  }

  const double first_alarm_at = account_alarms(result, *alarms, attackers);
  if (first_alarm_at >= 0.0 && result.attack_injected_at >= 0.0) {
    result.first_alarm_latency = std::max(0.0, first_alarm_at - result.attack_injected_at);
  }

  // Eviction latency: replay the route-change stream and track the set of
  // non-attacker routers whose best route for the scored prefix points at an
  // attacker (RoutePreferred carries the new best origin in value2; any
  // other change at the prefix clears the router from the set). The latency
  // is from injection to the moment that set last became empty.
  if (obs::kTraceCompiledIn && result.attack_injected_at >= 0.0 &&
      bus.wants(obs::TraceLevel::Summary)) {
    const net::Prefix scored = scenario::scored_prefix(victim, config_.strategy, attackers);
    bgp::AsnSet on_false_route;
    double last_cleared = -1.0;
    bool ever_adopted = false;
    for (const obs::TraceEvent& change : bus.events()) {
      if (change.kind != obs::EventKind::RoutePreferred &&
          change.kind != obs::EventKind::RouteDepreferred) {
        continue;
      }
      if (!change.has_prefix || !(change.prefix == scored)) continue;
      if (attackers.contains(change.actor)) continue;
      const bool now_false = change.kind == obs::EventKind::RoutePreferred &&
                             change.value2 > 0 &&
                             attackers.contains(static_cast<bgp::Asn>(change.value2));
      if (now_false) {
        ever_adopted = true;
        on_false_route.insert(change.actor);
      } else if (on_false_route.erase(change.actor) > 0 && on_false_route.empty()) {
        last_cleared = change.at;
      }
    }
    if (!ever_adopted) {
      result.eviction_latency = 0.0;  // the false route never took hold
    } else if (!on_false_route.empty()) {
      result.false_route_stuck = true;  // still installed at quiescence
    } else {
      result.eviction_latency = std::max(0.0, last_cleared - result.attack_injected_at);
    }
  }

  finish_run(result, network, config_, *graph_, all_ases, victim, origins, attackers);
  if (event.keep_trace) result.trace = bus.take();
  return result;
}

RunResult Experiment::run(const WaveRun& /*wave*/, const bgp::AsnSet& origins,
                          const bgp::AsnSet& attackers, std::uint64_t seed) const {
  util::Rng rng(seed);
  const net::Prefix victim = topo::prefix_for_asn(*origins.begin());
  std::shared_ptr<OriginResolver> resolver =
      make_resolver(config_.resolver, ground_truth(victim, origins), victim, attackers, rng);

  // The event run draws its network seed here; burn the same draw so the
  // deployment and stripping samples below land on the same stream offsets
  // — the differential gate compares the two engines run-for-run, and that
  // only means anything if a run's capable set matches across engines.
  (void)rng.next();

  sim::WaveEngine::Config wave_config;
  wave_config.mode = config_.policy;
  sim::WaveEngine wave(*graph_, wave_config);

  // Resolver cache on a frozen clock: entries never expire, which is the
  // right model for a timeless run — within one run the registry answer for
  // a prefix is fixed anyway.
  resolver = with_cache(std::move(resolver), config_.resolver_cache_ttl, [] { return 0.0; });

  const std::vector<bgp::Asn> all_ases = graph_->nodes();
  auto alarms = std::make_shared<AlarmLog>();
  const std::vector<std::shared_ptr<MoasDetector>> detectors =
      scenario::deploy_detectors(wave, config_.deployment, config_.deployment_fraction,
                                 all_ases, attackers, alarms, resolver, rng);
  sample_strippers(wave, config_.strip_fraction, all_ases, origins, rng);

  // No clock, so no scheduling jitter: valid originations are seeded, then
  // (racing mode) the attacks, and the sweeps run everything to the
  // fixpoint together. Under converge_before_attack the valid routes reach
  // their fixpoint first and the attack hits the converged state
  // incrementally — the wave analog of the two-phase event run.
  const bgp::PathAttributes origin_attrs = scenario::origin_attrs(origins);
  for (bgp::Asn origin : origins) {
    wave.router(origin).originate(victim, origin_attrs.communities,
                                  origin_attrs.large_communities);
  }

  RunResult result;
  if (config_.converge_before_attack) {
    result.propagation_seconds += scenario::elapsed_seconds([&] { wave.propagate(); });
  }
  for (bgp::Asn attacker : attackers) {
    launch_attack(wave.router(attacker), AttackPlan{attacker, victim, origins, config_.strategy});
  }
  result.propagation_seconds += scenario::elapsed_seconds([&] { wave.propagate(); });
  result.quiesced = true;  // propagate() returns only at the fixpoint

  wave.collect_metrics(result.metrics);
  for (const auto& detector : detectors) detector->collect_metrics(result.metrics);
  if (resolver) resolver->collect_metrics(result.metrics);

  // attack_injected_at / first_alarm_latency / eviction_latency stay -1:
  // a timeless engine has no latencies to report.
  account_alarms(result, *alarms, attackers);
  finish_run(result, wave, config_, *graph_, all_ases, victim, origins, attackers);
  return result;
}

SweepPlan Experiment::plan_sweep(const std::vector<double>& attacker_fractions,
                                 std::size_t origin_sets, std::size_t attacker_sets,
                                 util::Rng& rng) const {
  MOAS_REQUIRE(origin_sets > 0 && attacker_sets > 0,
               "empty run budget: origin_sets and attacker_sets must both be >= 1");
  SweepPlan plan;
  plan.attacker_fractions = attacker_fractions;
  plan.origin_sets = origin_sets;
  plan.attacker_sets = attacker_sets;
  plan.runs.reserve(attacker_fractions.size() * origin_sets * attacker_sets);
  for (std::size_t p = 0; p < attacker_fractions.size(); ++p) {
    const double fraction = attacker_fractions[p];
    MOAS_REQUIRE(fraction >= 0.0 && fraction < 1.0, "attacker fraction must be in [0, 1)");
    std::size_t num_attackers = static_cast<std::size_t>(
        std::lround(fraction * static_cast<double>(graph_->node_count())));
    if (fraction > 0.0 && num_attackers == 0) num_attackers = 1;
    for (std::size_t i = 0; i < origin_sets; ++i) {
      const bgp::AsnSet origins = draw_origins(rng);
      for (std::size_t j = 0; j < attacker_sets; ++j) {
        PlannedRun run;
        run.point = p;
        run.origins = origins;
        run.attackers = draw_attackers(num_attackers, origins, rng);
        run.seed = rng.next();
        plan.runs.push_back(std::move(run));
      }
    }
  }
  return plan;
}

std::vector<RunResult> Experiment::execute_plan(const SweepPlan& plan,
                                                util::ThreadPool& pool) const {
  std::vector<RunResult> results(plan.runs.size());
  pool.parallel_for(plan.runs.size(), [&](std::size_t i) {
    const PlannedRun& run = plan.runs[i];
    results[i] = run_with(run.origins, run.attackers, run.seed);
  });
  return results;
}

std::vector<SweepPoint> Experiment::reduce_plan(const SweepPlan& plan,
                                                const std::vector<RunResult>& results) const {
  MOAS_REQUIRE(results.size() == plan.runs.size(),
               "result count does not match the plan's run count");
  struct PointAccumulators {
    util::Accumulator adopted;
    util::Accumulator affected;
    util::Accumulator no_route;
    util::Accumulator alarms;
    util::Accumulator false_alarms;
    util::Accumulator cutoff;
    obs::MetricsRegistry metrics;
    std::size_t stuck = 0;
  };
  std::vector<PointAccumulators> accumulators(plan.attacker_fractions.size());
  // merge() of a single-sample accumulator takes the exact add() path, so
  // this plan-order reduction is bit-identical to the historical serial
  // loop no matter what order the runs completed in.
  const auto take = [](util::Accumulator& into, double x) {
    util::Accumulator sample;
    sample.add(x);
    into.merge(sample);
  };
  for (std::size_t i = 0; i < plan.runs.size(); ++i) {
    PointAccumulators& acc = accumulators[plan.runs[i].point];
    const RunResult& run = results[i];
    take(acc.adopted, run.adopted_false_fraction());
    take(acc.affected, run.affected_fraction());
    take(acc.no_route, run.no_route_fraction());
    take(acc.alarms, static_cast<double>(run.alarms));
    take(acc.false_alarms, static_cast<double>(run.false_alarms));
    take(acc.cutoff, run.structural_cutoff);
    // Counters sum, histograms merge bucket-wise — both order-independent,
    // but this loop walks plan order anyway so gauges (last-writer-wins)
    // stay deterministic across --jobs too.
    acc.metrics.merge(run.metrics);
    if (run.first_alarm_latency >= 0.0) {
      acc.metrics.histogram("detector.first_alarm_latency", kAlarmLatencySpec)
          .add(run.first_alarm_latency);
    }
    if (run.eviction_latency >= 0.0) {
      acc.metrics.histogram("detector.eviction_latency", kAlarmLatencySpec)
          .add(run.eviction_latency);
    }
    if (run.false_route_stuck) ++acc.stuck;
  }
  std::vector<SweepPoint> points;
  points.reserve(plan.attacker_fractions.size());
  for (std::size_t p = 0; p < plan.attacker_fractions.size(); ++p) {
    PointAccumulators& acc = accumulators[p];
    SweepPoint point;
    point.attacker_fraction = plan.attacker_fractions[p];
    point.runs = acc.adopted.count();
    point.mean_adopted_false = acc.adopted.mean();
    point.stddev_adopted_false = acc.adopted.stddev();
    point.mean_affected = acc.affected.mean();
    point.mean_no_route = acc.no_route.mean();
    point.mean_alarms = acc.alarms.mean();
    point.mean_false_alarms = acc.false_alarms.mean();
    point.mean_structural_cutoff = acc.cutoff.mean();
    point.runs_false_route_stuck = acc.stuck;
    // Make sure both latency histograms exist even when no run produced a
    // sample — consumers can then rely on the names unconditionally.
    acc.metrics.histogram("detector.first_alarm_latency", kAlarmLatencySpec);
    acc.metrics.histogram("detector.eviction_latency", kAlarmLatencySpec);
    point.metrics = std::move(acc.metrics);
    points.push_back(std::move(point));
  }
  return points;
}

SweepPoint Experiment::run_point(double attacker_fraction, std::size_t origin_sets,
                                 std::size_t attacker_sets, util::Rng& rng,
                                 std::size_t jobs) const {
  return sweep({attacker_fraction}, origin_sets, attacker_sets, rng, jobs).front();
}

std::vector<SweepPoint> Experiment::sweep(const std::vector<double>& attacker_fractions,
                                          std::size_t origin_sets, std::size_t attacker_sets,
                                          util::Rng& rng, std::size_t jobs) const {
  const SweepPlan plan = plan_sweep(attacker_fractions, origin_sets, attacker_sets, rng);
  util::ThreadPool pool(jobs);
  const std::vector<RunResult> results = execute_plan(plan, pool);
  return reduce_plan(plan, results);
}

}  // namespace moas::core
