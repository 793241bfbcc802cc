// The Section 5 scenario steps every run flavour shares: the single-prefix
// event and wave runs (experiment.cpp) and the multi-prefix workload
// (multi_prefix.cpp). Steps that touch routers take the propagation engine
// as a template parameter — bgp::Network and sim::WaveEngine both expose
// `bgp::Router& router(Asn)` — so each step is written once without an
// abstract engine interface. Code that only one engine has (the event
// clock, churn, async resolution; the wave sweeps) stays with its caller.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <vector>

#include "moas/core/alarm.h"
#include "moas/core/attacker.h"
#include "moas/core/detector.h"
#include "moas/core/experiment.h"
#include "moas/core/moas_list.h"
#include "moas/core/resolver.h"
#include "moas/util/rng.h"

namespace moas::core::scenario {

/// Wall-clock seconds `phase` takes — the engine's propagation time, kept
/// out of the metrics registry and every determinism comparison.
template <class Phase>
double elapsed_seconds(Phase&& phase) {
  const auto start = std::chrono::steady_clock::now();
  phase();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Detector deployment. Full makes every AS capable; Partial samples
/// round(fraction * |ASes|) of *all* ASes (one rng draw). Capability on a
/// compromised node is moot, so attackers never get a detector.
template <class Engine>
std::vector<std::shared_ptr<MoasDetector>> deploy_detectors(
    Engine& engine, Deployment deployment, double fraction,
    const std::vector<bgp::Asn>& all_ases, const AsnSet& attackers,
    const std::shared_ptr<AlarmLog>& alarms, const std::shared_ptr<OriginResolver>& resolver,
    util::Rng& rng) {
  AsnSet capable;
  if (deployment == Deployment::Full) {
    capable.insert(all_ases.begin(), all_ases.end());
  } else if (deployment == Deployment::Partial) {
    const auto want = static_cast<std::size_t>(
        std::lround(fraction * static_cast<double>(all_ases.size())));
    for (std::size_t i : rng.sample_indices(all_ases.size(), want)) {
      capable.insert(all_ases[i]);
    }
  }
  std::vector<std::shared_ptr<MoasDetector>> detectors;
  for (bgp::Asn asn : capable) {
    if (attackers.contains(asn)) continue;
    auto detector = std::make_shared<MoasDetector>(alarms, resolver);
    engine.router(asn).set_validator(detector);
    detectors.push_back(std::move(detector));
  }
  return detectors;
}

/// Origination attributes. Valid origins attach the MOAS list when the
/// prefix really is multi-origin; a single-origin prefix carries no list
/// (the paper: "Routes that originate from a single AS need not attach a
/// MOAS list"). The list is width-split across classic and large
/// communities.
inline bgp::PathAttributes origin_attrs(const AsnSet& origins) {
  bgp::PathAttributes attrs;
  if (origins.size() > 1) attach_moas_list(attrs, origins);
  return attrs;
}

/// The prefix outcomes are scored on. Under SubPrefixHijack the attacker
/// wins a node whenever the more-specific route is present (longest-prefix
/// match beats the valid covering route).
inline net::Prefix scored_prefix(const net::Prefix& victim, AttackerStrategy strategy,
                                 const AsnSet& attackers) {
  if (strategy == AttackerStrategy::SubPrefixHijack && !attackers.empty()) {
    return victim.children().first;
  }
  return victim;
}

/// Per-AS outcome tally for one victim prefix over the non-attacker ASes
/// (the paper's "remaining" population).
struct Outcomes {
  std::size_t population = 0;
  std::size_t adopted_false = 0;  // best route origin is an attacker
  std::size_t adopted_valid = 0;  // best route origin is a valid origin
  std::size_t no_route = 0;       // no route for the victim prefix at all
};

template <class Engine>
Outcomes score(Engine& engine, const std::vector<bgp::Asn>& all_ases,
               const net::Prefix& victim, AttackerStrategy strategy, const AsnSet& origins,
               const AsnSet& attackers) {
  const net::Prefix scored = scored_prefix(victim, strategy, attackers);
  Outcomes out;
  for (bgp::Asn asn : all_ases) {
    if (attackers.contains(asn)) continue;
    ++out.population;
    const bgp::Router& router = engine.router(asn);
    const auto hijacked_origin = router.best_origin(scored);
    if (hijacked_origin && attackers.contains(*hijacked_origin)) {
      ++out.adopted_false;
      continue;
    }
    const auto valid_origin = router.best_origin(victim);
    if (!valid_origin) {
      ++out.no_route;
    } else if (origins.contains(*valid_origin)) {
      ++out.adopted_valid;
    } else if (attackers.contains(*valid_origin)) {
      ++out.adopted_false;
    }
  }
  return out;
}

/// An alarm that names no attacker anywhere in its evidence is a false
/// alarm.
inline bool implicates_attacker(const MoasAlarm& alarm, const AsnSet& attackers) {
  return std::any_of(attackers.begin(), attackers.end(), [&](bgp::Asn a) {
    return alarm.offending_origins.contains(a) || alarm.observed_list.contains(a) ||
           alarm.reference_list.contains(a);
  });
}

}  // namespace moas::core::scenario
