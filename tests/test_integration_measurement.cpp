// Closed loop: simulate an Internet over many "days" with fault injections,
// snapshot the routing tables daily from a few vantages (the RouteViews
// collector model), run the paper's observer over the snapshots, and check
// that the observed MOAS cases match the injected ground truth.
#include <gtest/gtest.h>

#include <map>

#include "moas/bgp/network.h"
#include "moas/measure/observer.h"
#include "moas/topo/gen_internet.h"
#include "moas/topo/route_views.h"
#include "moas/topo/sampler.h"

namespace moas {
namespace {

/// What a RouteViews-style collector records: for every prefix any vantage
/// reaches, the origin candidates of the vantages' best routes.
measure::DailyDump snapshot(const bgp::Network& network,
                            const std::vector<bgp::Asn>& vantages, int day) {
  measure::DailyDump dump;
  dump.day = day;
  for (bgp::Asn vantage : vantages) {
    const bgp::LocRib& rib = network.router(vantage).loc_rib();
    for (const net::Prefix& prefix : rib.prefixes()) {
      for (bgp::Asn origin : rib.best(prefix)->route.origin_candidates()) {
        dump.origins[prefix].insert(origin);
      }
    }
  }
  return dump;
}

TEST(ClosedLoop, ObserverRecoversInjectedFaults) {
  util::Rng rng(7);
  topo::InternetConfig config;
  config.tier1 = 4;
  config.tier2 = 12;
  config.tier3 = 20;
  config.stubs = 200;
  const topo::AsGraph internet = topo::generate_internet(config, rng);
  const topo::AsGraph graph = topo::sample_to_size(internet, 60, rng);

  bgp::Network network;
  for (bgp::Asn asn : graph.nodes()) network.add_router(asn);
  for (const auto& edge : graph.edges()) network.connect(edge.a, edge.b, edge.rel_of_b);

  // Every stub originates its own prefix; converge the steady state.
  const std::vector<bgp::Asn> stubs = graph.stubs();
  ASSERT_GE(stubs.size(), 10u);
  for (bgp::Asn stub : stubs) {
    network.router(stub).originate(topo::prefix_for_asn(stub));
  }
  ASSERT_TRUE(network.run_to_quiescence());

  // Vantages: the six best-connected ASes.
  std::vector<bgp::Asn> vantages = graph.nodes();
  std::sort(vantages.begin(), vantages.end(), [&](bgp::Asn a, bgp::Asn b) {
    return graph.degree(a) > graph.degree(b);
  });
  vantages.resize(6);

  // 20 "days": on some days a random transit AS mis-originates a random
  // stub's prefix (a fault), withdrawn after one or two days.
  constexpr double kDay = 86400.0;
  struct Fault {
    bgp::Asn attacker;
    net::Prefix prefix;
    int start_day;
    int days;
  };
  std::vector<Fault> injected;
  std::map<int, std::vector<Fault>> starting;
  std::map<int, std::vector<Fault>> ending;
  util::Rng fault_rng(13);
  for (int day = 2; day < 18; day += 1 + static_cast<int>(fault_rng.uniform(0, 3))) {
    Fault fault;
    const auto transits = graph.transits();
    fault.attacker = transits[fault_rng.index(transits.size())];
    const bgp::Asn victim = stubs[fault_rng.index(stubs.size())];
    if (fault.attacker == victim) continue;
    fault.prefix = topo::prefix_for_asn(victim);
    fault.start_day = day;
    fault.days = 1 + static_cast<int>(fault_rng.uniform(0, 1));
    injected.push_back(fault);
    starting[fault.start_day].push_back(fault);
    ending[fault.start_day + fault.days].push_back(fault);
  }
  ASSERT_GE(injected.size(), 3u);

  measure::MoasObserver observer;
  for (int day = 0; day < 20; ++day) {
    for (const Fault& fault : starting[day]) {
      // A plain mis-origination (no suppression games): the faulty AS just
      // announces the prefix as its own.
      network.router(fault.attacker).originate(fault.prefix);
    }
    for (const Fault& fault : ending[day]) {
      network.router(fault.attacker).withdraw_origination(fault.prefix);
    }
    ASSERT_TRUE(network.run_to_quiescence());
    observer.ingest(snapshot(network, vantages, day));
    network.clock().run_until((day + 1) * kDay);
  }

  // Every injected fault whose false route reached a vantage shows up as a
  // MOAS case on its prefix, with the attacker among the observed origins.
  std::map<net::Prefix, const measure::ObservedCase*> observed;
  const auto cases = observer.cases();
  std::vector<measure::ObservedCase> storage = cases;
  for (const auto& c : storage) observed[c.prefix] = &c;

  std::size_t matched = 0;
  for (const Fault& fault : injected) {
    auto it = observed.find(fault.prefix);
    if (it == observed.end()) continue;  // fault invisible from the vantages
    ++matched;
    EXPECT_TRUE(it->second->all_origins.contains(fault.attacker));
    EXPECT_GE(it->second->first_day, fault.start_day);
  }
  // A fault is visible only if some vantage's best route actually switched
  // to the faulty origin — exactly the collector blind spot the paper's
  // footnote 2 concedes. With well-connected vantages, a healthy share
  // must still surface.
  EXPECT_GE(matched, 2u);

  // No phantom cases: every observed MOAS prefix corresponds to a fault.
  std::map<net::Prefix, bool> is_injected;
  for (const Fault& fault : injected) is_injected[fault.prefix] = true;
  for (const auto& c : storage) {
    EXPECT_TRUE(is_injected[c.prefix]) << "phantom MOAS case on " << c.prefix.to_string();
  }
}

}  // namespace
}  // namespace moas
