// Walk-through of the paper's Figures 1-3: how a route is originated, what a
// valid MOAS looks like, and how an incorrect origin hijacks traffic when
// nothing checks it — then the same attack with MOAS-list checking on.
//
// Topology (paper's Figures 1-3):
//
//        AS Y ---- AS X ---- AS Z
//         |                   |
//        AS 40 -------------- AS 52 (attacker in scenario 3)
//
// AS 40 owns 135.38.0.0/16. In Figure 2, 226 is a second valid origin; we
// reuse AS Z's slot for it.
#include <iostream>

#include "moas/bgp/network.h"
#include "moas/core/attacker.h"
#include "moas/core/detector.h"
#include "moas/core/moas_list.h"
#include "moas/core/resolver.h"

using namespace moas;

namespace {

constexpr bgp::Asn kAs40 = 40;   // the true origin
constexpr bgp::Asn kAs226 = 226; // second valid origin (Figure 2)
constexpr bgp::Asn kAsX = 900;
constexpr bgp::Asn kAsY = 901;
constexpr bgp::Asn kAsZ = 902;
constexpr bgp::Asn kAs52 = 52;   // the false origin (Figure 3)

void build(bgp::Network& network, bool with_226) {
  for (bgp::Asn asn : {kAs40, kAsX, kAsY, kAsZ, kAs52}) network.add_router(asn);
  if (with_226) network.add_router(kAs226);
  network.connect(kAs40, kAsY);
  network.connect(kAsY, kAsX);
  network.connect(kAsX, kAsZ);
  network.connect(kAs40, kAs52);
  network.connect(kAsZ, kAs52);
  if (with_226) network.connect(kAs226, kAsZ);
}

void show(const bgp::Network& network, const net::Prefix& prefix) {
  for (bgp::Asn asn : network.asns()) {
    const bgp::RibEntry* best = network.router(asn).best(prefix);
    std::cout << "  AS" << asn << " -> "
              << (best ? "<" + best->route.attrs.path.to_string() + ">"
                       : std::string("(no route)"))
              << "\n";
  }
}

}  // namespace

int main() {
  const auto prefix = *net::Prefix::parse("135.38.0.0/16");

  std::cout << "--- Figure 1: AS 40 originates " << prefix.to_string() << " ---\n";
  {
    bgp::Network network;
    build(network, false);
    network.router(kAs40).originate(prefix);
    network.run_to_quiescence();
    show(network, prefix);
  }

  std::cout << "\n--- Figure 2: valid MOAS, AS 40 and AS 226 both originate ---\n";
  {
    bgp::Network network;
    build(network, true);
    const auto list = core::encode_moas_list({kAs40, kAs226});
    network.router(kAs40).originate(prefix, list);
    network.router(kAs226).originate(prefix, list);
    network.run_to_quiescence();
    show(network, prefix);
    std::cout << "  (both origins carry the MOAS list " << list.to_string()
              << "; no checker complains)\n";
  }

  std::cout << "\n--- Figure 3: AS 52 falsely originates, plain BGP ---\n";
  {
    bgp::Network network;
    build(network, false);
    network.router(kAs40).originate(prefix);
    core::AttackPlan attack;
    attack.attacker = kAs52;
    attack.target = prefix;
    attack.valid_origins = {kAs40};
    attack.strategy = core::AttackerStrategy::NoList;
    core::launch_attack(network, attack);
    network.run_to_quiescence();
    show(network, prefix);
    const auto hijacked = network.router(kAsZ).best_origin(prefix);
    std::cout << "  AS Z's traffic for " << prefix.to_string() << " now lands at AS"
              << (hijacked ? std::to_string(*hijacked) : "?")
              << " — the shortest path wins and the packets are dropped there.\n";
  }

  std::cout << "\n--- Figure 3 again, with MOAS-list checking deployed ---\n";
  {
    bgp::Network network;
    build(network, false);
    auto registry = std::make_shared<core::PrefixOriginDb>();
    registry->set(prefix, {kAs40});
    auto resolver = std::make_shared<core::OracleResolver>(registry);
    auto alarms = std::make_shared<core::AlarmLog>();
    for (bgp::Asn asn : {kAs40, kAsX, kAsY, kAsZ}) {
      network.router(asn).set_validator(
          std::make_shared<core::MoasDetector>(alarms, resolver));
    }
    network.router(kAs40).originate(prefix);
    core::AttackPlan attack;
    attack.attacker = kAs52;
    attack.target = prefix;
    attack.valid_origins = {kAs40};
    attack.strategy = core::AttackerStrategy::NoList;
    core::launch_attack(network, attack);
    network.run_to_quiescence();
    show(network, prefix);
    std::cout << "  alarms raised: " << alarms->size() << "\n";
    for (const auto& alarm : alarms->alarms()) std::cout << "  " << alarm.to_string() << "\n";
  }
  return 0;
}
