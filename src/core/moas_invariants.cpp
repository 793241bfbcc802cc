#include "moas/core/moas_invariants.h"

#include "moas/core/moas_list.h"

namespace moas::core {

void register_moas_invariants(chaos::NetworkInvariantChecker& checker,
                              std::shared_ptr<const AlarmLog> alarms) {
  using Violation = chaos::NetworkInvariantChecker::Violation;

  if (alarms) {
    checker.add_custom([alarms](const bgp::Network&, std::vector<Violation>& out) {
      const auto& log = alarms->alarms();
      for (std::size_t i = 1; i < log.size(); ++i) {
        if (log[i].at < log[i - 1].at) {
          out.push_back({"alarm-log-monotone",
                         "alarm " + std::to_string(i) + " at t=" +
                             std::to_string(log[i].at) + " precedes its predecessor at t=" +
                             std::to_string(log[i - 1].at)});
        }
      }
      // Zero lost alarms: at quiescence (which is when the checker runs)
      // every investigation has completed, so nothing may still be Pending —
      // a Pending alarm here was silently dropped by the resolution path.
      for (std::size_t i = 0; i < log.size(); ++i) {
        if (log[i].state == MoasAlarm::State::Pending) {
          out.push_back({"no-pending-alarms",
                         "alarm " + std::to_string(i) + " for " +
                             log[i].prefix.to_string() +
                             " is still pending at quiescence"});
        }
      }
    });
  }

  checker.add_custom([](const bgp::Network& network, std::vector<Violation>& out) {
    for (bgp::Asn asn : network.asns()) {
      const bgp::Router& router = network.router(asn);
      for (const net::Prefix& prefix : router.loc_rib().prefixes()) {
        const bgp::RibEntry* entry = router.loc_rib().best(prefix);
        if (!read_claim(entry->route).self_consistent()) {
          out.push_back({"moas-list-self-consistent",
                         std::to_string(asn) + " installed " + entry->route.to_string() +
                             " whose explicit MOAS list omits its own origin"});
        }
      }
    }
  });
}

}  // namespace moas::core
