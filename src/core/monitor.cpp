#include "moas/core/monitor.h"

#include <map>
#include <sstream>

#include "moas/core/moas_list.h"
#include "moas/util/assert.h"
#include "moas/util/table.h"

namespace moas::core {

ErrorHandlingSummary ErrorHandlingSummary::from_metrics(
    const obs::MetricsRegistry& registry) {
  ErrorHandlingSummary summary;
  summary.error_withdraws = registry.counter("router.error_withdraws");
  summary.attr_corruptions = registry.counter("chaos.attr_corruptions_applied");
  summary.treat_as_withdraws = registry.counter("chaos.treat_as_withdraws");
  summary.attr_discards = registry.counter("chaos.attr_discards");
  summary.corrupt_session_resets = registry.counter("chaos.corrupt_session_resets");
  summary.poisoned_blocked = registry.counter("chaos.poisoned_blocked");
  return summary;
}

std::string error_handling_table_from_metrics(
    const std::vector<std::pair<std::string, obs::MetricsRegistry>>& rows) {
  util::TablePrinter table({"arm", "corruptions", "treat-as-withdraw", "attr-discard",
                            "resets-avoided", "session-resets", "error-withdraws",
                            "poisoned-blocked"});
  for (const auto& [label, registry] : rows) {
    const ErrorHandlingSummary s = ErrorHandlingSummary::from_metrics(registry);
    table.add_row({label, std::to_string(s.attr_corruptions),
                   std::to_string(s.treat_as_withdraws), std::to_string(s.attr_discards),
                   std::to_string(s.resets_avoided()),
                   std::to_string(s.corrupt_session_resets),
                   std::to_string(s.error_withdraws), std::to_string(s.poisoned_blocked)});
  }
  std::ostringstream os;
  table.print(os);
  return os.str();
}

MoasMonitor::MoasMonitor(std::vector<bgp::Asn> vantages) : vantages_(std::move(vantages)) {
  MOAS_REQUIRE(!vantages_.empty(), "monitor needs at least one vantage");
}

std::vector<MoasAlarm> MoasMonitor::scan(const bgp::Network& network) const {
  // prefix -> (first list seen, vantage that reported it)
  std::map<net::Prefix, std::pair<AsnSet, bgp::Asn>> reference;
  std::vector<MoasAlarm> out;
  std::map<net::Prefix, bool> already_alarmed;

  for (bgp::Asn vantage : vantages_) {
    const bgp::Router& router = network.router(vantage);
    for (const net::Prefix& prefix : router.loc_rib().prefixes()) {
      const bgp::RibEntry* entry = router.loc_rib().best(prefix);
      MOAS_ENSURE(entry != nullptr, "loc-rib listed a prefix without a best route");
      MoasClaim claim = read_claim(entry->route);
      auto [it, fresh] = reference.try_emplace(prefix, claim.list, vantage);
      if (fresh || lists_consistent(it->second.first, claim.list)) continue;
      if (already_alarmed[prefix]) continue;
      already_alarmed[prefix] = true;

      MoasAlarm alarm;
      alarm.at = network.clock().now();
      alarm.observer = vantage;
      alarm.prefix = prefix;
      alarm.reference_list = it->second.first;
      alarm.observed_list = std::move(claim.list);
      alarm.offending_origins = std::move(claim.origins);
      alarm.cause = MoasAlarm::Cause::ListMismatch;
      out.push_back(std::move(alarm));
    }
  }
  return out;
}

}  // namespace moas::core
