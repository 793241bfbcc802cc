// The network invariant checker: clean on healthy converged networks,
// loud on deliberately manufactured inconsistencies.
#include <gtest/gtest.h>

#include <memory>

#include "moas/chaos/invariants.h"
#include "moas/core/alarm.h"
#include "moas/core/detector.h"
#include "moas/core/moas_invariants.h"
#include "moas/core/resolver.h"

namespace moas::chaos {
namespace {

using bgp::Asn;
using bgp::Network;

net::Prefix pfx(const char* text) { return *net::Prefix::parse(text); }

void diamond(Network& network) {
  for (Asn asn : {1u, 2u, 3u, 4u}) network.add_router(asn);
  network.connect(1, 2);
  network.connect(1, 3);
  network.connect(2, 4);
  network.connect(3, 4);
}

TEST(ChaosInvariants, CleanAfterConvergence) {
  Network network;
  diamond(network);
  network.router(1).originate(pfx("10.0.0.0/8"));
  network.router(4).originate(pfx("20.0.0.0/8"));
  ASSERT_TRUE(network.run_to_quiescence());
  NetworkInvariantChecker checker;
  EXPECT_TRUE(checker.check(network).empty());
  EXPECT_NO_THROW(checker.require_clean(network));
}

TEST(ChaosInvariants, CleanAfterFailureAndRecovery) {
  Network network;
  diamond(network);
  network.router(1).originate(pfx("10.0.0.0/8"));
  ASSERT_TRUE(network.run_to_quiescence());
  network.set_link_up(2, 4, false);
  ASSERT_TRUE(network.run_to_quiescence());
  NetworkInvariantChecker checker;
  EXPECT_TRUE(checker.check(network).empty()) << "invariants must hold with a link down";
  network.set_link_up(2, 4, true);
  ASSERT_TRUE(network.run_to_quiescence());
  EXPECT_TRUE(checker.check(network).empty());
}

TEST(ChaosInvariants, SilentlySeveredLinkIsCaught) {
  // The negative control: fail a link *without* the session-down flushes.
  // Both sides keep routing over the dead link; the checker must see it.
  Network network;
  diamond(network);
  network.router(1).originate(pfx("10.0.0.0/8"));
  ASSERT_TRUE(network.run_to_quiescence());
  const bgp::RibEntry* best = network.router(4).best(pfx("10.0.0.0/8"));
  ASSERT_NE(best, nullptr);
  const Asn via = best->learned_from;

  network.sever_link_silently(via, 4);
  NetworkInvariantChecker checker;
  const auto violations = checker.check(network);
  ASSERT_FALSE(violations.empty());
  bool saw_liveness = false;
  for (const auto& violation : violations) {
    if (violation.invariant == "loc-rib-live-link") saw_liveness = true;
  }
  EXPECT_TRUE(saw_liveness);
  EXPECT_THROW(checker.require_clean(network), std::runtime_error);
}

TEST(ChaosInvariants, DroppedWithdrawLeavesStaleAdjRibIn) {
  // A lossy link eats a withdraw: the receiver keeps a route the sender no
  // longer stands behind. The mirror check flags it — unless the direction
  // is excluded as dirty, which is exactly how the engine reports lossy
  // faults it injected itself.
  Network network;
  for (Asn asn : {1u, 2u}) network.add_router(asn);
  network.connect(1, 2);
  network.router(1).originate(pfx("10.0.0.0/8"));
  ASSERT_TRUE(network.run_to_quiescence());

  network.set_message_tap([](Asn, Asn, const bgp::Update& update) {
    Network::TapVerdict verdict;
    if (update.kind == bgp::Update::Kind::Withdraw) {
      verdict.action = Network::TapVerdict::Action::Drop;
    }
    return verdict;
  });
  network.router(1).withdraw_origination(pfx("10.0.0.0/8"));
  ASSERT_TRUE(network.run_to_quiescence());
  network.set_message_tap(nullptr);

  NetworkInvariantChecker checker;
  const auto violations = checker.check(network);
  ASSERT_FALSE(violations.empty());
  bool saw_stale = false;
  for (const auto& violation : violations) {
    if (violation.invariant == "adj-rib-stale") saw_stale = true;
  }
  EXPECT_TRUE(saw_stale);

  checker.exclude_direction(1, 2);
  EXPECT_TRUE(checker.check(network).empty())
      << "excluding the dirty direction must silence the mirror check";
}

TEST(ChaosInvariants, CustomChecksRun) {
  Network network;
  diamond(network);
  ASSERT_TRUE(network.run_to_quiescence());
  NetworkInvariantChecker checker;
  checker.add_custom([](const Network&, std::vector<NetworkInvariantChecker::Violation>& out) {
    out.push_back({"always-fails", "injected by test"});
  });
  const auto violations = checker.check(network);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].invariant, "always-fails");
}

TEST(ChaosInvariants, MoasChecksCatchOutOfOrderAlarms) {
  Network network;
  diamond(network);
  ASSERT_TRUE(network.run_to_quiescence());

  auto alarms = std::make_shared<core::AlarmLog>();
  core::MoasAlarm late;
  late.at = 10.0;
  alarms->record(late);
  core::MoasAlarm early;
  early.at = 5.0;
  alarms->record(early);  // timestamps went backwards

  NetworkInvariantChecker checker;
  core::register_moas_invariants(checker, alarms);
  const auto violations = checker.check(network);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].invariant, "alarm-log-monotone");
}

TEST(ChaosInvariants, MoasChecksAcceptHealthyDetectorRun) {
  Network network;
  diamond(network);
  auto truth = std::make_shared<core::PrefixOriginDb>();
  const auto prefix = pfx("10.0.0.0/8");
  truth->set(prefix, {1});
  auto alarms = std::make_shared<core::AlarmLog>();
  auto resolver = std::make_shared<core::OracleResolver>(truth);
  for (Asn asn : {1u, 2u, 3u, 4u}) {
    network.router(asn).set_validator(std::make_shared<core::MoasDetector>(alarms, resolver));
  }
  network.router(1).originate(prefix);
  ASSERT_TRUE(network.run_to_quiescence());

  NetworkInvariantChecker checker;
  core::register_moas_invariants(checker, alarms);
  EXPECT_TRUE(checker.check(network).empty());
}

}  // namespace
}  // namespace moas::chaos
