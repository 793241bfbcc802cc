// Failure injection: link failures flush routes, trigger withdraw storms,
// and the network reconverges — including with the MOAS detector deployed.
#include <gtest/gtest.h>

#include "moas/bgp/network.h"
#include "moas/chaos/invariants.h"
#include "moas/core/attacker.h"
#include "moas/core/detector.h"
#include "moas/core/moas_list.h"
#include "moas/core/resolver.h"

namespace moas::bgp {
namespace {

net::Prefix pfx(const char* text) { return *net::Prefix::parse(text); }

/// Every failure-injection test ends with a full network audit: no stale
/// Adj-RIB-In state, no routes over dead links, bookkeeping consistent.
void expect_invariants(const Network& network) {
  chaos::NetworkInvariantChecker checker;
  for (const auto& violation : checker.check(network)) {
    ADD_FAILURE() << violation.to_string();
  }
}

/// Diamond: 1 - {2, 3} - 4.
void diamond(Network& network) {
  for (Asn asn : {1u, 2u, 3u, 4u}) network.add_router(asn);
  network.connect(1, 2);
  network.connect(1, 3);
  network.connect(2, 4);
  network.connect(3, 4);
}

TEST(Failure, LinkDownReroutesAroundIt) {
  Network network;
  diamond(network);
  network.router(1).originate(pfx("10.0.0.0/8"));
  network.run_to_quiescence();
  const RibEntry* before = network.router(4).best(pfx("10.0.0.0/8"));
  ASSERT_NE(before, nullptr);
  const Asn used = *before->route.attrs.path.first();

  network.set_link_up(used, 4, false);
  network.run_to_quiescence();
  const RibEntry* after = network.router(4).best(pfx("10.0.0.0/8"));
  ASSERT_NE(after, nullptr);
  EXPECT_NE(*after->route.attrs.path.first(), used);
  expect_invariants(network);
}

TEST(Failure, CutVertexLossesReachability) {
  Network network;
  for (Asn asn : {1u, 2u, 3u}) network.add_router(asn);
  network.connect(1, 2);
  network.connect(2, 3);
  network.router(1).originate(pfx("10.0.0.0/8"));
  network.run_to_quiescence();
  ASSERT_NE(network.router(3).best(pfx("10.0.0.0/8")), nullptr);
  network.set_link_up(1, 2, false);
  network.run_to_quiescence();
  EXPECT_EQ(network.router(2).best(pfx("10.0.0.0/8")), nullptr);
  EXPECT_EQ(network.router(3).best(pfx("10.0.0.0/8")), nullptr);
  expect_invariants(network);
}

TEST(Failure, RestoreReadvertises) {
  Network network;
  for (Asn asn : {1u, 2u, 3u}) network.add_router(asn);
  network.connect(1, 2);
  network.connect(2, 3);
  network.router(1).originate(pfx("10.0.0.0/8"));
  network.run_to_quiescence();
  network.set_link_up(1, 2, false);
  network.run_to_quiescence();
  ASSERT_EQ(network.router(3).best(pfx("10.0.0.0/8")), nullptr);

  network.set_link_up(1, 2, true);
  network.run_to_quiescence();
  ASSERT_NE(network.router(3).best(pfx("10.0.0.0/8")), nullptr);
  EXPECT_EQ(network.router(3).best_origin(pfx("10.0.0.0/8")), std::optional<Asn>(1u));
  expect_invariants(network);
}

TEST(Failure, InFlightMessagesDropWithTheLink) {
  Network network;
  for (Asn asn : {1u, 2u}) network.add_router(asn);
  network.connect(1, 2);
  network.router(1).originate(pfx("10.0.0.0/8"));  // update now in flight
  network.set_link_up(1, 2, false);                // fails before delivery
  network.run_to_quiescence();
  EXPECT_EQ(network.router(2).best(pfx("10.0.0.0/8")), nullptr);
  EXPECT_GT(network.messages_dropped(), 0u);
  expect_invariants(network);
}

TEST(Failure, LinkStateQueriesAndValidation) {
  Network network;
  diamond(network);
  EXPECT_TRUE(network.link_up(1, 2));
  network.set_link_up(1, 2, false);
  EXPECT_FALSE(network.link_up(1, 2));
  EXPECT_FALSE(network.link_up(2, 1));  // symmetric
  network.set_link_up(1, 2, false);     // idempotent
  network.set_link_up(1, 2, true);
  EXPECT_TRUE(network.link_up(1, 2));
  EXPECT_THROW(network.set_link_up(1, 4, false), std::invalid_argument);
  network.run_to_quiescence();
  expect_invariants(network);
}

TEST(Failure, DetectorStateSurvivesChurn) {
  // The detector's banned-origin memory keeps protecting across flaps: the
  // attacker route is refused even when the valid path flaps away and back.
  Network network;
  for (Asn asn : {1u, 2u, 4u, 52u}) network.add_router(asn);
  network.connect(1, 2);
  network.connect(2, 4);
  network.connect(4, 52);

  const auto prefix = pfx("135.38.0.0/16");
  auto truth = std::make_shared<core::PrefixOriginDb>();
  truth->set(prefix, {1});
  auto alarms = std::make_shared<core::AlarmLog>();
  auto resolver = std::make_shared<core::OracleResolver>(truth);
  for (Asn asn : {1u, 2u, 4u}) {
    network.router(asn).set_validator(
        std::make_shared<core::MoasDetector>(alarms, resolver));
  }

  network.router(1).originate(prefix);
  core::AttackPlan plan;
  plan.attacker = 52;
  plan.target = prefix;
  plan.valid_origins = {1};
  plan.strategy = core::AttackerStrategy::OwnList;
  core::launch_attack(network, plan);
  network.run_to_quiescence();
  EXPECT_EQ(network.router(4).best_origin(prefix), std::optional<Asn>(1u));

  // Flap the valid path: while it is down, AS 4 has no route, but it does
  // NOT fall back to the banned attacker route.
  network.set_link_up(2, 4, false);
  network.run_to_quiescence();
  EXPECT_EQ(network.router(4).best(prefix), nullptr);

  network.set_link_up(2, 4, true);
  network.run_to_quiescence();
  EXPECT_EQ(network.router(4).best_origin(prefix), std::optional<Asn>(1u));
  expect_invariants(network);
}

TEST(Failure, WithdrawStormIsBounded) {
  // A flapping link must not leave the network churning forever.
  Network network;
  diamond(network);
  network.router(1).originate(pfx("10.0.0.0/8"));
  network.run_to_quiescence();
  const auto baseline = network.messages_sent();
  for (int i = 0; i < 10; ++i) {
    network.set_link_up(2, 4, false);
    network.run_to_quiescence();
    network.set_link_up(2, 4, true);
    ASSERT_TRUE(network.run_to_quiescence());
  }
  // Each flap cycle costs a bounded number of messages (no amplification).
  EXPECT_LT(network.messages_sent() - baseline, 200u);
  EXPECT_EQ(network.router(4).best_origin(pfx("10.0.0.0/8")), std::optional<Asn>(1u));
  expect_invariants(network);
}

TEST(Failure, FlapTrainConvergesWithInvariants) {
  // A rapid down/up train on both of AS 4's uplinks, with quiescence only
  // at the end: the network must settle with consistent state.
  Network network;
  diamond(network);
  network.router(1).originate(pfx("10.0.0.0/8"));
  network.run_to_quiescence();
  for (int i = 0; i < 5; ++i) {
    network.set_link_up(2, 4, false);
    network.set_link_up(3, 4, false);
    network.set_link_up(2, 4, true);
    network.set_link_up(3, 4, true);
  }
  ASSERT_TRUE(network.run_to_quiescence());
  EXPECT_EQ(network.router(4).best_origin(pfx("10.0.0.0/8")), std::optional<Asn>(1u));
  expect_invariants(network);
}

TEST(Failure, DowntimeOriginationReplaysOnRecovery) {
  // Regression: a route originated while the link is down must still reach
  // the peer when the session comes back (the down-time advertisement must
  // not be booked as already sent).
  Network network;
  for (Asn asn : {1u, 2u}) network.add_router(asn);
  network.connect(1, 2);
  network.set_link_up(1, 2, false);
  network.router(1).originate(pfx("10.0.0.0/8"));
  network.run_to_quiescence();
  ASSERT_EQ(network.router(2).best(pfx("10.0.0.0/8")), nullptr);

  network.set_link_up(1, 2, true);
  network.run_to_quiescence();
  EXPECT_NE(network.router(2).best(pfx("10.0.0.0/8")), nullptr)
      << "origination during downtime must replay on session re-establishment";
  expect_invariants(network);
}

TEST(Failure, SuppressedExportIsNotBooked) {
  // Regression: a route vetoed by the export filter must not be recorded as
  // advertised — otherwise a later withdraw would be sent for a route the
  // peer never saw, and the invariant audit would flag the bookkeeping.
  Network network;
  for (Asn asn : {1u, 2u}) network.add_router(asn);
  network.connect(1, 2);
  network.router(1).set_export_filter([](const Update&, Asn) { return false; });
  network.router(1).originate(pfx("10.0.0.0/8"));
  network.run_to_quiescence();
  EXPECT_EQ(network.router(2).best(pfx("10.0.0.0/8")), nullptr);
  EXPECT_EQ(network.router(1).advertised_to(2, pfx("10.0.0.0/8")), nullptr);
  expect_invariants(network);
}

TEST(Failure, ColdDetectorRebuildsReferenceFromRib) {
  // A detector with purged memory (churn flushed its supporters, or it was
  // installed over a live RIB) must not blindly first-adopt the next
  // announcement: origins already accepted into the Adj-RIB-In are
  // evidence, and a mismatch is a latent MOAS conflict to resolve.
  Network network;
  for (Asn asn : {1u, 2u, 4u, 52u}) network.add_router(asn);
  network.connect(1, 2);
  network.connect(2, 4);
  network.connect(4, 52);  // attacker path is shorter than the valid one

  const auto prefix = pfx("135.38.0.0/16");
  auto truth = std::make_shared<core::PrefixOriginDb>();
  truth->set(prefix, {1});
  auto alarms = std::make_shared<core::AlarmLog>();
  auto resolver = std::make_shared<core::OracleResolver>(truth);

  // The false route lands while AS 4 has no detector: it is accepted into
  // the RIB like plain BGP would.
  network.router(52).originate(prefix);
  network.run_to_quiescence();
  ASSERT_EQ(network.router(4).best_origin(prefix), std::optional<Asn>(52u));

  // Detector arrives cold, then the valid (longer) route shows up. Without
  // RIB evidence the detector would adopt {1} as reference and leave the
  // shorter false route installed; with it, the conflict resolves, 52 is
  // banned and purged, and the valid route wins despite the longer path.
  auto detector = std::make_shared<core::MoasDetector>(alarms, resolver);
  network.router(4).set_validator(detector);
  network.router(1).originate(prefix);
  network.run_to_quiescence();
  EXPECT_EQ(network.router(4).best_origin(prefix), std::optional<Asn>(1u));
  EXPECT_TRUE(detector->banned_origins(prefix).contains(52));
  EXPECT_FALSE(alarms->alarms().empty());
  expect_invariants(network);
}

TEST(Failure, ColdRebuildSeesAttackerEvidenceInRib) {
  // Companion to ColdDetectorRebuildsReferenceFromRib, evidence reversed:
  // here the cold rebuild's Adj-RIB-In evidence IS the attacker's origin.
  // 1 and 52 are both one hop from 4 and both accepted pre-detector; a flap
  // of the valid link flushes 1's entry, so when the replayed valid route
  // arrives at the cold detector, the rebuilt reference is {52}. That must
  // surface as a MOAS conflict and resolve — not let the attacker's
  // evidence-derived reference reject the valid route.
  Network network;
  for (Asn asn : {1u, 4u, 52u}) network.add_router(asn);
  network.connect(1, 4);
  network.connect(52, 4);

  const auto prefix = pfx("135.38.0.0/16");
  auto truth = std::make_shared<core::PrefixOriginDb>();
  truth->set(prefix, {1});
  auto alarms = std::make_shared<core::AlarmLog>();
  auto resolver = std::make_shared<core::OracleResolver>(truth);

  network.router(1).originate(prefix);
  network.router(52).originate(prefix);
  network.run_to_quiescence();  // no detector: both routes sit in 4's RIB

  auto detector = std::make_shared<core::MoasDetector>(alarms, resolver);
  network.router(4).set_validator(detector);
  network.set_link_up(1, 4, false);  // valid entry flushes...
  network.run_to_quiescence();
  ASSERT_EQ(network.router(4).best_origin(prefix), std::optional<Asn>(52u));
  network.set_link_up(1, 4, true);  // ...and the replay hits the cold detector
  network.run_to_quiescence();

  EXPECT_EQ(network.router(4).best_origin(prefix), std::optional<Asn>(1u));
  EXPECT_TRUE(detector->banned_origins(prefix).contains(52));
  EXPECT_FALSE(alarms->alarms().empty());
  expect_invariants(network);
}

TEST(Failure, GracefulRestartStaleRoutesFeedColdRebuild) {
  // With graceful restart, a crashed peer's routes stay in the Adj-RIB-In
  // (stale). A cold detector rebuild must treat them as evidence like any
  // other accepted route: the stale attacker entry surfaces the conflict,
  // resolution purges it (stale mark included), and the attacker stays
  // banned when it comes back and replays.
  Network::Config config;
  config.graceful_restart = 60.0;
  Network network(config);
  for (Asn asn : {1u, 4u, 52u}) network.add_router(asn);
  network.connect(1, 4);
  network.connect(52, 4);

  const auto prefix = pfx("135.38.0.0/16");
  auto truth = std::make_shared<core::PrefixOriginDb>();
  truth->set(prefix, {1});
  auto alarms = std::make_shared<core::AlarmLog>();
  auto resolver = std::make_shared<core::OracleResolver>(truth);

  network.router(1).originate(prefix);
  network.router(52).originate(prefix);
  network.run_to_quiescence();

  network.crash_router(52);  // GR: 4 retains the attacker route, stale
  ASSERT_TRUE(network.router(4).adj_rib_in().is_stale(prefix, 52));

  auto detector = std::make_shared<core::MoasDetector>(alarms, resolver);
  network.router(4).set_validator(detector);
  network.set_link_up(1, 4, false);
  network.set_link_up(1, 4, true);  // replayed valid route meets the cold detector
  network.run_to_quiescence();

  EXPECT_EQ(network.router(4).best_origin(prefix), std::optional<Asn>(1u));
  EXPECT_TRUE(detector->banned_origins(prefix).contains(52));
  EXPECT_EQ(network.router(4).adj_rib_in().stale_count(), 0u)
      << "the purge must clear the stale entry and its mark";

  network.restart_router(52);  // the attacker replays; the ban must hold
  ASSERT_TRUE(network.run_to_quiescence());
  EXPECT_EQ(network.router(4).best_origin(prefix), std::optional<Asn>(1u));
  EXPECT_GT(detector->stats().rejections, 0u);
  expect_invariants(network);
}

TEST(Failure, CrashLosesStateAndRestartRelearns) {
  Network network;
  diamond(network);
  network.router(1).originate(pfx("10.0.0.0/8"));
  network.run_to_quiescence();
  ASSERT_NE(network.router(4).best(pfx("10.0.0.0/8")), nullptr);

  network.crash_router(3);
  network.run_to_quiescence();
  EXPECT_TRUE(network.router_crashed(3));
  EXPECT_EQ(network.router(3).loc_rib().size(), 0u);
  const RibEntry* via2 = network.router(4).best(pfx("10.0.0.0/8"));
  ASSERT_NE(via2, nullptr);
  EXPECT_EQ(via2->learned_from, 2u);
  expect_invariants(network);

  network.restart_router(3);
  ASSERT_TRUE(network.run_to_quiescence());
  EXPECT_FALSE(network.router_crashed(3));
  EXPECT_NE(network.router(3).best(pfx("10.0.0.0/8")), nullptr);
  expect_invariants(network);
}

}  // namespace
}  // namespace moas::bgp
