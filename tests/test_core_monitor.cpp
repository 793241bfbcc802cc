#include "moas/core/monitor.h"

#include <gtest/gtest.h>

#include "moas/core/attacker.h"
#include "moas/core/moas_list.h"

namespace moas::core {
namespace {

const net::Prefix kPrefix = *net::Prefix::parse("135.38.0.0/16");

/// Square 1-2-3-4-1: origin at 1, optional attacker at 3.
void square(bgp::Network& network) {
  for (bgp::Asn asn : {1u, 2u, 3u, 4u}) network.add_router(asn);
  network.connect(1, 2);
  network.connect(2, 3);
  network.connect(3, 4);
  network.connect(4, 1);
}

TEST(MoasMonitor, RequiresVantages) {
  EXPECT_THROW(MoasMonitor({}), std::invalid_argument);
}

TEST(MoasMonitor, QuietOnHealthyNetwork) {
  bgp::Network network;
  square(network);
  network.router(1).originate(kPrefix);
  network.run_to_quiescence();
  MoasMonitor monitor({2, 3, 4});
  EXPECT_TRUE(monitor.scan(network).empty());
}

TEST(MoasMonitor, QuietOnConsistentValidMoas) {
  bgp::Network network;
  square(network);
  const auto list = encode_moas_list({1, 3});
  network.router(1).originate(kPrefix, list);
  network.router(3).originate(kPrefix, list);
  network.run_to_quiescence();
  MoasMonitor monitor({2, 4});
  EXPECT_TRUE(monitor.scan(network).empty());
}

TEST(MoasMonitor, DetectsHijackAcrossVantages) {
  // Chain 1 - 2 - 4 - 3: vantage 2 is one hop from the origin and keeps the
  // valid route; vantage 4 is one hop from the attacker and adopts the
  // false one. With plain BGP they disagree on the origin — exactly what
  // the off-line monitor catches.
  bgp::Network network;
  for (bgp::Asn asn : {1u, 2u, 3u, 4u}) network.add_router(asn);
  network.connect(1, 2);
  network.connect(2, 4);
  network.connect(4, 3);
  network.router(1).originate(kPrefix);
  network.run_to_quiescence();
  AttackPlan plan;
  plan.attacker = 3;
  plan.target = kPrefix;
  plan.valid_origins = {1};
  plan.strategy = AttackerStrategy::NoList;
  launch_attack(network, plan);
  network.run_to_quiescence();

  EXPECT_EQ(network.router(2).best_origin(kPrefix), std::optional<bgp::Asn>(1u));
  EXPECT_EQ(network.router(4).best_origin(kPrefix), std::optional<bgp::Asn>(3u));

  MoasMonitor monitor({2, 4});
  const auto alarms = monitor.scan(network);
  ASSERT_EQ(alarms.size(), 1u);
  EXPECT_EQ(alarms[0].prefix, kPrefix);
  EXPECT_EQ(alarms[0].cause, MoasAlarm::Cause::ListMismatch);
}

TEST(MoasMonitor, OneAlarmPerConflictingPrefix) {
  bgp::Network network;
  square(network);
  network.router(1).originate(kPrefix);
  AttackPlan plan;
  plan.attacker = 3;
  plan.target = kPrefix;
  plan.valid_origins = {1};
  plan.strategy = AttackerStrategy::OwnList;
  launch_attack(network, plan);
  network.run_to_quiescence();
  // Even with three vantages disagreeing, the prefix is reported once.
  MoasMonitor monitor({1, 2, 4});
  EXPECT_EQ(monitor.scan(network).size(), 1u);
}

TEST(MoasMonitor, SingleVantageSeesNoConflict) {
  // A single table cannot disagree with itself: the monitor needs multiple
  // peers (the paper: "checks the MOAS List consistency from multiple
  // peers").
  bgp::Network network;
  square(network);
  network.router(1).originate(kPrefix);
  AttackPlan plan;
  plan.attacker = 3;
  plan.target = kPrefix;
  plan.valid_origins = {1};
  plan.strategy = AttackerStrategy::NoList;
  launch_attack(network, plan);
  network.run_to_quiescence();
  MoasMonitor monitor({4});
  EXPECT_TRUE(monitor.scan(network).empty());
}

}  // namespace
}  // namespace moas::core
