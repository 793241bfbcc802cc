// Differential test of the checkers that share the MOAS kernel
// (core/moas_list.h): the same scripted claims go through the in-router
// MoasDetector and the streaming DetectorShard. They must agree wherever
// their policies coincide, and differ exactly where the policies are meant
// to differ. The shard's duration accrual is checked against the Section 3
// MoasObserver on one hand-built trace.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "moas/core/detector.h"
#include "moas/measure/observer.h"
#include "moas/stream/shard.h"

namespace moas::core {
namespace {

const net::Prefix kPrefix = *net::Prefix::parse("135.38.0.0/16");

/// One announcement: its origin and the explicit MOAS list it carries
/// (empty = no list).
struct Claim {
  bgp::Asn origin = 0;
  AsnSet list;
};

/// The origin set a list-less trace feed would show for the claim.
AsnSet claimed_set(const Claim& claim) {
  return claim.list.empty() ? AsnSet{claim.origin} : claim.list;
}

class AlarmOnlyContext final : public bgp::RouterContext {
 public:
  bgp::Asn self() const override { return 77; }
  sim::Time current_time() const override { return 0.0; }
  std::size_t invalidate_origins(const net::Prefix&, const AsnSet&) override { return 0; }
};

/// Alarms the alarm-only detector raises; each claim arrives from its origin.
std::size_t detector_alarms(const std::vector<Claim>& script) {
  auto alarms = std::make_shared<AlarmLog>();
  MoasDetector detector(alarms, nullptr);
  AlarmOnlyContext ctx;
  for (const Claim& claim : script) {
    bgp::Route route;
    route.prefix = kPrefix;
    route.attrs.path = bgp::AsPath({claim.origin});
    if (!claim.list.empty()) route.attrs.communities = encode_moas_list(claim.list);
    detector.accept(route, claim.origin, ctx);
  }
  return alarms->size();
}

/// Alarms the shard raises when each claim is one day's update.
std::size_t shard_alarms(const std::vector<Claim>& script) {
  stream::DetectorShard shard(stream::ShardConfig{});
  int day = 0;
  for (const Claim& claim : script) {
    stream::StreamUpdate u;
    u.seq = static_cast<std::uint64_t>(day);
    u.day = day;
    u.at = day + 0.5;
    u.prefix = kPrefix;
    u.origins = claimed_set(claim);
    shard.process_day(day++, {}, {&u});
  }
  return shard.alarms().size();
}

TEST(MoasKernelDifferential, StableOriginRaisesNoAlarm) {
  const std::vector<Claim> script{{1, {}}, {1, {}}, {1, {}}};
  EXPECT_EQ(detector_alarms(script), 0u);
  EXPECT_EQ(shard_alarms(script), 0u);
}

TEST(MoasKernelDifferential, StableExplicitListRaisesNoAlarm) {
  const std::vector<Claim> script{{1, {1, 2}}, {2, {1, 2}}, {1, {1, 2}}};
  EXPECT_EQ(detector_alarms(script), 0u);
  EXPECT_EQ(shard_alarms(script), 0u);
}

TEST(MoasKernelDifferential, HijackAlarmsInBoth) {
  const std::vector<Claim> script{{1, {}}, {9, {}}};
  EXPECT_GT(detector_alarms(script), 0u);
  EXPECT_GT(shard_alarms(script), 0u);
}

TEST(MoasKernelDifferential, AugmentedForgedListAlarmsInBoth) {
  const std::vector<Claim> script{{1, {1, 2}}, {9, {1, 2, 9}}};
  EXPECT_GT(detector_alarms(script), 0u);
  EXPECT_GT(shard_alarms(script), 0u);
}

TEST(MoasKernelDifferential, StrippedListAlarmsInDetectorOnly) {
  // The intended difference: after {1, 2}, origin 1 announces with its
  // list stripped. The detector sees the implicit {1} differ from the
  // reference and raises the Section 4.3 false alarm. The shard's feed
  // carries no lists, so a smaller origin set is covered and stays silent.
  const std::vector<Claim> script{{1, {1, 2}}, {1, {}}};
  EXPECT_EQ(detector_alarms(script), 1u);
  EXPECT_EQ(shard_alarms(script), 0u);
}

TEST(MoasKernelDifferential, ShardAndObserverAgreeOnDurations) {
  const net::Prefix a = *net::Prefix::parse("10.0.0.0/8");
  const net::Prefix b = *net::Prefix::parse("11.0.0.0/8");
  const net::Prefix c = *net::Prefix::parse("12.0.0.0/8");
  // day -> that day's updates, in feed order. Days 4-5 are a feed gap.
  // Prefix a is MOAS on days 0, 1, 3 and 6 (two updates on day 1); b only
  // ever has one origin; c turns MOAS on its second update of day 2.
  const std::map<int, std::vector<std::pair<net::Prefix, AsnSet>>> trace{
      {0, {{a, {1, 2}}, {b, {7}}}},
      {1, {{a, {1, 2}}, {a, {1, 2, 3}}, {b, {7}}}},
      {2, {{a, {1}}, {c, {5}}, {c, {5, 6}}}},
      {3, {{a, {1, 2}}, {b, {8}}, {c, {5, 6}}}},
      {6, {{a, {2, 3}}, {b, {7}}}},
  };

  stream::DetectorShard shard(stream::ShardConfig{});
  measure::MoasObserver observer;
  std::uint64_t seq = 0;
  int previous = -1;
  for (const auto& [day, updates] : trace) {
    std::vector<stream::StreamUpdate> owned;
    measure::DailyDump dump;
    dump.day = day;
    for (const auto& [prefix, origins] : updates) {
      stream::StreamUpdate u;
      u.seq = seq++;
      u.day = day;
      u.at = day + 0.5;
      u.prefix = prefix;
      u.origins = origins;
      owned.push_back(u);
      // The day's table shows every origin seen for the prefix that day.
      for (bgp::Asn asn : origins) dump.origins[prefix].insert(asn);
    }
    std::vector<const stream::StreamUpdate*> batch;
    for (const auto& u : owned) batch.push_back(&u);
    std::vector<chaos::GapWindow> gaps;
    if (previous >= 0 && day > previous + 1) gaps.push_back({previous + 1, day - 1});
    shard.process_day(day, gaps, batch);
    observer.ingest(dump);
    previous = day;
  }

  std::map<net::Prefix, int> observed;
  for (const measure::ObservedCase& oc : observer.cases()) {
    observed[oc.prefix] = oc.duration_days;
  }
  std::map<net::Prefix, int> streamed;
  for (const auto& [prefix, st] : shard.states()) {
    if (st.duration_days > 0) streamed[prefix] = st.duration_days;
  }
  EXPECT_EQ(streamed, observed);
  EXPECT_EQ(observed, (std::map<net::Prefix, int>{{a, 4}, {c, 2}}));
}

}  // namespace
}  // namespace moas::core
