// Seeded fuzzing of the StreamDetector ingest front-end.
//
// Each case feeds a random update sequence straight into ingest(): days
// drawn mostly from a short trace window but also from the extremes of the
// int range and the edges of the accepted [0, kMaxDay] range, random
// prefixes and origin sets (empty ones included), replayed sequence numbers
// and malformed flags. Every input must be either accepted or rejected —
// never a crash, an invariant failure or an exception — and the counters
// must say which: a reference model of the front-end's rules predicts the
// malformed and duplicate tallies, and every accepted update is either
// processed or shed by a shard. The run must finish with zero open alarms,
// and detectors fed the same input with jobs 1 and 4 must compare equal.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "moas/stream/detector.h"
#include "moas/util/rng.h"

namespace moas::stream {
namespace {

StreamConfig fuzz_config(std::size_t jobs) {
  StreamConfig config;
  config.shards = 4;
  config.jobs = jobs;
  config.flush_margin = 6;
  config.shard.conflict_ttl_days = 3.0;
  config.shard.day_capacity = 5;
  config.shard.alarm_retention = 3;
  config.shard.evict_idle_days = 4;
  config.shard.memory_budget_bytes = 4 * 1024;
  return config;
}

const std::vector<int> kExtremeDays = {
    std::numeric_limits<int>::min(), std::numeric_limits<int>::min() + 1, -2, -1, 0,
    kMaxDay - 1, kMaxDay, kMaxDay + 1, std::numeric_limits<int>::max() - 1,
    std::numeric_limits<int>::max()};

int random_day(util::Rng& rng, int& cursor) {
  if (rng.chance(0.02)) return kExtremeDays[rng.index(kExtremeDays.size())];
  // A slowly advancing trace clock with reordering skew around it.
  if (rng.chance(0.05)) cursor += static_cast<int>(rng.index(4));
  return cursor - static_cast<int>(rng.index(3));
}

std::vector<StreamUpdate> random_input(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<net::Prefix> prefixes;
  for (unsigned i = 0; i < 12; ++i) {
    prefixes.push_back(*net::Prefix::parse("10." + std::to_string(i) + ".0.0/16"));
  }
  std::vector<StreamUpdate> input;
  int cursor = 0;
  for (std::uint64_t seq = 0; seq < 3000; ++seq) {
    StreamUpdate u;
    // Replay an earlier sequence number now and then: a duplicate delivery.
    u.seq = !input.empty() && rng.chance(0.05) ? input[rng.index(input.size())].seq : seq;
    u.day = random_day(rng, cursor);
    u.at = static_cast<double>(u.day) + rng.uniform01();
    u.malformed = rng.chance(0.04);
    u.prefix = prefixes[rng.index(prefixes.size())];
    const std::size_t origins = rng.index(4);
    for (std::size_t k = 0; k < origins; ++k) {
      u.origins.insert(static_cast<bgp::Asn>(64500 + rng.index(5)));
    }
    input.push_back(std::move(u));
  }
  return input;
}

StreamDetector run(const std::vector<StreamUpdate>& input, std::size_t jobs) {
  StreamDetector detector(fuzz_config(jobs));
  for (const StreamUpdate& u : input) detector.ingest(u);
  detector.flush_all();
  detector.finish();
  return detector;
}

class IngestFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IngestFuzz, EveryUpdateIsAcceptedOrRejectedAndNoAlarmStaysOpen) {
  const std::vector<StreamUpdate> input = random_input(GetParam());

  // Reference model of the front-end's rules: a malformed flag or a day
  // outside [0, kMaxDay] rejects, then a sequence number seen before (the
  // window holds the whole input) is a duplicate, and the rest is accepted.
  std::uint64_t malformed = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t accepted = 0;
  std::set<std::uint64_t> seen;
  for (const StreamUpdate& u : input) {
    if (u.malformed || u.day < 0 || u.day > kMaxDay) {
      ++malformed;
    } else if (!seen.insert(u.seq).second) {
      ++duplicates;
    } else {
      ++accepted;
    }
  }
  ASSERT_LE(input.size(), fuzz_config(1).dup_window);
  ASSERT_GT(malformed, 0u);
  ASSERT_GT(duplicates, 0u);

  const StreamDetector serial = run(input, 1);
  const FrontCounters& front = serial.front_counters();
  EXPECT_EQ(front.delivered, input.size());
  EXPECT_EQ(front.malformed_rejected, malformed);
  EXPECT_EQ(front.duplicates_suppressed, duplicates);
  const obs::MetricsRegistry metrics = serial.metrics();
  EXPECT_EQ(metrics.counter("stream.updates_processed") + metrics.counter("stream.shed_updates"),
            accepted);
  EXPECT_LE(serial.last_flushed_day(), kMaxDay + 1);

  EXPECT_EQ(metrics.gauge("stream.open_alarms"), 0.0);
  for (const core::MoasAlarm& alarm : serial.merged_alarms()) {
    EXPECT_TRUE(alarm.state == core::MoasAlarm::State::Resolved ||
                alarm.state == core::MoasAlarm::State::Expired)
        << alarm.to_string();
  }

  const StreamDetector parallel = run(input, 4);
  EXPECT_TRUE(serial == parallel);
  EXPECT_EQ(serial.alarm_log_text(), parallel.alarm_log_text());
  EXPECT_EQ(metrics.to_json(), parallel.metrics().to_json());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IngestFuzz, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace moas::stream
