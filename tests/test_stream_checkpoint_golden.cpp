// Checkpoint goldens and the restore differential.
//
// The perfbench digest covers the alarm log and the metrics manifest only.
// The goldens here pin the FNV-1a hash of every periodic checkpoint image of
// two feeds, so the eviction order, TTL expiry and the per-shard `bytes`
// lines cannot drift without a test noticing:
//   smoke replay   the perfbench stream_replay --smoke feed (attacks, churn,
//                  faulted transport, 8 shards, 128 KiB per shard)
//   budgeted       a denser faulted feed on 4 shards whose byte budget binds
//                  on every flushed day, with shedding and retention in play
// The restore test resumes a mid-run checkpoint of the budgeted feed and
// demands the uninterrupted result, with eviction and TTL expiry still to
// come after the restore.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "moas/stream/detector.h"
#include "moas/stream/feed.h"
#include "moas/stream/replay.h"

namespace moas::stream {
namespace {

struct Scenario {
  measure::SyntheticTrace trace;
  std::vector<OriginOverride> overrides;
  chaos::FeedFaultSchedule faults;
  StreamConfig config;
};

chaos::FeedFaultSchedule faulted_transport(int days, double gaps) {
  chaos::FeedFaultConfig config;
  config.seed = 97;
  config.horizon_days = days;
  config.gaps = gaps;
  config.gap_mean_days = 2.0;
  config.duplicate_prob = 0.01;
  config.reorder_prob = 0.02;
  config.reorder_max_skew = 8;
  config.garble_prob = 0.005;
  return chaos::compile_feed_faults(config);
}

std::vector<OriginOverride> churn_and_attacks(const measure::SyntheticTrace& trace,
                                              const ChurnConfig& churn, std::size_t attacks) {
  std::vector<OriginOverride> overrides = plan_churn(trace, churn);
  const auto plans =
      plan_attacks(trace, AttackConfig{.seed = 13, .attacks = attacks}, overrides);
  for (const auto& p : plans) overrides.push_back(p.inject);
  return overrides;
}

/// The perfbench stream_replay workload at --smoke size, default seed.
Scenario smoke_replay() {
  Scenario s;
  measure::TraceConfig trace_config;
  trace_config.days = 60;
  trace_config.active_start = 40;
  trace_config.active_end = 50;
  trace_config.faults_per_day = 5.0;
  trace_config.include_spike_1998 = false;
  trace_config.include_spike_2001 = false;
  util::Rng rng(1349);
  s.trace = measure::generate_trace(trace_config, rng);
  s.overrides = churn_and_attacks(
      s.trace, ChurnConfig{.seed = 11, .share = 0.1, .min_active_days = 30}, 4);
  s.faults = faulted_transport(s.trace.days, 2.0);
  s.config.shards = 8;
  s.config.flush_margin = 16;
  s.config.shard.alarm_retention = 512;
  s.config.shard.memory_budget_bytes = 128 * 1024;
  s.config.shard.evict_idle_days = 30;
  s.config.checkpoint_every_days = 4;
  return s;
}

/// A feed whose byte budget binds on every flushed day.
Scenario budgeted() {
  Scenario s;
  measure::TraceConfig trace_config;
  trace_config.days = 45;
  trace_config.active_start = 60;
  trace_config.active_end = 70;
  trace_config.faults_per_day = 8.0;
  trace_config.include_spike_1998 = false;
  trace_config.include_spike_2001 = false;
  util::Rng rng(77);
  s.trace = measure::generate_trace(trace_config, rng);
  s.overrides = churn_and_attacks(
      s.trace, ChurnConfig{.seed = 5, .share = 0.6, .min_active_days = 20}, 8);
  s.faults = faulted_transport(s.trace.days, 1.5);
  s.config.shards = 4;
  s.config.flush_margin = 8;
  s.config.shard.conflict_ttl_days = 4.0;
  s.config.shard.day_capacity = 12;
  s.config.shard.alarm_retention = 2;
  s.config.shard.evict_idle_days = 2;
  s.config.shard.memory_budget_bytes = 6 * 1024;
  s.config.checkpoint_every_days = 1;
  return s;
}

std::string fnv1a_hex(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(hash));
  return out;
}

std::string fingerprint(const StreamDetector& d) {
  return d.alarm_log_text() + d.metrics().to_json();
}

std::uint64_t total(const StreamDetector& d, std::uint64_t ShardCounters::*field) {
  std::uint64_t sum = 0;
  for (const auto& shard : d.shards()) sum += shard.counters().*field;
  return sum;
}

struct Checkpoint {
  int day = 0;
  std::string image;
  std::uint64_t evicted = 0;  // evictions so far, all shards
  std::uint64_t expired = 0;  // TTL expiries so far, all shards
};

struct RecordedRun {
  StreamDetector detector;
  std::vector<Checkpoint> checkpoints;
};

RecordedRun run_with_checkpoints(const Scenario& s, std::size_t jobs) {
  StreamConfig config = s.config;
  config.jobs = jobs;
  TraceReplaySource source(s.trace, s.overrides);
  FaultyFeed feed(source, s.faults);
  RecordedRun run{StreamDetector(config), {}};
  run.detector.run(feed, [&](const StreamDetector& d, int day) {
    std::ostringstream os;
    d.save_checkpoint(os);
    run.checkpoints.push_back({day, os.str(), total(d, &ShardCounters::evicted_prefixes),
                               total(d, &ShardCounters::alarms_expired)});
  });
  return run;
}

std::vector<std::string> image_hashes(const RecordedRun& run) {
  std::vector<std::string> out;
  for (const auto& c : run.checkpoints) out.push_back(fnv1a_hex(c.image));
  return out;
}

// Recorded from the serial end-of-day scan (full TTL walk, byte rescan,
// idle-then-warm sorted eviction) and the serial checkpoint writer.
const std::vector<std::string> kSmokeReplayImages = {
    "74784f42e87887bc", "15cc9ca50bb2efc4", "d3023f109ebee6f9", "66f88fc91641f5fd",
    "81d23f94f4f2f618", "dbf222fd99548dbf", "a738e51298172ac7", "fb754386958b89c5",
    "457722d273622fbf", "715e36c741dc26d1", "478d9472e6f2e202", "bf6c4eb73097d8d0",
    "2d18d48a35f3b388", "fc3f6db01d194ac5",
};

const std::vector<std::string> kBudgetedImages = {
    "e074473aabe25d0e", "4b8aaa3586f82a30", "07de9ab7d7b34cb7", "2bbadd9e7c32326e",
    "b25a661e2fe1b843", "5e0d18643ecacb7e", "f9fa91d27348b4ff", "a0934c2361dea3b3",
    "6efbae123734e5b4", "9be04f0397a8ef08", "175155b559af1c80", "ac5f2b9a5b97ef6e",
    "9933f1eccad3cc12", "9329f72714a3bfca", "867923dea7cfe83f", "54067942e4d26921",
    "c55b2801e0b107c7", "89f14f9172236350", "718ae798288134da", "07da96abb32ca46e",
    "3ab7734150c7e4d1", "ce50e3d1943d80ce", "de96cb7da874adf0", "187904e9a1e34add",
    "b892bac7d6611464", "3eda962bf58258ee", "dd097c25377caacc", "4192d1d3d2f99be5",
    "23b0a14d16713b02", "8d5b09e5ced2524b", "1fcafcfb97b1cdb4", "18e543aff30d4ce1",
    "11adfdc013d5490c", "b92794fd92a9f9eb", "5a8c5832f28d1e5d", "e0ea946b26cf3e3b",
    "7c397e636896673a", "6a112ed09cdcf8f0", "3c7fac0df66d2211", "5cdaee1834f00a8b",
    "fcf84663a7913549", "51cb9c5b26d3854c", "93c5a54fd104aca7",
};

TEST(StreamCheckpointGolden, SmokeReplayImagesAreStable) {
  const RecordedRun run = run_with_checkpoints(smoke_replay(), 4);
  EXPECT_GT(total(run.detector, &ShardCounters::alarms_expired), 0u);
  EXPECT_EQ(image_hashes(run), kSmokeReplayImages);
}

TEST(StreamCheckpointGolden, BudgetedImagesAreStable) {
  const RecordedRun run = run_with_checkpoints(budgeted(), 4);
  // The budget binds on every flushed day: each daily image saw evictions
  // its predecessor had not.
  ASSERT_GE(run.checkpoints.size(), 40u);
  for (std::size_t i = 1; i < run.checkpoints.size(); ++i) {
    EXPECT_GT(run.checkpoints[i].evicted, run.checkpoints[i - 1].evicted)
        << "no eviction on day " << run.checkpoints[i].day;
  }
  // Both eviction tiers fire: idle prefixes and, under pressure, warm ones.
  const std::uint64_t evicted = total(run.detector, &ShardCounters::evicted_prefixes);
  const std::uint64_t warm = total(run.detector, &ShardCounters::evicted_live);
  EXPECT_GT(warm, 0u);
  EXPECT_LT(warm, evicted);
  std::size_t compacted = 0;
  for (const auto& shard : run.detector.shards()) compacted += shard.alarms().compacted();
  EXPECT_GT(compacted, 0u);
  EXPECT_GT(total(run.detector, &ShardCounters::alarms_expired), 0u);
  EXPECT_EQ(image_hashes(run), kBudgetedImages);
}

TEST(StreamCheckpointGolden, ImagesDoNotDependOnJobs) {
  const Scenario s = budgeted();
  const auto reference = image_hashes(run_with_checkpoints(s, 1));
  for (const std::size_t jobs : {2u, 4u}) {
    EXPECT_EQ(image_hashes(run_with_checkpoints(s, jobs)), reference) << "jobs=" << jobs;
  }
}

// Restoring rebuilds every piece of derived shard state from the image. If
// the rebuilt state differed from the state the live run carried, the first
// eviction or TTL expiry after the restore would pick a different prefix.
TEST(StreamCheckpointRestore, MidRunRestoreMatchesUninterruptedRun) {
  const Scenario s = budgeted();
  const RecordedRun reference = run_with_checkpoints(s, 2);
  const std::string expected = fingerprint(reference.detector);
  const std::uint64_t evicted_end = total(reference.detector, &ShardCounters::evicted_prefixes);
  const std::uint64_t expired_end = total(reference.detector, &ShardCounters::alarms_expired);

  const Checkpoint& mid = reference.checkpoints[reference.checkpoints.size() / 2];
  ASSERT_LT(mid.evicted, evicted_end) << "no eviction left after the restore point";
  ASSERT_LT(mid.expired, expired_end) << "no TTL expiry left after the restore point";

  for (const std::size_t jobs : {1u, 2u, 4u}) {
    StreamConfig config = s.config;
    config.jobs = jobs;
    std::istringstream is(mid.image);
    StreamDetector resumed = StreamDetector::restore_checkpoint(is, config);
    ASSERT_EQ(resumed.last_flushed_day(), mid.day);

    TraceReplaySource source(s.trace, s.overrides);
    FaultyFeed feed(source, s.faults);
    fast_forward(feed, resumed.consumed());
    resumed.run(feed);
    EXPECT_TRUE(resumed == reference.detector) << "jobs=" << jobs;
    EXPECT_EQ(fingerprint(resumed), expected) << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace moas::stream
