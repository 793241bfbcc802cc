// Seeded fuzzing of StreamDetector::restore_checkpoint.
//
// The checksum stops accidental damage, but an edited image with a
// recomputed checksum reaches the parser. Each case here mutates real
// checkpoint images token by token or line by line, re-seals the FNV-1a
// trailer, and restores. The only acceptable outcomes are a restored
// detector (which must then re-save cleanly) or std::invalid_argument —
// never a crash, an invariant failure, or any other exception.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "moas/stream/detector.h"
#include "moas/stream/feed.h"
#include "moas/stream/replay.h"
#include "moas/util/rng.h"

namespace moas::stream {
namespace {

StreamConfig fuzz_config() {
  StreamConfig config;
  config.shards = 3;
  config.jobs = 2;
  config.flush_margin = 8;
  config.checkpoint_every_days = 6;
  config.shard.conflict_ttl_days = 4.0;
  config.shard.day_capacity = 6;
  config.shard.alarm_retention = 2;
  config.shard.evict_idle_days = 2;
  config.shard.memory_budget_bytes = 5 * 1024;
  return config;
}

/// Checkpoint images of a short faulted, attacked, churned run: shedding,
/// retention, eviction, TTL expiry, gaps and buffered days all in play.
std::vector<std::string> base_images() {
  util::Rng rng(2024);
  measure::TraceConfig trace_config;
  trace_config.days = 36;
  trace_config.active_start = 30;
  trace_config.active_end = 36;
  trace_config.faults_per_day = 4.0;
  trace_config.include_spike_1998 = false;
  trace_config.include_spike_2001 = false;
  const auto trace = measure::generate_trace(trace_config, rng);
  std::vector<OriginOverride> overrides =
      plan_churn(trace, ChurnConfig{.seed = 5, .share = 0.5, .min_active_days = 15});
  for (const auto& p : plan_attacks(trace, AttackConfig{.seed = 13, .attacks = 3}, overrides)) {
    overrides.push_back(p.inject);
  }
  chaos::FeedFaultConfig faults;
  faults.seed = 97;
  faults.horizon_days = trace.days;
  faults.gaps = 1.5;
  faults.duplicate_prob = 0.02;
  faults.reorder_prob = 0.03;
  faults.reorder_max_skew = 8;
  const auto schedule = chaos::compile_feed_faults(faults);

  TraceReplaySource source(trace, overrides);
  FaultyFeed feed(source, schedule);
  StreamDetector detector(fuzz_config());
  std::vector<std::string> images;
  detector.run(feed, [&](const StreamDetector& d, int) {
    std::ostringstream os;
    d.save_checkpoint(os);
    images.push_back(os.str());
  });
  return images;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string part;
  std::istringstream in(text);
  while (std::getline(in, part, sep)) out.push_back(part);
  return out;
}

std::string join(const std::vector<std::string>& parts, char sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

/// Payload lines (header included) re-sealed with a fresh checksum trailer.
std::string seal(const std::vector<std::string>& lines) {
  std::string payload;
  for (const auto& line : lines) payload += line + '\n';
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : payload) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  char trailer[40];
  std::snprintf(trailer, sizeof trailer, "checksum %016llx\n",
                static_cast<unsigned long long>(hash));
  return payload + trailer;
}

// Boundary values for every field type the format carries: counts, days,
// ids, ASNs, double bit patterns and prefixes.
const std::vector<std::string> kInteresting = {
    "0", "1", "-1", "2", "7", "255", "65536", "2147483647", "2147483648", "-2147483648",
    "-2147483649", "4294967295", "4294967296", "4611686018427387904", "4611686018427387905",
    "-4611686018427387904", "9223372036854775807", "18446744073709551615",
    "18446744073709551616", "0000000000000000", "7ff8000000000000", "fff0000000000000",
    "7fefffffffffffff", "8000000000000000", "0.0.0.0/0", "255.255.255.255/32", "1.2.3.4/33",
    "x", "+1", "--1", "shard", "state", "alarm"};

std::string mutate(const std::string& image, util::Rng& rng) {
  std::vector<std::string> lines = split(image, '\n');
  lines.pop_back();  // the checksum trailer; seal() writes a fresh one
  const std::size_t at = rng.index(lines.size());
  std::vector<std::string> tokens = split(lines[at], ' ');
  const std::size_t tok = rng.index(tokens.size());
  switch (rng.index(8)) {
    case 0:
      tokens[tok] = kInteresting[rng.index(kInteresting.size())];
      break;
    case 1: {  // nudge a number by a little
      const long long delta = static_cast<long long>(rng.uniform(0, 6)) - 3;
      try {
        tokens[tok] = std::to_string(std::stoll(tokens[tok]) + delta);
      } catch (const std::exception&) {
        tokens[tok] = std::to_string(delta);
      }
      break;
    }
    case 2:
      tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(tok));
      break;
    case 3:
      tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(tok), tokens[tok]);
      break;
    case 4:
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
      return seal(lines);
    case 5:
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), lines[at]);
      return seal(lines);
    case 6:
      if (at + 1 < lines.size()) std::swap(lines[at], lines[at + 1]);
      return seal(lines);
    default:
      lines.resize(at);
      return seal(lines);
  }
  lines[at] = join(tokens, ' ');
  return seal(lines);
}

class CheckpointFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckpointFuzz, MutatedImagesRestoreOrThrowInvalidArgument) {
  static const std::vector<std::string> images = base_images();
  ASSERT_GE(images.size(), 4u);
  util::Rng rng(GetParam());
  std::size_t restored = 0;
  std::size_t rejected = 0;
  for (int trial = 0; trial < 250; ++trial) {
    const std::string image = mutate(images[rng.index(images.size())], rng);
    try {
      std::istringstream is(image);
      StreamDetector d = StreamDetector::restore_checkpoint(is, fuzz_config());
      std::ostringstream os;
      d.save_checkpoint(os);  // the rebuilt detector is whole enough to re-save
      ++restored;
    } catch (const std::invalid_argument&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "trial " << trial << ": restore threw a non-invalid_argument exception: "
             << e.what();
    }
  }
  // Both outcomes occur: mutations of free-form fields restore, structural
  // damage is rejected.
  EXPECT_GT(restored, 0u);
  EXPECT_GT(rejected, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointFuzz, ::testing::Values(1, 2, 3, 4));

TEST(CheckpointFuzz, UnmutatedImagesRoundTrip) {
  for (const std::string& image : base_images()) {
    std::istringstream is(image);
    const StreamDetector d = StreamDetector::restore_checkpoint(is, fuzz_config());
    std::ostringstream os;
    d.save_checkpoint(os);
    EXPECT_EQ(os.str(), image);
  }
}

TEST(CheckpointFuzz, OutOfRangeFieldsAreRejected) {
  const std::vector<std::string> images = base_images();
  // Edit one field of the first line starting with `tag` in the last image
  // (the one with alarms in the log window), re-seal and restore.
  const auto restore_with = [&](const std::string& tag, std::size_t field,
                                const std::string& value) {
    std::vector<std::string> lines = split(images.back(), '\n');
    lines.pop_back();
    bool edited = false;
    for (auto& line : lines) {
      if (line.rfind(tag + ' ', 0) != 0) continue;
      std::vector<std::string> tokens = split(line, ' ');
      tokens.at(field) = value;
      line = join(tokens, ' ');
      edited = true;
      break;
    }
    EXPECT_TRUE(edited) << "no '" << tag << "' line to edit";
    std::istringstream is(seal(lines));
    return StreamDetector::restore_checkpoint(is, fuzz_config());
  };
  // Days past int range used to restore truncated to a small int.
  EXPECT_THROW(restore_with("front", 2, "4294967296"), std::invalid_argument);
  EXPECT_THROW(restore_with("state", 3, "2147483648"), std::invalid_argument);
  EXPECT_THROW(restore_with("state", 9, "-2147483649"), std::invalid_argument);
  // In int range but past the stream's day range, whose arithmetic
  // (last flushed day + 1) would overflow.
  EXPECT_THROW(restore_with("front", 2, "2147483647"), std::invalid_argument);
  EXPECT_THROW(restore_with("front", 2, std::to_string(kMaxDay + 1)), std::invalid_argument);
  EXPECT_THROW(restore_with("front", 2, "-2"), std::invalid_argument);
  // ASNs past 32 bits used to restore truncated to a different ASN.
  EXPECT_THROW(restore_with("state", 11, "4294967296"), std::invalid_argument);
  EXPECT_NO_THROW(restore_with("state", 11, "4294967295"));
  // Enum values index the compaction tallies.
  EXPECT_THROW(restore_with("alarm", 4, "3"), std::invalid_argument);
  EXPECT_THROW(restore_with("alarm", 5, "4"), std::invalid_argument);
  // A state's alarm id must name an open alarm in the restored window.
  EXPECT_THROW(restore_with("state", 7, "999999"), std::invalid_argument);
}

}  // namespace
}  // namespace moas::stream
