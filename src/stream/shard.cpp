#include "moas/stream/shard.h"

#include <algorithm>
#include <charconv>

#include "moas/core/moas_list.h"
#include "moas/util/assert.h"

namespace moas::stream {

namespace {

/// Deterministic footprint estimates (bytes). These are accounting units,
/// not allocator truth: the budget gate needs a number that is identical on
/// every platform and --jobs value, so we charge flat per-object costs plus
/// a per-ASN cost for the origin sets.
constexpr std::uint64_t kShardBaseBytes = 256;
constexpr std::uint64_t kMapNodeBytes = 64;
constexpr std::uint64_t kAsnBytes = 48;  // a std::set node is ~this big

std::uint64_t state_bytes(const PrefixState& st) {
  return 96 + kAsnBytes * static_cast<std::uint64_t>(st.reference.size() + st.observed.size());
}

std::uint64_t alarm_bytes(const core::MoasAlarm& a) {
  return 160 + kAsnBytes * static_cast<std::uint64_t>(a.reference_list.size() +
                                                      a.observed_list.size() +
                                                      a.offending_origins.size());
}

/// Appends ' ' and `value` in decimal (the digits std::to_string writes).
template <typename Int>
void put(std::string& out, const Int value) {
  char digits[24];
  out += ' ';
  out.append(digits, std::to_chars(digits, digits + sizeof digits, value).ptr);
}

void put_bits(std::string& out, const double value) {
  out += ' ';
  out += double_bits(value);
}

void put_asn_set(std::string& out, const bgp::AsnSet& set) {
  put(out, set.size());
  for (const bgp::Asn asn : set) put(out, asn);
}

bgp::AsnSet read_asn_set(LineParser& p) {
  bgp::AsnSet set;
  const std::uint64_t n = p.u64();
  for (std::uint64_t i = 0; i < n; ++i) set.insert(p.u32());
  return set;
}

net::Prefix read_prefix(LineParser& p) {
  const auto prefix = net::Prefix::parse(p.token());
  MOAS_REQUIRE(prefix.has_value(), "checkpoint: bad prefix");
  return *prefix;
}

void put_histogram(std::string& out, const char* tag, const obs::FixedHistogram& h) {
  out += tag;
  put(out, h.underflow());
  put(out, h.overflow());
  put(out, h.count());
  put_bits(out, h.sum());
  put_bits(out, h.min());
  put_bits(out, h.max());
  for (const std::uint64_t c : h.bucket_counts()) put(out, c);
  out += '\n';
}

obs::FixedHistogram read_histogram(CheckpointReader& r, const char* tag,
                                   const obs::HistogramSpec& spec) {
  LineParser p(r.next());
  p.expect(tag);
  const std::uint64_t underflow = p.u64();
  const std::uint64_t overflow = p.u64();
  const std::uint64_t count = p.u64();
  const double sum = p.f64();
  const double min = p.f64();
  const double max = p.f64();
  std::vector<std::uint64_t> counts(spec.buckets);
  for (auto& c : counts) c = p.u64();
  return obs::FixedHistogram::restore(spec, std::move(counts), underflow, overflow, count, sum,
                                      min, max);
}

}  // namespace

obs::HistogramSpec duration_spec() { return obs::HistogramSpec{0.0, 1.0, 64}; }
obs::HistogramSpec latency_spec() { return obs::HistogramSpec{0.0, 0.25, 120}; }

DetectorShard::DetectorShard(ShardConfig config)
    : config_(config),
      durations_(duration_spec()),
      latencies_(latency_spec()),
      bytes_held_(kShardBaseBytes),
      peak_bytes_(kShardBaseBytes) {
  MOAS_REQUIRE(config.conflict_ttl_days > 0.0, "conflict TTL must be positive");
  MOAS_REQUIRE(config.evict_idle_days >= 0, "idle window must be non-negative");
  log_.set_retention(config.alarm_retention);
}

void DetectorShard::process(const int flush_day, const StreamUpdate& u, const bool full,
                            PrefixState& st, const bool fresh) {
  const std::uint64_t bytes_before = fresh ? 0 : state_bytes(st);
  if (fresh) {
    st.reference = u.origins;  // first sight: adopt as the MOAS list
    st.first_day = u.day;
    state_bytes_ += kMapNodeBytes;
  }

  if (!core::covers(st.reference, u.origins)) {
    st.observed = u.origins;
    if (st.alarm_id < 0) {
      core::MoasAlarm alarm;
      alarm.at = u.at;
      alarm.observer = kStreamObserver;
      alarm.prefix = u.prefix;
      alarm.reference_list = st.reference;
      alarm.observed_list = u.origins;
      alarm.offending_origins = core::difference(u.origins, st.reference);
      alarm.cause = core::MoasAlarm::Cause::ListMismatch;
      const std::size_t id = record(std::move(alarm));
      st.alarm_id = static_cast<std::int64_t>(id);
      st.conflict_since = u.at;
      st.conflict_day = u.day;
      open_by_conflict_day_.emplace(u.day, u.prefix);
      ++counters_.alarms_raised;
      latencies_.add(static_cast<double>(flush_day) + 1.0 - u.at);

      // Did the feed skip days between our last sighting and this one? The
      // conflict may have started unseen inside the gap — park the alarm as
      // Pending instead of asserting a fresh hijack story.
      const int unseen_from = st.last_day + 1;
      const int unseen_to = u.day - 1;
      if (unseen_from <= unseen_to) {
        for (const auto& g : gaps_) {
          if (g.first_day <= unseen_to && g.last_day >= unseen_from) {
            log_.settle(id, core::MoasAlarm::State::Pending, u.at);
            ++counters_.alarms_parked;
            break;
          }
        }
      }
    }
  } else if (st.alarm_id >= 0) {
    // The announced set is covered by the reference again: conflict over.
    log_.settle(static_cast<std::size_t>(st.alarm_id), core::MoasAlarm::State::Resolved, u.at);
    ++counters_.alarms_resolved;
    close_conflict(u.prefix, st);
  }
  state_bytes_ = state_bytes_ - bytes_before + state_bytes(st);

  const bool accrues = u.origins.size() >= 2 && u.day > st.last_moas_day;
  if (full) {
    ++counters_.processed;
    if (accrues) {
      ++st.duration_days;
      st.last_moas_day = u.day;
    }
    st.max_origins = std::max(st.max_origins, u.origins.size());
  } else {
    ++counters_.shed_updates;
    if (accrues) ++counters_.moas_days_shed;
  }
  if (fresh || u.day > st.last_day) {
    const int last_day = std::max(st.last_day, u.day);
    if (config_.memory_budget_bytes > 0 && fresh) {
      by_last_day_.emplace(last_day, u.prefix);
    } else if (config_.memory_budget_bytes > 0) {
      // Re-key the node in place of an erase + insert: no reallocation.
      auto node = by_last_day_.extract({st.last_day, u.prefix});
      node.value().first = last_day;
      by_last_day_.insert(std::move(node));
    }
    st.last_day = last_day;
  }
}

std::size_t DetectorShard::record(core::MoasAlarm alarm) {
  const std::uint64_t cost = alarm_bytes(alarm);
  const std::size_t base = log_.first_retained();
  const std::size_t id = log_.record(std::move(alarm));
  // When retention folded settled alarms out of the window, recount the
  // window: it is capped, so this costs the cap, not the shard's state.
  alarm_bytes_ = log_.first_retained() == base ? alarm_bytes_ + cost : window_bytes();
  return id;
}

/// Clears the conflict fields of a state whose alarm was just settled. The
/// caller settles the alarm and keeps state_bytes_ in step with `observed`.
void DetectorShard::close_conflict(const net::Prefix& prefix, PrefixState& st) {
  open_by_conflict_day_.erase({st.conflict_day, prefix});
  st.alarm_id = -1;
  st.conflict_since = -1.0;
  st.conflict_day = -1;
  st.observed.clear();
}

void DetectorShard::process_day(const int day, const std::vector<chaos::GapWindow>& new_gaps,
                                const std::vector<const StreamUpdate*>& batch) {
  for (const auto& g : new_gaps) gaps_.push_back(g);

  std::size_t full_used = 0;
  for (const StreamUpdate* u : batch) {
    MOAS_REQUIRE(!u->malformed, "malformed update reached a shard");
    const auto [it, fresh] = states_.try_emplace(u->prefix);
    const bool alarm_open = it->second.alarm_id >= 0;
    // Admission control: alarm-carrying prefixes always get the full path;
    // everyone else does until the day's capacity runs out.
    const bool full =
        alarm_open || config_.day_capacity == 0 || full_used < config_.day_capacity;
    if (full && !alarm_open) ++full_used;
    process(day, *u, full, it->second, fresh);
  }
  end_day(day);
}

void DetectorShard::end_day(const int day) {
  // Conflict TTL: an alarm open this long is churn, not attack. Expire it
  // and adopt the observed origins so the prefix stops alarming. The index
  // is ordered by conflict day, so the expired ones are a prefix of it
  // (negative conflict days never expire).
  auto next = open_by_conflict_day_.lower_bound({0, net::Prefix{}});
  while (next != open_by_conflict_day_.end() &&
         static_cast<double>(day - next->first) >= config_.conflict_ttl_days) {
    const net::Prefix prefix = (next++)->second;
    PrefixState& st = states_.find(prefix)->second;
    log_.settle(static_cast<std::size_t>(st.alarm_id), core::MoasAlarm::State::Expired,
                static_cast<double>(day) + 1.0);
    ++counters_.alarms_expired;
    const std::uint64_t bytes_before = state_bytes(st);
    for (const bgp::Asn asn : st.observed) st.reference.insert(asn);
    close_conflict(prefix, st);
    state_bytes_ = state_bytes_ - bytes_before + state_bytes(st);
  }

  bytes_held_ = accounted_bytes();
  if (config_.memory_budget_bytes > 0 && bytes_held_ > config_.memory_budget_bytes) evict(day);
  peak_bytes_ = std::max(peak_bytes_, bytes_held_);
}

void DetectorShard::evict(const int day) {
  // Alarm-free prefixes, coldest first: ascending (last_day, prefix). Every
  // idle prefix (unseen for evict_idle_days) sorts before every warm one,
  // so this one walk evicts the idle ones first and, under sustained
  // pressure, the warm ones after them.
  auto next = by_last_day_.begin();
  while (next != by_last_day_.end() && bytes_held_ > config_.memory_budget_bytes) {
    const auto it = states_.find(next->second);
    const PrefixState& st = it->second;
    if (st.alarm_id >= 0) {
      ++next;
      continue;
    }
    if (st.duration_days > 0) durations_.add(static_cast<double>(st.duration_days));
    const std::uint64_t bytes = state_bytes(st) + kMapNodeBytes;
    bytes_held_ -= bytes;
    state_bytes_ -= bytes;
    ++counters_.evicted_prefixes;
    if (st.last_day > day - config_.evict_idle_days) ++counters_.evicted_live;  // still warm
    states_.erase(it);
    next = by_last_day_.erase(next);
  }
}

void DetectorShard::finish(const double at) {
  for (const auto& [conflict_day, prefix] : open_by_conflict_day_) {
    PrefixState& st = states_.find(prefix)->second;
    log_.settle(static_cast<std::size_t>(st.alarm_id), core::MoasAlarm::State::Expired, at);
    ++counters_.alarms_expired;
    st.alarm_id = -1;
    st.conflict_since = -1.0;
    st.conflict_day = -1;
  }
  open_by_conflict_day_.clear();
  bytes_held_ = accounted_bytes();
  peak_bytes_ = std::max(peak_bytes_, bytes_held_);
}

std::uint64_t DetectorShard::accounted_bytes() const {
  return kShardBaseBytes + 16 * static_cast<std::uint64_t>(gaps_.size()) + state_bytes_ +
         alarm_bytes_;
}

void DetectorShard::rebuild_derived() {
  open_by_conflict_day_.clear();
  by_last_day_.clear();
  state_bytes_ = 0;
  for (const auto& [prefix, st] : states_) {
    state_bytes_ += state_bytes(st) + kMapNodeBytes;
    if (st.alarm_id >= 0) open_by_conflict_day_.emplace(st.conflict_day, prefix);
    if (config_.memory_budget_bytes > 0) by_last_day_.emplace(st.last_day, prefix);
  }
  alarm_bytes_ = window_bytes();
}

std::uint64_t DetectorShard::window_bytes() const {
  std::uint64_t bytes = 0;
  for (const auto& alarm : log_.alarms()) bytes += alarm_bytes(alarm);
  return bytes;
}

obs::FixedHistogram DetectorShard::duration_histogram() const {
  obs::FixedHistogram out = durations_;
  for (const auto& [prefix, st] : states_) {
    if (st.duration_days > 0) out.add(static_cast<double>(st.duration_days));
  }
  return out;
}

void DetectorShard::save(std::string& out) const {
  out += "counters";
  for (const std::uint64_t v :
       {counters_.processed, counters_.shed_updates, counters_.moas_days_shed,
        counters_.alarms_raised, counters_.alarms_resolved, counters_.alarms_expired,
        counters_.alarms_parked, counters_.evicted_prefixes, counters_.evicted_live}) {
    put(out, v);
  }
  out += "\nbytes";
  put(out, bytes_held_);
  put(out, peak_bytes_);

  out += "\ngaps";
  put(out, gaps_.size());
  out += '\n';
  for (const auto& g : gaps_) {
    out += "gap";
    put(out, g.first_day);
    put(out, g.last_day);
    out += '\n';
  }

  put_histogram(out, "durations", durations_);
  put_histogram(out, "latencies", latencies_);

  out += "alarmlog";
  put(out, log_.first_retained());
  for (const std::uint64_t v : log_.compacted_by_state()) put(out, v);
  for (const std::uint64_t v : log_.compacted_by_cause()) put(out, v);
  put(out, log_.alarms().size());
  out += '\n';
  for (const auto& a : log_.alarms()) {
    out += "alarm";
    put_bits(out, a.at);
    put_bits(out, a.settled_at);
    put(out, a.observer);
    put(out, static_cast<unsigned>(a.cause));
    put(out, static_cast<unsigned>(a.state));
    out += ' ';
    out += a.prefix.to_string();
    put_asn_set(out, a.reference_list);
    put_asn_set(out, a.observed_list);
    put_asn_set(out, a.offending_origins);
    out += '\n';
  }

  out += "states";
  put(out, states_.size());
  out += '\n';
  for (const auto& [prefix, st] : states_) {
    out += "state ";
    out += prefix.to_string();
    put(out, st.first_day);
    put(out, st.last_day);
    put(out, st.last_moas_day);
    put(out, st.duration_days);
    put(out, st.max_origins);
    put(out, st.alarm_id);
    put_bits(out, st.conflict_since);
    put(out, st.conflict_day);
    put_asn_set(out, st.reference);
    put_asn_set(out, st.observed);
    out += '\n';
  }
}

void DetectorShard::load(CheckpointReader& r) {
  MOAS_REQUIRE(states_.empty() && log_.empty(), "shard restore needs a fresh shard");

  {
    LineParser p(r.next());
    p.expect("counters");
    counters_.processed = p.u64();
    counters_.shed_updates = p.u64();
    counters_.moas_days_shed = p.u64();
    counters_.alarms_raised = p.u64();
    counters_.alarms_resolved = p.u64();
    counters_.alarms_expired = p.u64();
    counters_.alarms_parked = p.u64();
    counters_.evicted_prefixes = p.u64();
    counters_.evicted_live = p.u64();
  }
  {
    LineParser p(r.next());
    p.expect("bytes");
    bytes_held_ = p.u64();
    peak_bytes_ = p.u64();
  }

  {
    LineParser p(r.next());
    p.expect("gaps");
    const std::uint64_t n = p.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      LineParser g(r.next());
      g.expect("gap");
      chaos::GapWindow window;
      window.first_day = g.day();
      window.last_day = g.day();
      gaps_.push_back(window);
    }
  }

  durations_ = read_histogram(r, "durations", duration_spec());
  latencies_ = read_histogram(r, "latencies", latency_spec());

  {
    LineParser p(r.next());
    p.expect("alarmlog");
    const std::size_t base = p.u64();
    std::array<std::uint64_t, 4> by_state{};
    std::array<std::uint64_t, 3> by_cause{};
    for (auto& v : by_state) v = p.u64();
    for (auto& v : by_cause) v = p.u64();
    const std::uint64_t retained = p.u64();
    std::vector<core::MoasAlarm> window;
    for (std::uint64_t i = 0; i < retained; ++i) {
      LineParser a(r.next());
      a.expect("alarm");
      core::MoasAlarm alarm;
      alarm.at = a.f64();
      alarm.settled_at = a.f64();
      alarm.observer = a.u32();
      const std::uint64_t cause = a.u64();
      const std::uint64_t state = a.u64();
      MOAS_REQUIRE(cause < by_cause.size() && state < by_state.size(),
                   "checkpoint: alarm cause or state out of range");
      alarm.cause = static_cast<core::MoasAlarm::Cause>(cause);
      alarm.state = static_cast<core::MoasAlarm::State>(state);
      alarm.prefix = read_prefix(a);
      alarm.reference_list = read_asn_set(a);
      alarm.observed_list = read_asn_set(a);
      alarm.offending_origins = read_asn_set(a);
      window.push_back(std::move(alarm));
    }
    log_.restore_compacted(base, by_state, by_cause, std::move(window));
  }

  {
    LineParser p(r.next());
    p.expect("states");
    const std::uint64_t n = p.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      LineParser s(r.next());
      s.expect("state");
      const net::Prefix prefix = read_prefix(s);
      PrefixState st;
      st.first_day = s.day();
      st.last_day = s.day();
      st.last_moas_day = s.day();
      st.duration_days = s.day();
      st.max_origins = s.u64();
      st.alarm_id = s.i64();
      st.conflict_since = s.f64();
      st.conflict_day = s.day();
      st.reference = read_asn_set(s);
      st.observed = read_asn_set(s);
      if (st.alarm_id >= 0) {
        const auto id = static_cast<std::uint64_t>(st.alarm_id);
        MOAS_REQUIRE(id >= log_.first_retained() && id < log_.size(),
                     "checkpoint: state names an alarm outside the log window");
        const auto state = log_.alarms()[id - log_.first_retained()].state;
        MOAS_REQUIRE(state == core::MoasAlarm::State::Raised ||
                         state == core::MoasAlarm::State::Pending,
                     "checkpoint: state names a settled alarm");
      }
      MOAS_REQUIRE(states_.emplace(prefix, std::move(st)).second,
                   "checkpoint: duplicate prefix state");
    }
  }
  rebuild_derived();
}

bool DetectorShard::operator==(const DetectorShard& other) const {
  return config_ == other.config_ && states_ == other.states_ && log_ == other.log_ &&
         gaps_ == other.gaps_ && durations_ == other.durations_ &&
         latencies_ == other.latencies_ && counters_ == other.counters_ &&
         bytes_held_ == other.bytes_held_ && peak_bytes_ == other.peak_bytes_;
}

}  // namespace moas::stream
