// One repetition of one benchmark workload, in its own process.
//
//   perfbench_runner --workload NAME --seed N [--jobs J] [--smoke] [--trace]
//                    [--spans PATH] [--corrupt-digest]
//
// The process builds its inputs (set-up), runs the workload's timed region
// once, checks the outputs and prints one JSON object as its last line of
// standard output. run.py starts one process per repetition, so no pass
// runs on state a previous pass warmed (the bgp::intern pools are
// process-global).
//
// With --trace the runner also records spans around its calls into the
// library layers (topo, core, sim, bgp, measure, stream, util) and reports
// per-layer numbers. Spans are kept in memory and written to --spans when
// the run ends. The library's own obs::TraceBus stays off in every mode.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "moas/bgp/intern.h"
#include "moas/chaos/feed_fault.h"
#include "moas/core/experiment.h"
#include "moas/core/multi_prefix.h"
#include "moas/measure/trace_gen.h"
#include "moas/stream/detector.h"
#include "moas/stream/feed.h"
#include "moas/stream/replay.h"
#include "moas/topo/gen_internet.h"
#include "moas/topo/rank.h"
#include "moas/topo/sampler.h"
#include "moas/util/thread_pool.h"

using namespace moas;

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------- spans

struct Span {
  std::string name;
  double start = 0.0;  // seconds since process start
  double end = 0.0;
  int parent = -1;  // index into the span list, -1 = root
};

/// Bench-side spans. Disabled tracers record nothing, so the untraced run
/// pays one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  bool on() const { return on_; }

  int open(const std::string& name) {
    if (!on_) return -1;
    spans_.push_back({name, seconds_since(kProcessStart), 0.0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void close(int id) {
    if (id < 0) return;
    spans_[id].end = seconds_since(kProcessStart);
    current_ = spans_[id].parent;
  }

  /// Record a finished child of the open span from timestamps already taken.
  void add(const std::string& name, Clock::time_point start, Clock::time_point end) {
    if (!on_) return;
    spans_.push_back({name, seconds_between(kProcessStart, start),
                      seconds_between(kProcessStart, end), current_});
  }

  /// Sum of durations of the spans called `name`.
  double total(const std::string& name) const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) sum += s.end - s.start;
    }
    return sum;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    char line[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(line, sizeof(line),
                    "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                    "\"parent\": %d}\n",
                    i, s.name.c_str(), s.start, s.end, s.parent);
      out << line;
    }
  }

 private:
  bool on_;
  std::vector<Span> spans_;
  int current_ = -1;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// ---------------------------------------------------------------- report

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Everything one repetition reports. `metrics` are end-to-end values,
/// `layers` per-layer values (filled only when traced); both map a name to
/// (value, unit).
struct Outcome {
  double setup_s = 0.0;
  double timed_s = 0.0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, std::pair<double, std::string>> layers;
  std::vector<double> day_lag_ms;  // flushing ingest() calls; run.py pools them
  std::vector<Check> checks;
  std::uint64_t attempted = 0;  // operations the failure share counts over
  std::uint64_t failed = 0;
  std::string digest_input;  // canonical outcome text, hashed into `digest`
};

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex_double(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", v);
  return buffer;
}

std::string json_number(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void check(Outcome& out, const std::string& name, bool ok, const std::string& detail) {
  out.checks.push_back({name, ok, detail});
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

// The 10k-AS synthetic Internet every topology-based workload starts from
// (the bench figures' shared_internet(): default InternetConfig, seed of the
// paper's first measurement day).
topo::AsGraph generate_shared_internet(Tracer& tracer) {
  ScopedSpan span(tracer, "topo.generate");
  util::Rng rng(19971108);
  return topo::generate_internet(topo::InternetConfig{}, rng);
}

// ---------------------------------------------------------------- sweep_fig9

std::string sweep_digest_text(const std::vector<core::SweepPoint>& points) {
  std::string text;
  for (const core::SweepPoint& p : points) {
    text += hex_double(p.attacker_fraction) + ' ' + std::to_string(p.runs) + ' ' +
            hex_double(p.mean_adopted_false) + ' ' + hex_double(p.stddev_adopted_false) +
            ' ' + hex_double(p.mean_affected) + ' ' + hex_double(p.mean_no_route) + ' ' +
            hex_double(p.mean_alarms) + ' ' + hex_double(p.mean_false_alarms) + ' ' +
            hex_double(p.mean_structural_cutoff) + ' ' +
            std::to_string(p.runs_false_route_stuck) + ' ' + p.metrics.to_json() + '\n';
  }
  return text;
}

Outcome run_sweep(std::uint64_t seed, std::size_t jobs, bool smoke, Tracer& tracer) {
  Outcome out;
  const topo::AsGraph internet = generate_shared_internet(tracer);
  topo::AsGraph graph;
  {
    // The fig9 topology: paper_topology(460)'s sample seed.
    ScopedSpan span(tracer, "topo.sample");
    util::Rng rng(460 * 7919);
    graph = topo::sample_to_size(internet, 460, rng);
  }
  core::ExperimentConfig config;
  config.num_origins = 1;
  config.deployment = core::Deployment::Full;
  const core::Experiment experiment(graph, config);
  const std::vector<double> fractions =
      smoke ? std::vector<double>{0.05, 0.20}
            : std::vector<double>{0.02, 0.04, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40};
  const std::size_t origin_sets = smoke ? 2 : 3;
  const std::size_t attacker_sets = smoke ? 2 : 10;
  util::ThreadPool pool(jobs);
  out.setup_s = seconds_since(kProcessStart);

  const auto start = Clock::now();
  core::SweepPlan plan;
  std::vector<core::RunResult> results;
  std::vector<core::SweepPoint> points;
  {
    ScopedSpan span(tracer, "core.plan");
    util::Rng rng(seed);
    plan = experiment.plan_sweep(fractions, origin_sets, attacker_sets, rng);
  }
  {
    ScopedSpan span(tracer, "core.execute");
    results = experiment.execute_plan(plan, pool);
  }
  {
    ScopedSpan span(tracer, "core.reduce");
    points = experiment.reduce_plan(plan, results);
  }
  out.timed_s = seconds_since(start);

  const double runs = static_cast<double>(plan.runs.size());
  out.metrics["runs_per_s"] = {runs / out.timed_s, "runs/s"};
  out.metrics["throughput"] = {runs / out.timed_s, "1/s"};

  std::uint64_t not_quiesced = 0, pending = 0, bad_runs = 0;
  double propagation = 0.0, events = 0.0, messages = 0.0, decisions = 0.0, alarms = 0.0,
         queries = 0.0;
  for (const core::RunResult& r : results) {
    not_quiesced += r.quiesced ? 0 : 1;
    pending += r.alarms_pending;
    bad_runs += (!r.quiesced || r.alarms_pending > 0) ? 1 : 0;
    propagation += r.propagation_seconds;
    events += static_cast<double>(r.metrics.counter("sim.events_executed"));
    messages += static_cast<double>(r.messages);
    decisions += static_cast<double>(r.metrics.counter("router.decisions"));
    alarms += static_cast<double>(r.alarms);
    queries += static_cast<double>(r.resolver_queries);
  }
  out.attempted = plan.runs.size();
  out.failed = bad_runs;
  check(out, "sweep.all_runs_quiesced", not_quiesced == 0,
        std::to_string(not_quiesced) + " run(s) did not quiesce");
  check(out, "sweep.zero_alarms_pending", pending == 0,
        std::to_string(pending) + " alarm(s) pending at quiescence");
  out.digest_input = sweep_digest_text(points);

  if (tracer.on()) {
    auto& l = out.layers;
    l["topo.generate_s"] = {tracer.total("topo.generate"), "s"};
    l["topo.sample_s"] = {tracer.total("topo.sample"), "s"};
    l["core.plan_s"] = {tracer.total("core.plan"), "s"};
    l["core.execute_s"] = {tracer.total("core.execute"), "s"};
    l["core.reduce_s"] = {tracer.total("core.reduce"), "s"};
    // Meaningful at jobs=1, where execute time is the sum of run times.
    l["core.run_other_s"] = {tracer.total("core.execute") - propagation, "s"};
    l["sim.event_propagation_s"] = {propagation, "s"};
    l["sim.events_per_s"] = {propagation > 0.0 ? events / propagation : 0.0, "events/s"};
    l["sim.events_per_run"] = {events / runs, "count"};
    l["bgp.messages_per_run"] = {messages / runs, "count"};
    l["bgp.decisions_per_run"] = {decisions / runs, "count"};
    l["core.alarms_per_run"] = {alarms / runs, "count"};
    l["core.resolver_queries_per_run"] = {queries / runs, "count"};
  }
  return out;
}

// ---------------------------------------------------------------- wave_multiprefix

Outcome run_wave(std::uint64_t seed, bool smoke, Tracer& tracer) {
  Outcome out;
  const topo::AsGraph internet = generate_shared_internet(tracer);
  core::MultiPrefixConfig config;
  config.num_prefixes = smoke ? 8 : 64;
  config.block_size = smoke ? 4 : 16;
  config.origins_per_prefix = 2;
  config.attacked_fraction = smoke ? 0.5 : 0.25;
  config.deployment = core::Deployment::Full;
  config.seed = seed;
  out.setup_s = seconds_since(kProcessStart);

  const auto start = Clock::now();
  core::MultiPrefixResult result;
  {
    ScopedSpan span(tracer, "core.run_multi_prefix");
    result = core::run_multi_prefix(internet, config);
  }
  out.timed_s = seconds_since(start);
  const bgp::intern::PoolStats pools = bgp::intern::pool_stats();

  const double entries = static_cast<double>(result.rib_entries);
  const double interned_per_route =
      static_cast<double>(result.rib_bytes + pools.total_bytes()) / entries;
  const double baseline_per_route = static_cast<double>(result.baseline_rib_bytes) / entries;
  const double routes_per_s = static_cast<double>(result.routes_installed) / out.timed_s;
  out.metrics["routes_per_s"] = {routes_per_s, "routes/s"};
  out.metrics["throughput"] = {routes_per_s, "1/s"};
  out.metrics["bytes_per_route"] = {interned_per_route, "B"};

  out.attempted = result.alarms;
  out.failed = result.false_alarms;
  check(out, "wave.interned_below_baseline", interned_per_route < baseline_per_route,
        json_number(interned_per_route) + " B/route interned vs " +
            json_number(baseline_per_route) + " B/route un-interned");
  check(out, "wave.alarms_raised", result.alarms > 0,
        std::to_string(result.alarms) + " alarm(s)");
  check(out, "wave.zero_false_alarms", result.false_alarms == 0,
        std::to_string(result.false_alarms) + " false alarm(s)");
  std::ostringstream digest;
  digest << result.prefixes << ' ' << result.attacked << ' ' << result.blocks << ' '
         << result.alarms << ' ' << result.false_alarms << ' ' << result.adopted_false << ' '
         << result.adopted_valid << ' ' << result.no_route << ' ' << result.routes_installed
         << ' ' << result.rib_entries << ' ' << result.rib_bytes << ' '
         << result.baseline_rib_bytes << ' ' << pools.paths.entries << ' '
         << pools.community_sets.entries << ' ' << pools.large_community_sets.entries << '\n';
  out.digest_input = digest.str();

  if (tracer.on()) {
    // The engine constructor ranks the graph inside run_multi_prefix; the
    // bench times one more rank of the same graph to show that share.
    {
      ScopedSpan span(tracer, "topo.rank");
      [[maybe_unused]] const topo::RankAssignment ranks = topo::rank_by_customer_cone(internet);
    }
    auto& l = out.layers;
    l["topo.generate_s"] = {tracer.total("topo.generate"), "s"};
    l["topo.rank_s"] = {tracer.total("topo.rank"), "s"};
    l["core.multi_prefix_other_s"] = {
        tracer.total("core.run_multi_prefix") - result.propagation_seconds, "s"};
    l["core.alarms"] = {static_cast<double>(result.alarms), "count"};
    l["core.false_alarms"] = {static_cast<double>(result.false_alarms), "count"};
    l["sim.wave_propagate_s"] = {result.propagation_seconds, "s"};
    l["sim.wave_blocks"] = {static_cast<double>(result.blocks), "count"};
    l["bgp.rib_entries"] = {entries, "count"};
    l["bgp.routes_installed"] = {static_cast<double>(result.routes_installed), "count"};
    l["bgp.rib_container_bytes"] = {static_cast<double>(result.rib_bytes), "B"};
    l["bgp.intern.pool_bytes"] = {static_cast<double>(pools.total_bytes()), "B"};
    l["bgp.intern.paths"] = {static_cast<double>(pools.paths.entries), "count"};
  }
  return out;
}

// ---------------------------------------------------------------- stream_*

Outcome run_stream(std::uint64_t seed, std::size_t jobs, bool smoke, bool overload,
                   Tracer& tracer) {
  Outcome out;
  // The Section 3 trace over the paper's full window (TraceConfig defaults).
  measure::TraceConfig trace_config;
  std::size_t attacks = 12;
  int churn_min_active_days = 60;
  std::uint64_t budget = 512ull * 1024;
  if (smoke) {
    trace_config.days = 60;
    trace_config.active_start = 40;
    trace_config.active_end = 50;
    trace_config.faults_per_day = 5.0;
    trace_config.include_spike_1998 = false;
    trace_config.include_spike_2001 = false;
    attacks = 4;
    churn_min_active_days = 30;
    budget = 128ull * 1024;
  }
  if (overload) {
    trace_config.include_spike_1998 = false;
    trace_config.include_spike_2001 = false;
    trace_config.faults_per_day = smoke ? 25.0 : 80.0;
  }

  measure::SyntheticTrace trace;
  {
    ScopedSpan span(tracer, "measure.trace_gen");
    util::Rng rng(seed);
    trace = measure::generate_trace(trace_config, rng);
  }
  std::vector<stream::AttackPlan> plans;
  std::vector<stream::OriginOverride> overrides;
  chaos::FeedFaultSchedule faults;
  {
    ScopedSpan span(tracer, "stream.plan");
    stream::ChurnConfig churn_config;
    churn_config.seed = 11;
    churn_config.share = 0.1;
    churn_config.min_active_days = churn_min_active_days;
    overrides = stream::plan_churn(trace, churn_config);
    stream::AttackConfig attack_config;
    attack_config.seed = 13;
    attack_config.attacks = attacks;
    plans = stream::plan_attacks(trace, attack_config, overrides);
    for (const auto& p : plans) overrides.push_back(p.inject);
    if (!overload) {
      chaos::FeedFaultConfig fault_config;
      fault_config.seed = 97;
      fault_config.horizon_days = trace.days;
      fault_config.gaps = 2.0;
      fault_config.gap_mean_days = 2.0;
      fault_config.duplicate_prob = 0.01;
      fault_config.reorder_prob = 0.02;
      fault_config.reorder_max_skew = 8;
      fault_config.garble_prob = 0.005;
      faults = chaos::compile_feed_faults(fault_config);
    }
  }
  std::vector<stream::StreamUpdate> updates;
  {
    ScopedSpan span(tracer, "stream.source");
    stream::TraceReplaySource source(trace, overrides);
    stream::FaultyFeed feed(source, faults);
    while (auto u = feed.next()) updates.push_back(std::move(*u));
  }

  stream::StreamConfig config;
  config.shards = 8;
  config.jobs = jobs;
  config.flush_margin = 16;  // covers the faulty feed's reorder skew
  config.shard.alarm_retention = 512;
  config.shard.memory_budget_bytes = budget;
  config.shard.evict_idle_days = 30;
  config.shard.day_capacity = overload ? (smoke ? 4 : 16) : 0;
  constexpr int kCheckpointEveryDays = 30;
  stream::StreamDetector detector(config);
  out.setup_s = seconds_since(kProcessStart);

  // Timed region: the detector alone, driven the way StreamDetector::run
  // drives it, with every ingest() call timed so the calls that flush a day
  // give the day lag.
  std::vector<double> checkpoint_ms;
  std::vector<double> checkpoint_bytes;
  double flush_s = 0.0, frontend_s = 0.0, flush_all_s = 0.0, finish_s = 0.0;
  int last_checkpoint_day = -1;
  out.day_lag_ms.reserve(static_cast<std::size_t>(trace.days) + 1);
  const std::size_t delivered = updates.size();
  const int ingest_span = tracer.open("stream.ingest");
  const auto start = Clock::now();
  for (stream::StreamUpdate& u : updates) {
    const std::uint64_t flushed_before = detector.front_counters().days_flushed;
    const auto t0 = Clock::now();
    detector.ingest(std::move(u));
    const auto t1 = Clock::now();
    if (detector.front_counters().days_flushed != flushed_before) {
      out.day_lag_ms.push_back(seconds_between(t0, t1) * 1e3);
      flush_s += seconds_between(t0, t1);
      tracer.add("stream.flush", t0, t1);
    } else {
      frontend_s += seconds_between(t0, t1);
    }
    const int day = detector.last_flushed_day();
    if (day >= 0 && day - last_checkpoint_day >= kCheckpointEveryDays) {
      last_checkpoint_day = day;
      std::ostringstream image;
      const auto c0 = Clock::now();
      detector.save_checkpoint(image);
      const auto c1 = Clock::now();
      checkpoint_ms.push_back(seconds_between(c0, c1) * 1e3);
      checkpoint_bytes.push_back(static_cast<double>(image.tellp()));
      tracer.add("stream.checkpoint", c0, c1);
    }
  }
  {
    const auto t0 = Clock::now();
    detector.flush_all();
    const auto t1 = Clock::now();
    detector.finish();
    const auto t2 = Clock::now();
    flush_all_s = seconds_between(t0, t1);
    finish_s = seconds_between(t1, t2);
    tracer.add("stream.flush_all", t0, t1);
    tracer.add("stream.finish", t1, t2);
  }
  out.timed_s = seconds_since(start);
  tracer.close(ingest_span);

  const obs::MetricsRegistry metrics = detector.metrics();
  const double updates_per_s = static_cast<double>(delivered) / out.timed_s;
  out.metrics["updates_per_s"] = {updates_per_s, "updates/s"};
  out.metrics["throughput"] = {updates_per_s, "1/s"};

  const auto outcomes = stream::evaluate_attacks(plans, detector.merged_alarms(),
                                                 overload ? nullptr : &faults);
  std::uint64_t observable = 0, lost = 0;
  for (const auto& o : outcomes) {
    if (!o.observable) continue;
    ++observable;
    if (!o.alarmed || !o.all_settled) ++lost;
  }
  out.attempted = observable;
  out.failed = lost;
  const std::uint64_t budget_total = config.shards * budget;
  const double open_alarms = metrics.gauge("stream.open_alarms");
  check(out, "stream.attacks_observable", observable > 0,
        std::to_string(observable) + " observable attack(s)");
  check(out, "stream.zero_lost_attacks", lost == 0,
        std::to_string(lost) + " observable attack(s) never alarmed or never settled");
  check(out, "stream.memory_bounded", detector.peak_bytes() <= budget_total,
        std::to_string(detector.peak_bytes()) + " peak bytes vs " +
            std::to_string(budget_total) + " budget");
  check(out, "stream.no_open_alarms", open_alarms == 0.0,
        json_number(open_alarms) + " alarm(s) open after finish()");
  out.digest_input = detector.alarm_log_text() + metrics.to_json();

  if (tracer.on()) {
    double busiest = 0.0, total = 0.0;
    for (const auto& shard : detector.shards()) {
      const double work =
          static_cast<double>(shard.counters().processed + shard.counters().shed_updates);
      busiest = std::max(busiest, work);
      total += work;
    }
    const double shed = static_cast<double>(metrics.counter("stream.shed_updates"));
    auto& l = out.layers;
    l["measure.trace_gen_s"] = {tracer.total("measure.trace_gen"), "s"};
    l["stream.source_s"] = {tracer.total("stream.source"), "s"};
    l["stream.frontend_us_per_update"] = {frontend_s / static_cast<double>(delivered) * 1e6,
                                          "us"};
    l["stream.flush_s"] = {flush_s + flush_all_s, "s"};
    l["stream.shard_skew"] = {
        total > 0.0 ? busiest / (total / static_cast<double>(config.shards)) : 0.0, "ratio"};
    l["stream.checkpoint_ms_p50"] = {percentile(checkpoint_ms, 0.5), "ms"};
    l["stream.checkpoint_bytes"] = {percentile(checkpoint_bytes, 0.5), "B"};
    l["stream.finish_s"] = {finish_s, "s"};
    l["stream.full_fidelity_share"] = {
        (static_cast<double>(delivered) - shed) / static_cast<double>(delivered), "ratio"};
    for (const char* counter : {"stream.duplicates_suppressed", "stream.malformed_rejected",
                                "stream.shed_updates", "stream.evicted_prefixes",
                                "stream.alarms_raised"}) {
      l[counter] = {static_cast<double>(metrics.counter(counter)), "count"};
    }
    l["stream.peak_bytes_held"] = {metrics.gauge("stream.peak_bytes_held"), "B"};
  }
  return out;
}

// ---------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool has_seed = false;
  std::size_t jobs = 0;
  bool smoke = false;
  bool trace = false;
  bool corrupt_digest = false;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_runner: " << why
            << "\nusage: perfbench_runner --workload NAME --seed N [--jobs J] [--smoke] "
               "[--trace] [--spans PATH] [--corrupt-digest]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      args.workload = value();
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
      args.has_seed = true;
    } else if (arg == "--jobs") {
      args.jobs = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--spans") {
      args.spans_path = value();
    } else if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--trace") {
      args.trace = true;
    } else if (arg == "--corrupt-digest") {
      args.corrupt_digest = true;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (args.workload.empty() || !args.has_seed) usage("--workload and --seed are required");
  return args;
}

void emit(const Args& args, std::size_t jobs, const Outcome& out) {
  std::uint64_t digest = fnv1a(out.digest_input);
  if (args.corrupt_digest) digest ^= 1;  // lets the self-test prove a mismatch fails
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016" PRIx64, digest);

  std::ostringstream os;
  os << "{\"workload\": " << json_string(args.workload) << ", \"seed\": " << args.seed
     << ", \"jobs\": " << jobs << ", \"smoke\": " << (args.smoke ? "true" : "false")
     << ", \"traced\": " << (args.trace ? "true" : "false")
     << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
     << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
     << ", \"setup_s\": " << json_number(out.setup_s)
     << ", \"timed_s\": " << json_number(out.timed_s)
     << ", \"peak_rss_mb\": " << json_number(peak_rss_mb())
     << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
     << ", \"digest\": \"" << digest_hex << "\"";
  auto write_map = [&os](const char* key, const auto& values) {
    os << ", \"" << key << "\": {";
    bool first = true;
    for (const auto& [name, value] : values) {
      os << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
         << json_number(value.first) << ", \"unit\": " << json_string(value.second) << "}";
      first = false;
    }
    os << "}";
  };
  write_map("metrics", out.metrics);
  write_map("layers", out.layers);
  os << ", \"checks\": [";
  for (std::size_t i = 0; i < out.checks.size(); ++i) {
    const Check& c = out.checks[i];
    os << (i ? ", " : "") << "{\"name\": " << json_string(c.name)
       << ", \"ok\": " << (c.ok ? "true" : "false") << ", \"detail\": " << json_string(c.detail)
       << "}";
  }
  os << "], \"day_lag_ms\": [";
  for (std::size_t i = 0; i < out.day_lag_ms.size(); ++i) {
    os << (i ? ", " : "") << json_number(out.day_lag_ms[i]);
  }
  os << "]}";
  std::cout << os.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const std::size_t jobs =
      args.jobs > 0 ? args.jobs
                    : std::min<std::size_t>(4, util::ThreadPool::default_jobs());
  Tracer tracer(args.trace);
  Outcome out;
  try {
    if (args.workload == "sweep_fig9") {
      out = run_sweep(args.seed, jobs, args.smoke, tracer);
    } else if (args.workload == "wave_multiprefix") {
      out = run_wave(args.seed, args.smoke, tracer);
    } else if (args.workload == "stream_replay") {
      out = run_stream(args.seed, jobs, args.smoke, false, tracer);
    } else if (args.workload == "stream_overload") {
      out = run_stream(args.seed, jobs, args.smoke, true, tracer);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << args.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  // The wave workload is single-threaded whatever --jobs says.
  emit(args, args.workload == "wave_multiprefix" ? 1 : jobs, out);
  if (!args.spans_path.empty()) tracer.write(args.spans_path);
  return 0;
}
