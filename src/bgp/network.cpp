#include "moas/bgp/network.h"

#include <algorithm>

#include "moas/obs/metrics.h"
#include "moas/obs/trace.h"
#include "moas/util/assert.h"

namespace moas::bgp {

Network::Network() : Network(Config()) {}

Network::Network(Config config) : config_(config), rng_(config.seed) {
  MOAS_REQUIRE(config_.link_delay >= 0.0, "link delay must be non-negative");
  MOAS_REQUIRE(config_.jitter >= 0.0, "jitter must be non-negative");
  MOAS_REQUIRE(config_.session_reestablish_delay > 0.0,
               "session re-establishment delay must be positive");
  MOAS_REQUIRE(!config_.graceful_restart || *config_.graceful_restart > 0.0,
               "graceful restart needs a positive restart time");
}

Router& Network::add_router(Asn asn) {
  auto [it, inserted] = nodes_.try_emplace(asn);
  MOAS_REQUIRE(inserted, "router already exists");
  Node* sender = &it->second;
  sender->router = std::make_unique<Router>(
      asn, config_.mode,
      [this, sender](Asn, Asn to, Update update) { deliver(*sender, to, std::move(update)); },
      &clock_);
  Router& ref = *sender->router;
  if (config_.graceful_restart) ref.set_graceful_restart(*config_.graceful_restart);
  ref.set_trace(trace_);
  return ref;
}

void Network::set_trace(obs::TraceBus* bus) {
  trace_ = bus;
  for (auto& [_, node] : nodes_) node.router->set_trace(bus);
}

obs::MetricsRegistry Network::collect_metrics() const {
  obs::MetricsRegistry registry;
  if (!nodes_.empty()) {
    Router::Stats total;
    for (const auto& [_, node] : nodes_) total += node.router->stats();
    total.collect_metrics(registry);
  }
  registry.count("network.messages_sent", messages_sent_);
  registry.count("network.messages_dropped", messages_dropped_);
  registry.set_gauge("network.routers", static_cast<double>(nodes_.size()));
  registry.set_gauge("network.links", static_cast<double>(links().size()));
  registry.count("sim.events_executed", clock_.executed());
  return registry;
}

void Network::connect(Asn a, Asn b, Relationship rel_of_b) {
  Node& node_a = node(a);
  Node& node_b = node(b);
  node_a.router->add_peer(b, rel_of_b);
  node_b.router->add_peer(a, reverse(rel_of_b));
  node_a.links[b].receiver = node_b.router.get();
  node_b.links[a].receiver = node_a.router.get();
}

Network::Node& Network::node(Asn asn) {
  auto it = nodes_.find(asn);
  MOAS_REQUIRE(it != nodes_.end(), "unknown router " + std::to_string(asn));
  return it->second;
}

Router& Network::router(Asn asn) { return *node(asn).router; }

const Router& Network::router(Asn asn) const {
  auto it = nodes_.find(asn);
  MOAS_REQUIRE(it != nodes_.end(), "unknown router " + std::to_string(asn));
  return *it->second.router;
}

std::vector<Asn> Network::asns() const {
  std::vector<Asn> out;
  out.reserve(nodes_.size());
  for (const auto& [asn, _] : nodes_) out.push_back(asn);
  return out;
}

std::vector<std::pair<Asn, Asn>> Network::links() const {
  std::vector<std::pair<Asn, Asn>> out;
  for (const auto& [asn, node] : nodes_) {
    for (const auto& [peer, _] : node.links) {
      if (asn < peer) out.emplace_back(asn, peer);
    }
  }
  // nodes_ and each link row iterate in ASN order, so this is already
  // sorted — keep the guarantee explicit for schedule determinism.
  std::sort(out.begin(), out.end());
  return out;
}

bool Network::run_to_quiescence(std::size_t max_events) {
  return clock_.run(max_events) < max_events || clock_.empty();
}

void Network::set_link_up(Asn a, Asn b, bool up) {
  MOAS_REQUIRE(router(a).has_peer(b), "no such peering");
  const std::pair<Asn, Asn> key = std::minmax(a, b);
  if (!up) {
    if (!failed_links_.insert(key).second) return;  // already down
    ++link_down_epoch_[key];
    router(a).peer_down(b);
    router(b).peer_down(a);
  } else {
    if (failed_links_.erase(key) == 0) return;  // already up
    // A crashed endpoint keeps the session down even though the physical
    // link recovered; restart_router brings it up then.
    if (crashed_.contains(a) || crashed_.contains(b)) return;
    router(a).peer_up(b);
    // The replay above passes through the chaos tap synchronously, so a
    // corrupted replayed UPDATE can reset this very session mid-bring-up.
    // If it did, the link is failed again: bringing the second side up now
    // would book advertisements nothing can deliver, and the eventual real
    // re-establishment would duplicate-suppress its replay against those
    // phantom bookings — a permanent hole.
    if (failed_links_.contains(key)) return;
    router(b).peer_up(a);
  }
}

bool Network::link_up(Asn a, Asn b) const {
  return !failed_links_.contains(std::minmax(a, b));
}

void Network::reset_session(Asn a, Asn b, double reestablish_delay) {
  MOAS_REQUIRE(router(a).has_peer(b), "no such peering");
  // std::minmax returns a pair of references into the parameters; the
  // re-establish lambda below outlives this frame, so the key must be a
  // value pair or the capture dangles (and the restore silently yields on
  // a garbage epoch lookup, leaving the session down forever).
  const std::pair<Asn, Asn> key = std::minmax(a, b);
  if (failed_links_.contains(key)) return;  // already down; nothing to reset
  if (reestablish_delay <= 0.0) reestablish_delay = config_.session_reestablish_delay;
  set_link_up(a, b, false);
  // Only restore if no *newer* failure hit the link while we were waiting:
  // a longer-lived link flap injected after this reset owns the recovery.
  const std::uint64_t epoch = link_down_epoch_[key];
  clock_.schedule_after(reestablish_delay, [this, key, epoch] {
    if (link_down_epoch_[key] != epoch) return;
    set_link_up(key.first, key.second, true);
  });
}

void Network::crash_router(Asn asn) {
  Router& r = router(asn);
  if (!crashed_.insert(asn).second) return;  // already down
  // Sessions drop on both sides; marking the link epochs makes any pending
  // session-reset restore yield, and `crashed_` makes deliver() drop
  // whatever is still in flight to or from the dead router.
  for (Asn peer : r.peers()) {
    const std::pair<Asn, Asn> key = std::minmax(asn, peer);
    ++link_down_epoch_[key];
    // peer_restarting honors the graceful-restart negotiation: with GR the
    // peer retains the crashed router's routes as stale; without it this is
    // the cold flush peer_down does.
    if (!failed_links_.contains(key)) router(peer).peer_restarting(asn);
  }
  r.crash();
}

void Network::restart_router(Asn asn) {
  Router& r = router(asn);
  if (crashed_.erase(asn) == 0) return;  // not crashed
  r.restart();
  // Initial route exchange on every operational link (the cold-start
  // re-announcement). Links that are failed, or whose far end is itself
  // crashed, stay down until their own recovery drives peer_up.
  for (Asn peer : r.peers()) {
    if (failed_links_.contains(std::minmax(asn, peer))) continue;
    if (crashed_.contains(peer)) continue;
    r.peer_up(peer);
    // Same tap-reentrancy hazard as set_link_up: the replay can reset the
    // session it is riding on; only bring the far side up if it survived.
    if (failed_links_.contains(std::minmax(asn, peer))) continue;
    router(peer).peer_up(asn);
  }
}

void Network::sever_link_silently(Asn a, Asn b) {
  MOAS_REQUIRE(router(a).has_peer(b), "no such peering");
  const std::pair<Asn, Asn> key = std::minmax(a, b);
  failed_links_.insert(key);
  ++link_down_epoch_[key];
}

bool Network::session_carries(Asn from, Asn to) const {
  return link_up(from, to) && !crashed_.contains(from) && !crashed_.contains(to);
}

void Network::deliver(Node& sender, Asn to, Update update) {
  const Asn from = sender.router->asn();
  if (faults_active() && !session_carries(from, to)) {
    ++messages_dropped_;
    return;
  }
  ++messages_sent_;
  if (tap_) {
    TapVerdict verdict = tap_(from, to, update);
    switch (verdict.action) {
      case TapVerdict::Action::Drop:
        ++messages_dropped_;
        return;
      case TapVerdict::Action::ResetSession:
        // The receiver decoded garbage: NOTIFICATION + session teardown.
        ++messages_dropped_;
        reset_session(from, to);
        return;
      case TapVerdict::Action::Deliver:
        if (!verdict.deliveries.empty()) {
          for (Update& replacement : verdict.deliveries) {
            schedule_delivery(sender, to, std::move(replacement), verdict.extra_delay,
                              verdict.allow_reorder);
          }
          return;
        }
        schedule_delivery(sender, to, std::move(update), verdict.extra_delay,
                          verdict.allow_reorder);
        return;
    }
  }
  schedule_delivery(sender, to, std::move(update), 0.0, false);
}

void Network::schedule_delivery(Node& sender, Asn to, Update update, double extra_delay,
                                bool allow_reorder) {
  const double delay = config_.link_delay + extra_delay +
                       (config_.jitter > 0.0 ? rng_.uniform01() * config_.jitter : 0.0);
  auto link = sender.links.find(to);
  MOAS_ENSURE(link != sender.links.end(), "message addressed to a non-peer");
  // FIFO per directed link: a BGP session is a TCP stream, so a later
  // update must never overtake an earlier one (an overtaken stale
  // announcement would act as a bogus implicit withdraw at the receiver).
  // The reorder fault deliberately breaks this by bypassing the clamp.
  sim::Time at = clock_.now() + delay;
  sim::Time& last = link->second.last_arrival;
  if (!allow_reorder) {
    if (at <= last) at = last + 1e-9;
    last = at;
  } else if (at > last) {
    last = at;
  }
  // Move the update into the record: the sender may mutate its state freely
  // while the message is "on the wire".
  const std::uint32_t slot = deliveries_.put(
      Delivery{sender.router->asn(), to, link->second.receiver, std::move(update)});
  clock_.schedule_at(at, *this, slot);
}

void Network::run_event(std::uint32_t slot) {
  Delivery delivery = deliveries_.take(slot);
  // The link failed, or an endpoint crashed, while the message was in flight.
  if (faults_active() && !session_carries(delivery.from, delivery.to)) {
    ++messages_dropped_;
    return;
  }
  delivery.receiver->handle_update(delivery.from, std::move(delivery.update));
}

}  // namespace moas::bgp
