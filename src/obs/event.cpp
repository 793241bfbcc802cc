#include "moas/obs/event.h"

#include <cstdio>
#include <ostream>

namespace moas::obs {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::UpdateSent: return "update-sent";
    case EventKind::UpdateReceived: return "update-received";
    case EventKind::WithdrawReceived: return "withdraw-received";
    case EventKind::RoutePreferred: return "route-preferred";
    case EventKind::RouteDepreferred: return "route-depreferred";
    case EventKind::AlarmRaised: return "alarm-raised";
    case EventKind::AlarmResolved: return "alarm-resolved";
    case EventKind::AlarmDropped: return "alarm-dropped";
    case EventKind::FaultInjected: return "fault-injected";
    case EventKind::MessageFault: return "message-fault";
    case EventKind::ErrorDegraded: return "error-degraded";
    case EventKind::ErrorWithdraw: return "error-withdraw";
    case EventKind::AttackInjected: return "attack-injected";
    case EventKind::ResolverRequest: return "resolver-request";
    case EventKind::ResolverTimeout: return "resolver-timeout";
    case EventKind::ResolverRetry: return "resolver-retry";
    case EventKind::ResolverBreaker: return "resolver-breaker";
    case EventKind::ResolverFallback: return "resolver-fallback";
    case EventKind::FeedGap: return "feed-gap";
    case EventKind::UpdatesShed: return "updates-shed";
    case EventKind::StateEvicted: return "state-evicted";
  }
  return "?";
}

namespace {

void append_json_string(std::string& out, const std::string& text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

std::string TraceEvent::to_json() const {
  // Fixed-precision time: equal doubles print equal bytes, and 9 decimals
  // comfortably resolve the nanosecond FIFO nudges the network applies.
  char head[64];
  std::snprintf(head, sizeof(head), "{\"t\":%.9f,", at);
  std::string out = head;
  out += "\"kind\":\"";
  out += to_string(kind);
  out += "\",\"actor\":";
  out += std::to_string(actor);
  if (peer != 0) {
    out += ",\"peer\":";
    out += std::to_string(peer);
  }
  if (has_prefix) {
    out += ",\"prefix\":\"";
    out += prefix.to_string();
    out += '"';
  }
  if (value != 0) {
    out += ",\"v\":";
    out += std::to_string(value);
  }
  if (value2 != 0) {
    out += ",\"v2\":";
    out += std::to_string(value2);
  }
  if (!note.empty()) {
    out += ",\"note\":";
    append_json_string(out, note);
  }
  out += '}';
  return out;
}

void write_trace_jsonl(std::ostream& os, const std::vector<TraceEvent>& events) {
  for (const TraceEvent& event : events) os << event.to_json() << '\n';
}

}  // namespace moas::obs
