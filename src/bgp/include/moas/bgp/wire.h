// BGP-4 wire format (RFC 4271 §4) for the UPDATE message, plus the RFC 1997 COMMUNITIES attribute encoding the MOAS list
// travels in.
//
// The simulator itself exchanges in-memory Update objects; this module
// exists so that (a) the byte-level cost of a MOAS list can be measured
// honestly (Section 4.3 discusses the size overhead), (b) the chaos engine
// can corrupt real UPDATE bytes and classify the damage under RFC 7606, and
// (c) the encoding logic is tested against the RFC's corner cases
// (extended-length attributes, AS_SET segments, prefix padding).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "moas/bgp/route.h"

namespace moas::bgp::wire {

/// NOTIFICATION error codes (RFC 4271 §6.1).
enum class ErrorCode : std::uint8_t {
  MessageHeader = 1,
  UpdateMessage = 3,
};

// Message Header Error subcodes (§6.2).
inline constexpr std::uint8_t kHdrNotSynchronized = 1;
inline constexpr std::uint8_t kHdrBadLength = 2;
inline constexpr std::uint8_t kHdrBadType = 3;

// UPDATE Message Error subcodes (§6.4).
inline constexpr std::uint8_t kUpdMalformedAttrList = 1;
inline constexpr std::uint8_t kUpdUnrecognizedWellKnown = 2;
inline constexpr std::uint8_t kUpdMissingWellKnown = 3;
inline constexpr std::uint8_t kUpdAttrLengthError = 5;
inline constexpr std::uint8_t kUpdInvalidOrigin = 6;
inline constexpr std::uint8_t kUpdInvalidNetworkField = 10;
inline constexpr std::uint8_t kUpdMalformedAsPath = 11;

/// RFC 7606 revised error-handling actions, ordered by severity so the
/// overall fate of a message is the maximum over its individual problems.
enum class ErrorAction : std::uint8_t {
  /// No action needed (unknown optional attributes and the like).
  Ignore = 0,
  /// Drop the broken attribute, keep the routes (non-essential attrs).
  AttributeDiscard = 1,
  /// The NLRI is intact but an essential attribute is not: treat every
  /// announced prefix as withdrawn instead of installing garbage.
  TreatAsWithdraw = 2,
  /// Framing or NLRI damage — the RFC 4271 NOTIFICATION + reset stands.
  SessionReset = 3,
};

const char* to_string(ErrorAction action);

/// Malformed input while decoding. Carries the RFC 4271 NOTIFICATION error
/// code + subcode a session would send before resetting.
class WireError : public std::runtime_error {
 public:
  WireError(ErrorCode code, std::uint8_t subcode, const std::string& what)
      : std::runtime_error(what), code_(code), subcode_(subcode) {}

  ErrorCode code() const { return code_; }
  std::uint8_t code_octet() const { return static_cast<std::uint8_t>(code_); }
  std::uint8_t subcode() const { return subcode_; }

 private:
  ErrorCode code_;
  std::uint8_t subcode_;
};

/// Message types (RFC 4271 §4.1). Only UPDATE has a codec; the others are
/// listed so header validation tells a foreign type from an unknown one.
enum class MessageType : std::uint8_t {
  Open = 1,
  Update = 2,
  Notification = 3,
  Keepalive = 4,
};

/// Fixed header size: 16-byte marker + 2-byte length + 1-byte type.
inline constexpr std::size_t kHeaderSize = 19;
inline constexpr std::size_t kMaxMessageSize = 4096;

/// Path-attribute type codes used here.
enum class AttrType : std::uint8_t {
  Origin = 1,
  AsPath = 2,
  NextHop = 3,
  Med = 4,
  LocalPref = 5,
  Communities = 8,
  /// RFC 6793: the true 4-octet path backing AS_TRANS stand-ins in a
  /// 2-octet AS_PATH. Optional transitive; emitted only when needed.
  As4Path = 17,
  /// RFC 8092 large communities; wide-ASN MOAS-list members ride here.
  LargeCommunities = 32,
};

/// An attribute we do not implement but must not destroy: RFC 4271 §9 says
/// unknown optional transitive attributes are retained and re-advertised
/// with the Partial flag bit set.
struct UnknownAttribute {
  std::uint8_t type = 0;
  std::vector<std::uint8_t> value;

  friend auto operator<=>(const UnknownAttribute&, const UnknownAttribute&) = default;
};

/// The content of one UPDATE message. A single message may withdraw several
/// prefixes and announce several prefixes sharing one attribute set.
struct UpdateMessage {
  std::vector<net::Prefix> withdrawn;
  std::optional<PathAttributes> attrs;  // required when nlri is non-empty
  std::vector<net::Prefix> nlri;
  /// Unknown optional transitive attributes carried through verbatim
  /// (re-encoded with the Partial bit; RFC 4271 §9).
  std::vector<UnknownAttribute> unknown_attrs;
  /// Prefixes revoked by RFC 7606 treat-as-withdraw rather than by the
  /// sender. Filled by DecodeResult::to_deliverable(), never by decoding;
  /// to_sim_updates() turns them into error-withdraw updates so the
  /// receiving router can drop detector evidence tied to them.
  std::vector<net::Prefix> error_withdrawn;
};

struct EncodeOptions {
  /// Include LOCAL_PREF (IBGP sessions only; EBGP must not send it).
  bool include_local_pref = false;
  /// NEXT_HOP value; the AS-level simulator has no concrete next hop, so a
  /// placeholder is used unless the caller knows better.
  net::Ipv4Addr next_hop = net::Ipv4Addr(0u);
  /// Encode AS_PATH with 4-octet ASNs (both peers negotiated the RFC 6793
  /// capability). When false, ASNs above 0xffff are written as AS_TRANS in
  /// AS_PATH and the true path is appended as a self-describing AS4_PATH —
  /// so any decoder recovers the full path, negotiated or not, and byte
  /// streams for all-narrow paths are identical to the pre-AS4 encoding.
  bool four_octet_as = false;
};

/// Encode an UPDATE. Throws std::invalid_argument for unencodable input
/// (an over-long message or path segment). ASNs of any width encode: wide
/// ones travel natively or via AS_TRANS + AS4_PATH (see
/// EncodeOptions::four_octet_as).
std::vector<std::uint8_t> encode_update(const UpdateMessage& update,
                                        const EncodeOptions& options = EncodeOptions());

/// Decode an UPDATE (must include the header). Throws WireError at the
/// first problem — the strict RFC 4271 discipline. `four_octet_as` selects
/// the negotiated AS_PATH width; when false, an AS4_PATH attribute is
/// merged per RFC 6793 §4.2.3 to recover wide ASNs.
UpdateMessage decode_update(std::span<const std::uint8_t> data, bool four_octet_as = false);

/// One classified problem found while decoding an UPDATE under RFC 7606.
struct AttributeIssue {
  ErrorAction action = ErrorAction::Ignore;
  /// Attribute type code the problem is pinned to (0: not attributable to
  /// a single attribute, e.g. a missing mandatory attribute).
  std::uint8_t attr_type = 0;
  /// The NOTIFICATION code/subcode strict handling would have sent.
  ErrorCode code = ErrorCode::UpdateMessage;
  std::uint8_t subcode = 0;
  std::string detail;
};

/// Result of decode_update_revised: the salvage plus every classified
/// problem. With no issues the message is exactly what decode_update
/// returns.
struct DecodeResult {
  UpdateMessage message;
  std::vector<AttributeIssue> issues;

  /// Maximum action over all issues (Ignore when the message was clean).
  ErrorAction severity() const;

  /// Apply the severity to produce the message a session should hand to
  /// the routing layer: at TreatAsWithdraw the NLRI moves to
  /// error_withdrawn and the attributes are dropped; at AttributeDiscard
  /// or below the salvaged message passes through unchanged (broken
  /// non-essential attributes were already left out during parsing).
  UpdateMessage to_deliverable() const;
};

/// Decode an UPDATE with RFC 7606 revised error handling: problems inside
/// the path-attribute section are classified and survived instead of
/// aborting the parse. Still throws WireError for SessionReset-class
/// damage — a broken header, withdrawn-routes section, attribute-section
/// framing (Total Path Attribute Length overrunning the body), or NLRI —
/// because then no prefix list can be trusted. `four_octet_as` as in
/// decode_update.
DecodeResult decode_update_revised(std::span<const std::uint8_t> data,
                                   bool four_octet_as = false);

/// An UPDATE with no withdrawn routes and no NLRI is the RFC 4724 §2
/// End-of-RIB marker for IPv4 unicast.
bool is_end_of_rib(const UpdateMessage& message);

/// Convert between the simulator's Update and wire messages.
std::vector<std::uint8_t> encode_sim_update(const Update& update,
                                            const EncodeOptions& options = EncodeOptions());
/// A decoded message may carry several announcements/withdrawals; expand to
/// simulator updates (announcements share the attribute set).
std::vector<Update> to_sim_updates(const UpdateMessage& message);

}  // namespace moas::bgp::wire
