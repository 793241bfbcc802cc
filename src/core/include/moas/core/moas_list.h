// The MOAS list (the paper's Section 4.1/4.2) and the consistency kernel
// every checker calls.
//
// A MOAS list is the set of ASes entitled to originate a prefix. It is
// carried in the standard BGP community attribute: the community X:MLVal
// asserts "AS X may originate this prefix". Consistency between two lists is
// plain set equality — order and duplication never matter.
//
// The kernel is the one copy of each MOAS decision: what a route claims
// (read_claim), whether that claim is self-consistent, list equality, and
// the two set relations the checkers build on (covers, difference). The
// in-router MoasDetector, the offline MoasMonitor, the chaos invariants and
// the streaming DetectorShard all call it; the policy each builds on top
// stays in its own file.
#pragma once

#include <optional>
#include <string>

#include "moas/bgp/community.h"
#include "moas/bgp/route.h"

namespace moas::core {

using bgp::Asn;
using bgp::AsnSet;

/// MLVal: the reserved low-half community value that tags a MOAS-list
/// member. The draft reserves one of the 2^16 values; we pick 0xff9a
/// ("MOAS" on a phone pad, 6627 decimal — the paper's 4/6/2001 case count).
inline constexpr std::uint16_t kMoasListValue = 0xff9a;

/// True if `c` is a MOAS-list member community.
bool is_moas_community(bgp::Community c);

/// The community encoding of one list member. Requires asn <= 0xffff (the
/// classic attribute has a 2-octet AS field); wider members ride a large
/// community instead — see moas_large_community.
bgp::Community moas_community(Asn asn);

/// True if `c` is a MOAS-list member large community (<asn:MLVal:0>).
bool is_moas_large_community(const bgp::LargeCommunity& c);

/// The RFC 8092 encoding of one list member: <asn:MLVal:0>, valid for the
/// full 4-octet ASN range.
bgp::LargeCommunity moas_large_community(Asn asn);

/// Encode a full MOAS list into classic communities. Requires every member
/// <= 0xffff; mixed-width lists go through the PathAttributes overload of
/// attach_moas_list.
bgp::CommunitySet encode_moas_list(const AsnSet& origins);

/// Extract the MOAS list carried on a community set (empty if none).
AsnSet decode_moas_list(const bgp::CommunitySet& communities);

/// The full MOAS list of a route's attributes: classic members unioned with
/// large-community members.
AsnSet decode_moas_list(const bgp::PathAttributes& attrs);

/// Merge a MOAS list into an existing community set, replacing any MOAS
/// communities already present and leaving other communities untouched.
/// Requires every member <= 0xffff.
void attach_moas_list(bgp::CommunitySet& communities, const AsnSet& origins);

/// Width-splitting attach: members that fit 2 octets go to the classic
/// attribute, wider ones to large communities. Stale MOAS members are
/// replaced in BOTH attributes, other communities stay untouched.
void attach_moas_list(bgp::PathAttributes& attrs, const AsnSet& origins);

/// True if every member of `members` is in `list`.
bool covers(const AsnSet& list, const AsnSet& members);

/// The members of `observed` that are not in `reference`.
AsnSet difference(const AsnSet& observed, const AsnSet& reference);

/// What one route claims about its prefix's origins.
struct MoasClaim {
  AsnSet origins;              // the AS path's origin candidates
  AsnSet list;                 // the effective MOAS list
  bool explicit_list = false;  // the route carries a MOAS list

  /// A route whose explicit list leaves out its own origin is bogus on its
  /// face; a route without a list cannot contradict itself.
  bool self_consistent() const { return !explicit_list || covers(list, origins); }
};

/// Decode a route's claim once. The effective list is the explicit list if
/// the route carries one, otherwise the implicit {origin candidates} of the
/// AS path (the paper's footnote 3).
MoasClaim read_claim(const bgp::Route& route);

/// Set equality — "the order in the list may differ, but the set of ASes
/// included in each route announcement must be identical".
bool lists_consistent(const AsnSet& a, const AsnSet& b);

/// "{1, 2, 3}" for diagnostics.
std::string list_to_string(const AsnSet& list);

}  // namespace moas::core
