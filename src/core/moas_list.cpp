#include "moas/core/moas_list.h"

#include <algorithm>
#include <iterator>
#include <vector>

#include "moas/util/assert.h"

namespace moas::core {

bool is_moas_community(bgp::Community c) { return c.value() == kMoasListValue; }

bgp::Community moas_community(Asn asn) {
  MOAS_REQUIRE(asn <= 0xffffu, "MOAS community encoding needs a 2-octet ASN");
  MOAS_REQUIRE(asn != bgp::kNoAs, "MOAS list member must be a real ASN");
  return bgp::Community(static_cast<std::uint16_t>(asn), kMoasListValue);
}

bgp::CommunitySet encode_moas_list(const AsnSet& origins) {
  bgp::CommunitySet out;
  for (Asn asn : origins) out.add(moas_community(asn));
  return out;
}

bool is_moas_large_community(const bgp::LargeCommunity& c) {
  return c.data1() == kMoasListValue && c.data2() == 0;
}

bgp::LargeCommunity moas_large_community(Asn asn) {
  MOAS_REQUIRE(asn != bgp::kNoAs, "MOAS list member must be a real ASN");
  return bgp::LargeCommunity(asn, kMoasListValue, 0);
}

AsnSet decode_moas_list(const bgp::CommunitySet& communities) {
  AsnSet out;
  for (bgp::Community c : communities.values()) {
    if (is_moas_community(c)) out.insert(c.asn());
  }
  return out;
}

AsnSet decode_moas_list(const bgp::PathAttributes& attrs) {
  AsnSet out = decode_moas_list(attrs.communities);
  for (const bgp::LargeCommunity& c : attrs.large_communities.values()) {
    if (is_moas_large_community(c)) out.insert(c.global_admin());
  }
  return out;
}

void attach_moas_list(bgp::CommunitySet& communities, const AsnSet& origins) {
  std::vector<bgp::Community> stale;
  for (bgp::Community c : communities.values()) {
    if (is_moas_community(c)) stale.push_back(c);
  }
  for (bgp::Community c : stale) communities.remove(c);
  for (Asn asn : origins) communities.add(moas_community(asn));
}

void attach_moas_list(bgp::PathAttributes& attrs, const AsnSet& origins) {
  // Replace stale members in both attributes before splitting the new list
  // by width — otherwise a member that changed width would survive in the
  // attribute it no longer belongs to.
  std::vector<bgp::Community> stale;
  for (bgp::Community c : attrs.communities.values()) {
    if (is_moas_community(c)) stale.push_back(c);
  }
  for (bgp::Community c : stale) attrs.communities.remove(c);
  std::vector<bgp::LargeCommunity> stale_large;
  for (const bgp::LargeCommunity& c : attrs.large_communities.values()) {
    if (is_moas_large_community(c)) stale_large.push_back(c);
  }
  for (const bgp::LargeCommunity& c : stale_large) attrs.large_communities.remove(c);
  for (Asn asn : origins) {
    if (asn <= 0xffffu) {
      attrs.communities.add(moas_community(asn));
    } else {
      attrs.large_communities.add(moas_large_community(asn));
    }
  }
}

bool covers(const AsnSet& list, const AsnSet& members) {
  return std::includes(list.begin(), list.end(), members.begin(), members.end());
}

AsnSet difference(const AsnSet& observed, const AsnSet& reference) {
  AsnSet out;
  std::set_difference(observed.begin(), observed.end(), reference.begin(), reference.end(),
                      std::inserter(out, out.end()));
  return out;
}

MoasClaim read_claim(const bgp::Route& route) {
  MoasClaim claim;
  claim.origins = route.origin_candidates();
  claim.list = decode_moas_list(route.attrs);
  claim.explicit_list = !claim.list.empty();
  if (!claim.explicit_list) claim.list = claim.origins;
  return claim;
}

bool lists_consistent(const AsnSet& a, const AsnSet& b) { return a == b; }

std::string list_to_string(const AsnSet& list) {
  std::string out = "{";
  bool first = true;
  for (Asn asn : list) {
    if (!first) out += ", ";
    out += std::to_string(asn);
    first = false;
  }
  out += "}";
  return out;
}

}  // namespace moas::core
