// Per-AS prefix plan for the simulated Internet.
//
// The paper builds its topologies from the Oregon RouteViews table; here
// every AS simply owns one deterministic block, which is the victim prefix
// of each simulated attack.
#pragma once

#include "moas/bgp/asn.h"
#include "moas/net/prefix.h"

namespace moas::topo {

/// Deterministic prefix for an AS: a /20 carved out of 10.0.0.0/8 by the
/// low 12 bits of the ASN, so the mapping repeats every 4,096 ASNs
/// (ASNs 1 and 4,097 both get 10.0.16.0/20).
net::Prefix prefix_for_asn(bgp::Asn asn);

}  // namespace moas::topo
