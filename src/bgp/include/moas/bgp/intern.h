// Process-wide interning pools for AS paths and community sets.
//
// The memory wall at 10k–100k-AS x multi-prefix scale is attribute
// duplication: a converged topology holds only O(edges) distinct AS paths
// and a handful of distinct MOAS lists, yet every Adj-RIB-In entry of every
// router used to own a private heap copy. The pools here keep one canonical
// copy of each distinct value in an arena with stable addresses; AsPath /
// CommunitySet / LargeCommunitySet (declared next to their value types in
// as_path.h / community.h) are single-pointer handles onto it.
//
// Contracts:
//   - Stable addresses: interned data is never moved or freed; a handle
//     taken at any point stays valid for the life of the process (arena =
//     per-shard std::deque).
//   - Canonical: equal contents always yield the same pointer, so handle
//     equality is pointer equality. Ordering comparisons fall back to value
//     comparison and are bit-identical to the pre-intern defaulted
//     orderings — nothing observable depends on addresses or insert order.
//   - Thread-safe: pools are sharded by content hash, one mutex per shard.
//     Interning is the only synchronization point; reads through handles
//     are lock-free (the data is immutable).
//   - Ids: each distinct value gets a stable 32-bit id. Assignment order
//     depends on thread interleaving, so ids are for tests/diagnostics
//     only and must never reach an output that is compared across runs.
//
// DESIGN.md §13 documents the layout and the bytes/route accounting that
// the MultiPrefix ctests and perfbench's wave_multiprefix check gate.
#pragma once

#include <cstddef>

#include "moas/bgp/as_path.h"
#include "moas/bgp/community.h"

namespace moas::bgp::intern {

/// Footprint snapshot of one pool, for the multi-prefix bytes/route accounting.
struct PoolUsage {
  /// Distinct interned values.
  std::size_t entries = 0;
  /// Bytes owned by the canonical values: sizeof(Data) per entry plus the
  /// heap behind its vectors (capacities are shrunk to size on intern).
  std::size_t payload_bytes = 0;
  /// Estimated bytes of the dedup index (hash-set nodes + bucket array).
  std::size_t index_bytes = 0;

  std::size_t total_bytes() const { return payload_bytes + index_bytes; }
};

struct PoolStats {
  PoolUsage paths;
  PoolUsage community_sets;
  PoolUsage large_community_sets;

  std::size_t total_bytes() const {
    return paths.total_bytes() + community_sets.total_bytes() +
           large_community_sets.total_bytes();
  }
};

/// Snapshot of every pool. Pools are process-global and only ever grow, so
/// successive snapshots are monotone.
PoolStats pool_stats();

}  // namespace moas::bgp::intern
