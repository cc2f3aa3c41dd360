// EagerClosureGraph: the two-sided eager transitive closure that
// PreferenceGraph used before its pruned-search closure, kept as a test
// oracle. It holds one descendant and one ancestor row per representative
// and ORs a whole row into every ancestor of u and every descendant of v
// on each insert, so it is simple to check by eye and slow on purpose.
// The public surface mirrors PreferenceGraph's, so a differential test can
// drive both with one stream.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitset.h"
#include "common/status.h"
#include "prefgraph/preference_graph.h"

namespace crowdsky::testing {

class EagerClosureGraph {
 public:
  explicit EagerClosureGraph(
      int num_nodes, ContradictionPolicy policy = ContradictionPolicy::kFirstWins);

  int size() const { return n_; }

  Status AddPreference(int u, int v);
  Status AddEquivalence(int u, int v);

  bool Prefers(int u, int v) const;
  bool Equivalent(int u, int v) const { return Find(u) == Find(v); }
  bool Comparable(int u, int v) const {
    return Equivalent(u, v) || Prefers(u, v) || Prefers(v, u);
  }
  bool AnyStrictlyPrefers(const DynamicBitset& ids, int v) const;

  int representative(int v) const { return Find(v); }
  int64_t contradiction_count() const { return contradictions_; }
  int64_t edge_count() const { return edges_; }
  int64_t merge_count() const { return merges_; }

 private:
  int Find(int v) const;
  void InsertEdgeClosure(int ru, int rv);

  int n_;
  ContradictionPolicy policy_;
  mutable std::vector<int> parent_;
  // Closure rows, indexed by representative; bits are representative ids.
  std::vector<DynamicBitset> desc_;
  std::vector<DynamicBitset> anc_;
  int64_t contradictions_ = 0;
  int64_t edges_ = 0;
  int64_t merges_ = 0;
  mutable DynamicBitset scratch_;
};

}  // namespace crowdsky::testing
