// PreferenceGraph: the preference tree T of Section 3.3, generalized to
// noisy input.
//
// Nodes are tuple ids; an edge u -> v records the (majority-voted) crowd
// judgement "u is preferred over v" on one crowd attribute, and "equally
// preferred" answers merge nodes into equivalence classes. Transitivity is
// the whole point of T — CrowdSky's pruning rules P2/P3 skip any question
// whose answer is already implied — so reachability must be cheap: we
// keep one ancestor bitset per class representative (the full transitive
// closure, read side only), giving O(1) Prefers() and word-parallel "does
// anything in this set precede v" queries. The rows are maintained
// Italiano-style by pruned search over the direct edges: an insert u -> v
// walks forward from v only to the nodes u does not reach yet, and for
// each of them walks backward from u only to the ancestors that row still
// lacks, so an insert costs in proportion to the pairs it adds.
//
// With imperfect workers, an answer may contradict the closure (a cycle) or
// an equivalence (equal vs. already strictly ordered). The contradiction
// policy decides what happens; the default keeps the existing knowledge and
// counts the contradiction, which matches the paper's discussion of
// preventing the propagation of false dominance relationships.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitset.h"
#include "common/status.h"

namespace crowdsky {

/// What to do when a new answer contradicts the current closure.
enum class ContradictionPolicy {
  kFirstWins,  ///< ignore the new answer, count the contradiction
  kFail,       ///< return Status::Contradiction (used under perfect oracles)
};

/// \brief Dynamic partial order with equivalence classes and O(1)
/// reachability.
class PreferenceGraph {
 public:
  explicit PreferenceGraph(
      int num_nodes, ContradictionPolicy policy = ContradictionPolicy::kFirstWins);

  int size() const { return n_; }

  /// Records "u is strictly preferred over v". Returns OK if the edge was
  /// added or already implied; Contradiction per policy if v is already
  /// (weakly) preferred over u.
  Status AddPreference(int u, int v);

  /// Records "u and v are equally preferred" (class merge).
  Status AddEquivalence(int u, int v);

  /// True iff u is strictly preferred over v (directly or transitively).
  bool Prefers(int u, int v) const;
  /// True iff u and v were judged equally preferred (transitively).
  bool Equivalent(int u, int v) const;
  /// Prefers(u,v) || Equivalent(u,v). This is the `u .AC v` weak
  /// preference that makes a dominator u in DS(t) decide t's fate.
  bool WeaklyPrefers(int u, int v) const {
    return Equivalent(u, v) || Prefers(u, v);
  }
  /// True iff any relation between u and v is known.
  bool Comparable(int u, int v) const {
    return Equivalent(u, v) || Prefers(u, v) || Prefers(v, u);
  }

  /// True iff some node in `ids` (a bitset over node ids, excluding v
  /// itself) is strictly preferred over v.
  bool AnyStrictlyPrefers(const DynamicBitset& ids, int v) const;

  /// Union-find representative of v's equivalence class.
  int representative(int v) const { return Find(v); }

  /// Number of answers rejected as contradictory (kFirstWins only).
  int64_t contradiction_count() const { return contradictions_; }
  /// Number of strict edges accepted (excluding already-implied ones).
  int64_t edge_count() const { return edges_; }
  /// Number of equivalence merges performed.
  int64_t merge_count() const { return merges_; }

 private:
  int Find(int v) const;
  /// Adds `ru` and every ancestor of `ru` to the row of every node that
  /// `rv` reaches and `ru` does not yet; the edge ru -> rv is already in
  /// the adjacency lists.
  void InsertEdgeClosure(int ru, int rv);
  /// Every representative reachable from `r` (excluding `r`), into
  /// `found_`.
  void CollectDescendants(int r);

  int n_;
  ContradictionPolicy policy_;
  // Union-find parent; mutable for path halving in const lookups.
  mutable std::vector<int> parent_;
  // Closure rows, indexed by representative; bit x of anc_[y] means the
  // representative x strictly precedes y. Rows are upward-closed: an
  // ancestor's ancestors are in the row too.
  std::vector<DynamicBitset> anc_;
  // Accepted (non-implied) strict edges between representatives: out_[x]
  // holds y for every edge x -> y, in_[y] holds x. Their transitive
  // closure is exactly anc_.
  std::vector<std::vector<int>> out_;
  std::vector<std::vector<int>> in_;
  int64_t contradictions_ = 0;
  int64_t edges_ = 0;
  int64_t merges_ = 0;
  // Search scratch, kept to avoid per-insert allocation.
  std::vector<int> stack_;
  std::vector<int> found_;
  // Scratch for mask canonicalization when merges have occurred.
  mutable DynamicBitset scratch_;
};

}  // namespace crowdsky
