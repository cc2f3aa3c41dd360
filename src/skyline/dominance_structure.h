// DominanceStructure: everything CrowdSky derives from the known
// attributes AK before a single crowd question is asked.
//
//  * dominating sets DS(t) (Definition 5), stored as bitsets, plus sizes,
//  * dominatee bitsets D(u) = { x | u dominates x in AK } — the transpose
//    of DS, used for freq(u,v) (Sections 3.4 and 5) and for the direct-
//    parent computation,
//  * the evaluation order (ascending |DS(t)|, Lemma 3),
//  * skyline layers SL_1..SL_k (Definition 6) and the direct-dominator
//    graph c(t) (transitive reduction of AK dominance) used by ParallelSL.
//
// Construction is O(n^2) pairwise dominance tests with word-parallel set
// operations afterwards, block-partitioned across the global ThreadPool
// (see common/thread_pool.h): each thread fills disjoint row-ranges of the
// dominatee bitsets over the score-sorted order — via the batched SoA
// dominance kernels (skyline/dominance_kernels.h) by default, or the
// historical per-pair Compare under CROWDSKY_KERNEL=legacy — a
// word-partitioned transpose fills the dominator rows, and a merge pass
// derives sizes, layers and direct dominators. Every phase writes disjoint
// state and every backend performs the identical IEEE comparisons, so the
// structure is bit-identical for every CROWDSKY_THREADS value and every
// kernel backend.
#pragma once

#include <vector>

#include "common/bitset.h"
#include "skyline/dominance.h"
#include "skyline/dominance_kernels.h"

namespace crowdsky {

/// \brief Precomputed AK dominance relations for a dataset.
class DominanceStructure {
 public:
  /// Builds from the known-attribute view of a dataset, using the
  /// process-selected kernel backend (CROWDSKY_KERNEL / CPU detection).
  explicit DominanceStructure(const PreferenceMatrix& known);

  /// Same, but with the fill backend pinned explicitly — the hook the
  /// differential tests and benchmarks use to compare backends in one
  /// process regardless of the environment.
  DominanceStructure(const PreferenceMatrix& known, KernelBackend backend);

  int size() const { return n_; }

  /// Bitset form of DS(t): tuples that dominate t in AK.
  const DynamicBitset& dominator_bits(int t) const {
    return dominators_[static_cast<size_t>(t)];
  }
  /// DS(t) materialized as an ascending id list.
  std::vector<int> DominatorsOf(int t) const {
    return dominators_[static_cast<size_t>(t)].ToVector();
  }
  /// |DS(t)|.
  int dominating_set_size(int t) const {
    return ds_size_[static_cast<size_t>(t)];
  }

  /// D(u): bitset of tuples u dominates in AK.
  const DynamicBitset& dominatees(int u) const {
    return dominatees_[static_cast<size_t>(u)];
  }
  /// |D(u)|. Bounds every freq(u, v) and freq(v, u), and equals
  /// freq(s, u) for every s in DS(u), since D(u) is a subset of D(s).
  int dominatee_count(int u) const {
    return dominatee_count_[static_cast<size_t>(u)];
  }

  /// True iff s dominates t in AK (O(1) bit test).
  bool Dominates(int s, int t) const {
    return dominatees_[static_cast<size_t>(s)].Test(static_cast<size_t>(t));
  }

  /// freq(u,v) = |{ x | u and v both dominate x in AK }| — the question-
  /// importance measure of Sections 3.4 and 5.
  size_t Frequency(int u, int v) const {
    return dominatees_[static_cast<size_t>(u)].IntersectionCount(
        dominatees_[static_cast<size_t>(v)]);
  }

  /// Tuple ids sorted by ascending |DS(t)| (ties by id) — the evaluation
  /// order of Algorithm 1 line 7; a valid topological order of AK
  /// dominance by Lemma 3.
  const std::vector<int>& evaluation_order() const {
    return evaluation_order_;
  }

  /// SKY_AK(R): ids with empty dominating sets, ascending.
  const std::vector<int>& known_skyline() const { return known_skyline_; }

  /// 1-based skyline-layer index of t (Definition 6); layer 1 is SKY_AK(R).
  int layer_of(int t) const { return layer_of_[static_cast<size_t>(t)]; }
  int num_layers() const { return num_layers_; }
  /// Members of layer `l` (1-based), ascending ids.
  const std::vector<int>& layer(int l) const {
    return layers_[static_cast<size_t>(l - 1)];
  }

  /// c(t): direct dominators of t — the transitive reduction of AK
  /// dominance (s in c(t) iff s dominates t with no u strictly between).
  const std::vector<int>& direct_dominators(int t) const {
    return direct_dominators_[static_cast<size_t>(t)];
  }

 private:
  int n_;
  std::vector<DynamicBitset> dominatees_;
  std::vector<DynamicBitset> dominators_;
  std::vector<int> ds_size_;
  std::vector<int> dominatee_count_;
  std::vector<int> evaluation_order_;
  std::vector<int> known_skyline_;
  std::vector<int> layer_of_;
  int num_layers_ = 0;
  std::vector<std::vector<int>> layers_;
  std::vector<std::vector<int>> direct_dominators_;
};

}  // namespace crowdsky
