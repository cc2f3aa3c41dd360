// TupleEvaluator: Algorithm 1's per-tuple inner loop (lines 9-26) as a
// resumable state machine. The Serial, ParallelDSet and ParallelSL drivers
// (crowdsky_algorithm.h) share one run skeleton that creates an evaluator
// per undecided tuple and records the tuple's fate once it is done(); each
// driver's own scheduling loop only decides *which* evaluators may Step()
// — pay for a question — in the same crowd round (Section 4).
//
// Lifecycle per tuple t:
//   1. start from DS(t);
//   2. refresh: P1 drops complete non-skyline dominators, P2 reduces DS(t)
//      to SKY_AC(DS(t)) using the preference tree;
//   3. P3 probes DS(t) pair-by-pair in descending freq(u, v), removing the
//      AC-dominated endpoint of each resolved pair;
//   4. Q(t): ask (s, t) for the surviving dominators until one weakly
//      precedes t in AC (t is a complete non-skyline tuple) or none is
//      left (t is a complete skyline tuple).
// Every relation already implied by the preference tree (transitivity) or
// by the session cache is consumed for free. With |AC| > 1 the evaluator
// either asks all attribute questions of a pair at once or round-robins
// them with early exits (MultiAttributeStrategy). When the session's
// question budget runs out the evaluator finalizes the tuple in its
// current (possibly incomplete) state: in the skyline unless already
// proven dominated.
//
// Under a fault plan a question can come back *unresolved* (its retry cap
// ran dry). The evaluator degrades instead of aborting: an unresolved
// probe pair only costs pruning power and is skipped; an unresolved query
// pair (s, t) means s's dominance over t can never be decided, so s is
// dropped from consideration and the tuple is finalized as undetermined —
// kept in the skyline unless already proven dominated, and reported
// incomplete.
#pragma once

#include <vector>

#include "algo/crowd_knowledge.h"
#include "algo/run_result.h"
#include "common/bitset.h"
#include "crowd/session.h"
#include "skyline/dominance_structure.h"

namespace crowdsky {

/// Completion knowledge shared by all evaluators of one run
/// (Definition 4's complete-tuple sets).
struct CompletionState {
  explicit CompletionState(int n)
      : complete(static_cast<size_t>(n)),
        nonskyline(static_cast<size_t>(n)) {}

  DynamicBitset complete;    ///< complete tuples (skyline fate decided)
  DynamicBitset nonskyline;  ///< complete non-skyline tuples

  void MarkSkyline(int t) { complete.Set(static_cast<size_t>(t)); }
  void MarkNonSkyline(int t) {
    complete.Set(static_cast<size_t>(t));
    nonskyline.Set(static_cast<size_t>(t));
  }
};

/// P1 + P2 reduction of a dominating set `ds`: P1 (Corollary 1) drops
/// complete non-skyline dominators, P2 (Corollary 2) reduces the rest to
/// SKY_AC(ds) as far as the preference tree knows it. Evaluators refresh
/// DS(t) with it; ParallelDSet batches on the same *effective* sets.
void ReduceDominatingSet(const PruningConfig& pruning,
                         const CompletionState& completion,
                         const CrowdKnowledge& knowledge, DynamicBitset* ds);

/// \brief P3's probe order (Section 3.4), scored on demand: the pairs
/// (u, v), u < v, of a dominating set in descending freq(u, v), ties by u
/// then v ascending.
///
/// A budget-denied evaluator visits one or two pairs and stops, so the
/// queue computes freq only for the pairs the walk can reach next. The
/// members are ordered by |D(u)| descending (ties by id) as o_0..o_{m-1};
/// band k holds the pairs (o_i, o_k), i < k. Since freq(u, v) <= |D(v)|,
/// no pair in band k or later exceeds |D(o_k)|. A scored pair is handed
/// out only while its freq is strictly above that bound for the first
/// unscored band, so it precedes every unscored pair and freq ties still
/// break by (u, v). Bands are scored, and chunks sorted, in geometrically
/// growing batches.
class ProbePairQueue {
 public:
  struct Pair {
    int u;
    int v;
    size_t freq;
  };

  /// Starts the order over `members`.
  void Reset(const DominanceStructure& structure, std::vector<int> members);

  /// The next pair in order, or nullptr once all were handed out. Pairs
  /// with an endpoint outside `live` when they would be scored are dropped
  /// unscored (a walk skips them anyway); `live` may only lose members
  /// between calls.
  const Pair* Front(const DynamicBitset& live) {
    if (pairs_.size() > chunk_begin_) return &pairs_.back();
    return Refill(live);
  }
  /// Moves past the pair Front() returned.
  void Pop() { pairs_.pop_back(); }

  /// Frees all storage; the queue is empty afterwards.
  void Clear() { *this = ProbePairQueue(); }

  /// How many freq(u, v) values have been computed since Reset().
  int64_t scored_pairs() const { return scored_; }

 private:
  const Pair* Refill(const DynamicBitset& live);
  /// Scores whole bands, skipping dead endpoints, until at least `target`
  /// pairs are scored or no band is left.
  void ScoreBands(const DynamicBitset& live, int64_t target);

  const DominanceStructure* structure_ = nullptr;
  /// Members by |D(u)| descending, ties by id.
  std::vector<int> order_;
  /// First unscored band.
  size_t band_ = 1;
  /// Scored pairs not yet handed out. [0, chunk_begin_) is in no
  /// particular order; the chunk being handed out follows it in reverse
  /// order, so Front() is the last element.
  std::vector<Pair> pairs_;
  size_t chunk_begin_ = 0;
  /// Size of the next chunk.
  size_t chunk_ = 0;
  int64_t scored_ = 0;
};

/// \brief Resumable evaluation of one tuple's skyline membership.
class TupleEvaluator {
 public:
  TupleEvaluator(int tuple, const DominanceStructure& structure,
                 CrowdKnowledge* knowledge, CrowdSession* session,
                 const CompletionState* completion,
                 const CrowdSkyOptions& options);

  /// Performs all currently-free work, then either pays for exactly one
  /// pair-ask (returns true) or completes the tuple (returns false and
  /// done() becomes true). A return of false with done() == false cannot
  /// happen.
  bool Step();

  bool done() const { return phase_ == Phase::kDone; }
  /// Valid once done(): is the tuple in the skyline? Budget-aborted
  /// tuples count as skyline unless already proven dominated.
  bool is_skyline() const {
    CROWDSKY_DCHECK(done());
    return is_skyline_;
  }
  /// Valid once done(): false iff the question budget or a query pair's
  /// retry cap ran out before the tuple became complete in the
  /// Definition-4 sense.
  bool complete() const {
    CROWDSKY_DCHECK(done());
    return !budget_aborted_ && !undetermined_;
  }
  int tuple() const { return t_; }
  /// Relations resolved without paying (cache hits + transitivity).
  int64_t free_lookups() const { return free_lookups_; }
  /// Pair asks that came back unresolved (retry cap exhausted).
  int64_t unresolved_pair_asks() const { return unresolved_pair_asks_; }

 private:
  enum class Phase { kInit, kProbe, kQuery, kDone };
  enum class AskMode { kProbe, kQuery };

  /// P1 + P2 refresh of the current dominating-set members.
  void Refresh() {
    ReduceDominatingSet(pruning_, *completion_, *knowledge_, &ds_);
  }
  /// Asks crowd-attribute questions for (u, v) per the multi-attribute
  /// strategy; records answers; sets budget_aborted_ when the session's
  /// budget runs out mid-pair and last_ask_unresolved_ when any attribute
  /// question of the pair came back unresolved. Returns true iff any
  /// question was paid for.
  bool AskPair(int u, int v, size_t freq, AskMode mode);
  void Finalize(bool is_skyline);
  std::vector<int> Members() const { return ds_.ToVector(); }

  int t_;
  const DominanceStructure& structure_;
  CrowdKnowledge* knowledge_;
  CrowdSession* session_;
  const CompletionState* completion_;
  PruningConfig pruning_;
  MultiAttributeStrategy multi_attr_;

  Phase phase_ = Phase::kInit;
  DynamicBitset ds_;
  ProbePairQueue probes_;
  bool is_skyline_ = false;
  /// Set when t is found dominated while P1's early break is disabled
  /// (Example 3 counts every question in Q(t) even after t's fate is
  /// decided).
  bool dominated_ = false;
  bool budget_aborted_ = false;
  /// Set when a query pair's retry cap ran dry: t's fate can no longer be
  /// fully determined, only best-effort.
  bool undetermined_ = false;
  /// Set by AskPair when the last pair had an unresolved attribute ask.
  bool last_ask_unresolved_ = false;
  int64_t free_lookups_ = 0;
  int64_t unresolved_pair_asks_ = 0;
};

}  // namespace crowdsky
