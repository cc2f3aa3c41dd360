#include "algo/evaluator.h"

#include <algorithm>
#include <utility>

namespace crowdsky {

void ReduceDominatingSet(const PruningConfig& pruning,
                         const CompletionState& completion,
                         const CrowdKnowledge& knowledge, DynamicBitset* ds) {
  if (pruning.use_p1) {
    // P1 (Corollary 1): a complete non-skyline dominator u never decides
    // t's fate — the tuple that eliminated u is also in DS(t) (Lemma 2).
    ds->AndNotWith(completion.nonskyline);
  }
  if (pruning.use_p2) {
    // P2 (Corollary 2): only SKY_AC(DS(t)) needs to be compared with t.
    const std::vector<int> members = ds->ToVector();
    if (members.size() > 1) {
      for (const int u : members) {
        if (knowledge.PrunedFromAcSkyline(*ds, members, u)) {
          ds->Reset(static_cast<size_t>(u));
        }
      }
    }
  }
}

namespace {

/// Reverse P3 order. P3 asks the highest pruning power first (Section
/// 3.4), ties by id for determinism; the queue hands pairs out from the
/// back of a chunk sorted by this.
bool ProbesAfter(const ProbePairQueue::Pair& a,
                 const ProbePairQueue::Pair& b) {
  if (a.freq != b.freq) return a.freq < b.freq;
  if (a.u != b.u) return a.u > b.u;
  return a.v > b.v;
}

// Batch sizes: the first pop of a large DS(t) scores a few bands and sorts
// a few pairs; a walk that keeps going doubles both.
constexpr int64_t kFirstScoreBatch = 32;
constexpr size_t kFirstChunk = 8;

}  // namespace

void ProbePairQueue::Reset(const DominanceStructure& structure,
                           std::vector<int> members) {
  Clear();
  structure_ = &structure;
  order_ = std::move(members);
  std::sort(order_.begin(), order_.end(), [&structure](int a, int b) {
    const int da = structure.dominatee_count(a);
    const int db = structure.dominatee_count(b);
    if (da != db) return da > db;
    return a < b;
  });
  chunk_ = kFirstChunk;
}

void ProbePairQueue::ScoreBands(const DynamicBitset& live, int64_t target) {
  for (; band_ < order_.size() && scored_ < target; ++band_) {
    const int b = order_[band_];
    if (!live.Test(static_cast<size_t>(b))) continue;
    for (size_t i = 0; i < band_; ++i) {
      const int a = order_[i];
      if (!live.Test(static_cast<size_t>(a))) continue;
      pairs_.push_back(
          {std::min(a, b), std::max(a, b), structure_->Frequency(a, b)});
      ++scored_;
    }
  }
}

const ProbePairQueue::Pair* ProbePairQueue::Refill(const DynamicBitset& live) {
  const auto dead = [&live](const Pair& p) {
    return !live.Test(static_cast<size_t>(p.u)) ||
           !live.Test(static_cast<size_t>(p.v));
  };
  pairs_.erase(std::remove_if(pairs_.begin(), pairs_.end(), dead),
               pairs_.end());
  while (true) {
    // A band whose lead is gone has no live pair left to score.
    while (band_ < order_.size() &&
           !live.Test(static_cast<size_t>(order_[band_]))) {
      ++band_;
    }
    const bool all_scored = band_ >= order_.size();
    const size_t bound =
        all_scored ? 0
                   : static_cast<size_t>(
                         structure_->dominatee_count(order_[band_]));
    // Pairs that precede every unscored pair move to the tail.
    const auto qualifying = std::partition(
        pairs_.begin(), pairs_.end(),
        [&](const Pair& p) { return !all_scored && p.freq <= bound; });
    const auto count = static_cast<size_t>(pairs_.end() - qualifying);
    if (count > 0) {
      const auto chunk_start =
          pairs_.end() - static_cast<ptrdiff_t>(std::min(count, chunk_));
      std::nth_element(qualifying, chunk_start, pairs_.end(), ProbesAfter);
      std::sort(chunk_start, pairs_.end(), ProbesAfter);
      chunk_begin_ = static_cast<size_t>(chunk_start - pairs_.begin());
      chunk_ *= 2;
      return &pairs_.back();
    }
    if (all_scored) return nullptr;
    ScoreBands(live, std::max(kFirstScoreBatch, 2 * scored_));
  }
}

TupleEvaluator::TupleEvaluator(int tuple, const DominanceStructure& structure,
                               CrowdKnowledge* knowledge,
                               CrowdSession* session,
                               const CompletionState* completion,
                               const CrowdSkyOptions& options)
    : t_(tuple),
      structure_(structure),
      knowledge_(knowledge),
      session_(session),
      completion_(completion),
      pruning_(options.pruning),
      multi_attr_(options.multi_attr),
      ds_(structure.dominator_bits(tuple)) {
  CROWDSKY_CHECK(knowledge != nullptr && session != nullptr &&
                 completion != nullptr);
}

bool TupleEvaluator::AskPair(int u, int v, size_t freq, AskMode mode) {
  bool paid = false;
  last_ask_unresolved_ = false;
  const AskContext ctx{freq};
  for (int attr = 0; attr < knowledge_->num_attrs(); ++attr) {
    const PreferenceGraph& g = knowledge_->graph(attr);
    if (pruning_.use_transitivity && g.Comparable(u, v)) {
      continue;  // already implied by the preference tree
    }
    if (!session_->IsCached(attr, u, v) &&
        !session_->IsUnresolved(attr, u, v) && !session_->CanAsk()) {
      budget_aborted_ = true;
      break;
    }
    const CrowdSession::AskResult res = session_->TryAsk(attr, u, v, ctx);
    if (res.paid) paid = true;
    if (res.status == AskStatus::kUnresolved) {
      // Retry cap ran dry for this attribute question; it will never get
      // an answer. Other attributes may still decide the pair.
      last_ask_unresolved_ = true;
      continue;
    }
    knowledge_->Record(attr, u, v, res.answer).CheckOK();
    if (multi_attr_ == MultiAttributeStrategy::kRoundRobin) {
      // Early exits: stop as soon as the pair's fate is decided.
      if (knowledge_->Relation(u, v) != AcRelation::kUnknown) break;
      if (mode == AskMode::kQuery && !knowledge_->CanWeaklyPrefer(u, v)) {
        break;  // u can no longer dominate v; remaining attrs are moot
      }
    }
  }
  if (last_ask_unresolved_) ++unresolved_pair_asks_;
  if (!paid) ++free_lookups_;
  return paid;
}

void TupleEvaluator::Finalize(bool is_skyline) {
  phase_ = Phase::kDone;
  is_skyline_ = is_skyline;
  // ParallelSL keeps finished evaluators until its wave drains.
  probes_.Clear();
}

bool TupleEvaluator::Step() {
  CROWDSKY_CHECK_MSG(!done(), "Step() called on a completed evaluator");
  if (phase_ == Phase::kInit) {
    Refresh();
    if (pruning_.use_p3) probes_.Reset(structure_, Members());
    phase_ = Phase::kProbe;
  }
  if (phase_ == Phase::kProbe) {
    while (const ProbePairQueue::Pair* next = probes_.Front(ds_)) {
      const ProbePairQueue::Pair pair = *next;
      if (!ds_.Test(static_cast<size_t>(pair.u)) ||
          !ds_.Test(static_cast<size_t>(pair.v))) {
        probes_.Pop();  // an endpoint was already removed from DS(t)
        continue;
      }
      if (pruning_.use_p1 &&
          (completion_->nonskyline.Test(static_cast<size_t>(pair.u)) ||
           completion_->nonskyline.Test(static_cast<size_t>(pair.v)))) {
        Refresh();  // a dominator completed since the last refresh
        probes_.Pop();
        continue;
      }
      AcRelation r = knowledge_->Relation(pair.u, pair.v);
      bool paid = false;
      if (r == AcRelation::kUnknown) {
        paid = AskPair(pair.u, pair.v, pair.freq, AskMode::kProbe);
        if (budget_aborted_) {
          Finalize(/*is_skyline=*/!dominated_);
          return paid;
        }
        r = knowledge_->Relation(pair.u, pair.v);
      } else {
        ++free_lookups_;
      }
      switch (r) {
        case AcRelation::kPrefers:
          ds_.Reset(static_cast<size_t>(pair.v));
          break;
        case AcRelation::kPreferredBy:
          ds_.Reset(static_cast<size_t>(pair.u));
          break;
        case AcRelation::kEqual:
          // Equal dominators are interchangeable; keep the smaller id.
          ds_.Reset(static_cast<size_t>(std::max(pair.u, pair.v)));
          break;
        case AcRelation::kIncomparable:
          break;  // |AC| > 1: neither endpoint can prune the other
        case AcRelation::kUnknown:
          if (last_ask_unresolved_) {
            // The pair can never be fully resolved (retry cap exhausted).
            // Probe pairs only trim DS(t), so skipping one costs pruning
            // power but never correctness.
            break;
          }
          // Round-robin paid for one attribute but the pair is still
          // undecided; resume the same pair on the next step.
          CROWDSKY_DCHECK(paid);
          return true;
      }
      probes_.Pop();
      if (paid) return true;
    }
    phase_ = Phase::kQuery;
  }
  // Query phase: generate Q(t) from the surviving dominators.
  while (true) {
    if (!dominated_) Refresh();
    const size_t first = ds_.FindFirst();
    if (first == ds_.size()) {
      // No dominator can decide t's fate anymore: complete tuple.
      Finalize(/*is_skyline=*/!dominated_);
      return false;
    }
    const int s = static_cast<int>(first);
    AcRelation r = knowledge_->Relation(s, t_);
    bool paid = false;
    if (r == AcRelation::kUnknown || !pruning_.use_transitivity) {
      // D(t) is a subset of D(s) for s in DS(t), so freq(s, t) = |D(t)|.
      paid = AskPair(s, t_,
                     static_cast<size_t>(structure_.dominatee_count(t_)),
                     AskMode::kQuery);
      if (budget_aborted_) {
        Finalize(/*is_skyline=*/!dominated_);
        return paid;
      }
      r = knowledge_->Relation(s, t_);
    } else {
      ++free_lookups_;
    }
    if (r == AcRelation::kPrefers || r == AcRelation::kEqual) {
      // s <=_AC t and s dominates t in AK, so s dominates t in A: t is a
      // complete non-skyline tuple (Definition 4) and the remaining
      // questions of Q(t) are unnecessary — Algorithm 1's break at line
      // 24. With the break disabled (Example 3's exhaustive accounting)
      // the rest of Q(t) is still asked.
      if (pruning_.use_completion_break) {
        Finalize(/*is_skyline=*/false);
        return paid;
      }
      dominated_ = true;
      ds_.Reset(static_cast<size_t>(s));
    } else if (r == AcRelation::kUnknown && last_ask_unresolved_) {
      // (s, t) exhausted its retry cap: whether s dominates t is
      // permanently unknowable. Drop s and keep going best-effort; the
      // tuple is reported undetermined (in the skyline unless some other
      // dominator proves otherwise).
      ds_.Reset(static_cast<size_t>(s));
      undetermined_ = true;
    } else if (r == AcRelation::kUnknown &&
               knowledge_->CanWeaklyPrefer(s, t_)) {
      // Round-robin: the pair is still undecided; resume next step.
      CROWDSKY_DCHECK(paid);
      return true;
    } else {
      // t <_AC s, known-incomparable within AC, or s provably unable to
      // weakly precede t: s cannot dominate t.
      ds_.Reset(static_cast<size_t>(s));
    }
    if (paid) return true;
  }
}

}  // namespace crowdsky
