#include "algo/crowdsky_algorithm.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "audit/invariant_auditor.h"
#include "persist/journal.h"

namespace crowdsky {
namespace {

/// Lines 1-3 of Algorithm 1: resolves groups of tuples with identical
/// known-attribute values by asking the crowd, marking strictly
/// AC-dominated group members as complete non-skyline tuples. When
/// `parallel_rounds` is true, independent groups share rounds. A pair the
/// crowd could not decide (question denied, or its retry cap ran dry) sets
/// both endpoints in `undecided`: with identical known values neither is
/// in the other's DS(t), so no evaluator will ever ask about the pair.
void ResolveKnownTies(const Dataset& dataset, CrowdKnowledge* knowledge,
                      CrowdSession* session, CompletionState* completion,
                      bool parallel_rounds, DynamicBitset* undecided) {
  const PreferenceMatrix known = PreferenceMatrix::FromKnown(dataset);
  // Group tuples by identical known rows.
  std::map<std::vector<double>, std::vector<int>> groups;
  for (int id = 0; id < known.size(); ++id) {
    std::vector<double> key(known.row(id), known.row(id) + known.dims());
    groups[std::move(key)].push_back(id);
  }
  // Within each group, run a crowd-side BNL in AC: a member is eliminated
  // iff another member is strictly preferred within AC (equal known values
  // mean equal tuples stay incomparable and both survive).
  struct GroupState {
    std::vector<int> pending;
    std::vector<int> survivors;
  };
  std::vector<GroupState> states;
  for (auto& [key, ids] : groups) {
    if (ids.size() < 2) continue;
    GroupState gs;
    gs.survivors.push_back(ids[0]);
    gs.pending.assign(ids.begin() + 1, ids.end());
    states.push_back(std::move(gs));
  }
  // Round-robin across groups so independent groups can share rounds.
  bool active = !states.empty();
  while (active) {
    active = false;
    for (GroupState& gs : states) {
      if (gs.pending.empty()) continue;
      active = true;
      const int c = gs.pending.front();
      gs.pending.erase(gs.pending.begin());
      bool c_eliminated = false;
      bool paid_this_round = false;
      std::vector<int> next_survivors;
      next_survivors.reserve(gs.survivors.size() + 1);
      for (size_t i = 0; i < gs.survivors.size(); ++i) {
        const int s = gs.survivors[i];
        if (c_eliminated) {
          next_survivors.push_back(s);  // c is out; keep the rest as-is
          continue;
        }
        AcRelation r = knowledge->Relation(s, c);
        if (r == AcRelation::kUnknown) {
          for (int attr = 0; attr < knowledge->num_attrs(); ++attr) {
            if (knowledge->graph(attr).Comparable(s, c)) continue;
            if (!session->IsCached(attr, s, c) &&
                !session->IsUnresolved(attr, s, c) && !session->CanAsk()) {
              break;  // budget exhausted: leave the pair unresolved
            }
            const CrowdSession::AskResult res = session->TryAsk(attr, s, c);
            if (res.paid) paid_this_round = true;
            if (res.status == AskStatus::kUnresolved) {
              continue;  // retry cap ran dry; the attribute stays unknown
            }
            knowledge->Record(attr, s, c, res.answer).CheckOK();
          }
          r = knowledge->Relation(s, c);
        }
        if (r == AcRelation::kPrefers) {
          c_eliminated = true;
          next_survivors.push_back(s);
        } else if (r == AcRelation::kPreferredBy) {
          completion->MarkNonSkyline(s);  // drop s
        } else {
          if (r == AcRelation::kUnknown) {
            undecided->Set(static_cast<size_t>(s));
            undecided->Set(static_cast<size_t>(c));
          }
          next_survivors.push_back(s);
        }
      }
      gs.survivors = std::move(next_survivors);
      if (c_eliminated) {
        completion->MarkNonSkyline(c);
      } else {
        gs.survivors.push_back(c);
      }
      if (!parallel_rounds && paid_this_round) session->EndRound();
    }
    if (parallel_rounds) session->EndRound();
  }
  session->EndRound();
}

/// Seeds the preference tree with the relations derivable from crowd
/// values the machine already knows (options.known_crowd_values), so only
/// pairs involving a genuinely missing value are crowdsourced. Returns
/// the number of seeded relations (chain edges; the closure implies the
/// rest). No-op when every crowd value is missing.
int64_t SeedKnownCrowdValues(const Dataset& dataset,
                             const CrowdSkyOptions& options,
                             CrowdKnowledge* knowledge) {
  if (options.known_crowd_values == nullptr) return 0;
  const std::vector<DynamicBitset>& masks = *options.known_crowd_values;
  CROWDSKY_CHECK_MSG(
      static_cast<int>(masks.size()) == dataset.schema().num_crowd(),
      "known_crowd_values needs one bitset per crowd attribute");
  const PreferenceMatrix crowd = PreferenceMatrix::FromCrowd(dataset);
  int64_t seeded = 0;
  for (int attr = 0; attr < knowledge->num_attrs(); ++attr) {
    const DynamicBitset& mask = masks[static_cast<size_t>(attr)];
    CROWDSKY_CHECK_MSG(mask.size() == static_cast<size_t>(dataset.size()),
                       "known_crowd_values bitset has the wrong size");
    std::vector<int> known = mask.ToVector();
    if (known.size() < 2) continue;
    // The known values induce a total order; seeding the sorted chain is
    // enough — the closure supplies every other pair transitively.
    std::sort(known.begin(), known.end(), [&crowd, attr](int a, int b) {
      return crowd.value(a, attr) < crowd.value(b, attr);
    });
    for (size_t i = 1; i < known.size(); ++i) {
      const int prev = known[i - 1];
      const int cur = known[i];
      const Answer answer = crowd.value(prev, attr) < crowd.value(cur, attr)
                                ? Answer::kFirstPreferred
                                : Answer::kEqual;
      knowledge->Record(attr, prev, cur, answer).CheckOK();
      ++seeded;
    }
  }
  return seeded;
}

/// One run of the CrowdSky skeleton, shared by the three drivers. The
/// constructor does everything before evaluation: seed known crowd
/// values, fold resume state, run the tie pre-pass, mark SKY_AK. Settle
/// gives a finished evaluator's tuple its fate, Checkpoint offers a
/// quiescent point to the durability hook, and Finish sorts the skyline,
/// fills the report and runs the final audit. A driver owns only its
/// scheduling loop: which evaluators step in the same crowd round, and
/// where it is quiescent.
class DriverRun {
 public:
  DriverRun(const Dataset& dataset, const DominanceStructure& structure,
            CrowdSession* session, const CrowdSkyOptions& options,
            bool parallel_tie_rounds)
      : dataset_(dataset),
        structure_(structure),
        session_(session),
        options_(options),
        n_(dataset.size()),
        knowledge_(n_, dataset.schema().num_crowd(),
                   options.contradiction_policy),
        completion_(n_),
        tie_undecided_(static_cast<size_t>(n_)) {
    if (options.audit) monitor_.emplace(n_);
    result_.seeded_relations =
        SeedKnownCrowdValues(dataset, options, &knowledge_);
    // On resume this rebuilds the preference tree from the folded journal
    // prefix before any phase re-executes, so the tie pre-pass and the
    // evaluators find every previously-paid answer already known.
    ApplyResumeState();
    {
      obs::TraceSpan span = obs::SpanIf(options.obs, "phase.resolve_ties");
      ResolveKnownTies(dataset, &knowledge_, session, &completion_,
                       parallel_tie_rounds, &tie_undecided_);
    }
    Observe();
    // SKY_AK(R) members are complete from the start (ParallelSL's SL1);
    // those eliminated by the tie pre-pass are complete non-skyline tuples
    // instead. A tuple already complete (restored from a checkpoint) keeps
    // its recovered fate.
    for (const int t : structure.known_skyline()) {
      if (!IsComplete(t)) Decide(t, /*is_skyline=*/true, /*complete=*/true);
    }
    Observe();
    evaluate_span_ = obs::SpanIf(options.obs, "phase.evaluate");
  }

  bool IsComplete(int t) const {
    return completion_.complete.Test(static_cast<size_t>(t));
  }
  const CompletionState& completion() const { return completion_; }
  const CrowdKnowledge& knowledge() const { return knowledge_; }

  std::unique_ptr<TupleEvaluator> NewEvaluator(int t) {
    return std::make_unique<TupleEvaluator>(t, structure_, &knowledge_,
                                            session_, &completion_, options_);
  }

  /// Gives a finished evaluator's tuple its fate.
  void Settle(const TupleEvaluator& ev) {
    free_lookups_ += ev.free_lookups();
    Decide(ev.tuple(), ev.is_skyline(), ev.complete());
    Observe();
  }

  /// Offers the durability hook a quiescent point: no evaluator mid-flight
  /// and no open crowd round. `pending` is the driver's pending work list.
  void Checkpoint(const std::vector<int>& pending = {}) {
    if (options_.checkpoint_hook == nullptr) return;
    options_.checkpoint_hook->MaybeCheckpoint(
        completion_, result_.skyline, result_.completeness.undetermined_tuples,
        free_lookups_, pending);
  }

  AlgoResult Finish() {
    evaluate_span_.End();
    std::sort(result_.skyline.begin(), result_.skyline.end());
    FillStats();
    if (options_.audit) {
      AuditFinalState();
      CROWDSKY_CHECK_MSG(audit_report_.ok(),
                         audit_report_.ToString().c_str());
    }
    return std::move(result_);
  }

 private:
  /// A tuple is undetermined when its evaluator could not complete it, or
  /// when it is kept in the skyline while the tie pre-pass left one of its
  /// pairs undecided.
  void Decide(int t, bool is_skyline, bool complete) {
    if (!complete ||
        (is_skyline && tie_undecided_.Test(static_cast<size_t>(t)))) {
      ++result_.incomplete_tuples;
      result_.completeness.undetermined_tuples.push_back(t);
    }
    if (is_skyline) {
      completion_.MarkSkyline(t);
      result_.skyline.push_back(t);
    } else {
      completion_.MarkNonSkyline(t);
    }
  }

  void Observe() {
    if (monitor_) monitor_->Observe(completion_, &audit_report_);
  }

  /// Folds recovered state in before anything executes: rebuilds crowd
  /// knowledge from the folded journal prefix (one Record per resolved
  /// pair record, in journal order — the original run's Record order),
  /// then restores the checkpoint's completion bitsets, partial skyline /
  /// undetermined lists and free-lookup ledger. With the knowledge
  /// rebuilt, the re-executed tie pre-pass and probes find every
  /// previously-crowdsourced relation already in the tree and pay nothing;
  /// the completion bitsets make the scheduling loops skip finished
  /// tuples.
  void ApplyResumeState() {
    const DriverResumeState* resume = options_.resume;
    if (resume == nullptr) return;
    if (resume->fold != nullptr) {
      for (const persist::JournalRecord& record : *resume->fold) {
        if (record.kind != persist::JournalRecord::Kind::kPairAsk ||
            !record.resolved) {
          continue;
        }
        // Same Record order as the original run; under kFirstWins a noisy
        // contradiction is rejected now exactly as it was then.
        knowledge_
            .Record(record.question.attr, record.question.first,
                    record.question.second, record.answer)
            .CheckOK();
      }
    }
    if (resume->checkpoint == nullptr) return;
    const persist::CheckpointData& ckpt = *resume->checkpoint;
    CROWDSKY_CHECK_MSG(ckpt.num_tuples == n_,
                       "checkpoint was taken over a different dataset size");
    for (int t = 0; t < n_; ++t) {
      if (!ckpt.complete[static_cast<size_t>(t)]) continue;
      if (ckpt.nonskyline[static_cast<size_t>(t)]) {
        completion_.MarkNonSkyline(t);
      } else {
        completion_.MarkSkyline(t);
      }
    }
    result_.skyline.assign(ckpt.skyline.begin(), ckpt.skyline.end());
    for (const int32_t t : ckpt.undetermined) {
      result_.completeness.undetermined_tuples.push_back(t);
      ++result_.incomplete_tuples;
    }
    free_lookups_ = ckpt.free_lookups;
  }

  /// Fills the result's aggregate counters (including the robustness
  /// counters and the completeness report) from the session and knowledge.
  void FillStats() {
    const SessionStats& s = session_->stats();
    result_.questions = s.questions + s.unary_questions;
    result_.rounds = s.rounds;
    result_.free_lookups = free_lookups_ + s.cache_hits;
    result_.worker_answers = session_->oracle_stats().worker_answers;
    result_.contradictions = knowledge_.contradiction_count();
    result_.questions_per_round = session_->questions_per_round();
    result_.retries = s.retries;
    result_.degraded_quorum = s.degraded_quorum;
    result_.failed_attempts = s.failed_attempts;
    result_.backoff_rounds = s.backoff_rounds;

    CompletenessReport& c = result_.completeness;
    std::sort(c.undetermined_tuples.begin(), c.undetermined_tuples.end());
    c.complete = c.undetermined_tuples.empty();
    c.determined_tuples =
        n_ - static_cast<int64_t>(c.undetermined_tuples.size());
    // Each retry re-pays an already-counted question, and every unresolved
    // question's attempts never produced an answer; the remainder is the
    // set of distinct pair questions that were actually resolved.
    c.resolved_questions = s.questions - s.retries - s.unresolved_questions;
    c.unresolved_questions = s.unresolved_questions;
    // Budget-only by design: a governor denial is reported through the
    // termination report below, not as budget exhaustion (and CanAsk() has
    // a counting side effect on the governor that post-run reporting must
    // not trigger).
    c.budget_exhausted = !c.complete && session_->question_budget() >= 0 &&
                         !session_->BudgetCanAsk();
    c.retries_exhausted = s.unresolved_questions > 0;

    // Why the run stopped paying. Ungoverned runs still report their round
    // count and unresolved set so the report is self-contained.
    TerminationReport& term = result_.termination;
    term.rounds = s.rounds;
    term.unresolved = session_->unresolved_questions();
    if (const RunGovernor* governor = session_->governor();
        governor != nullptr) {
      term.governed = true;
      term.reason = governor->reason();
      term.cost_spent_usd = governor->cost_spent_usd();
      term.cost_cap_usd = governor->cost_cap_usd();
      term.round_cap = governor->options().max_rounds;
      term.stall_cap = governor->options().stall_rounds;
      term.denied_questions = governor->denied_questions();
      term.cost_model = governor->cost_model();
    }
  }

  /// The end-of-run half of CrowdSkyOptions::audit: the audits of every
  /// per-attribute preference graph, the session accounting, the AMT cost
  /// formula, the journal, the dominance structure against brute-force
  /// dominance, and the result/completion consistency.
  void AuditFinalState() {
    const audit::InvariantAuditor auditor;
    audit::AuditReport* report = &audit_report_;
    for (int attr = 0; attr < knowledge_.num_attrs(); ++attr) {
      auditor.AuditPreferenceGraph(knowledge_.graph(attr),
                                   "crowd attr " + std::to_string(attr),
                                   report);
    }
    auditor.AuditSession(*session_, report);
    auditor.AuditCostModel(AmtCostModel{}, session_->questions_per_round(),
                           report);
    if (persist::JournalWriter* journal = session_->journal();
        journal != nullptr) {
      // Durability rules are audited against the bytes actually on disk:
      // sync, re-read, and require the journal to reproduce every session
      // ledger (and, on a resume, that every credit was consumed).
      journal->Sync().CheckOK();
      Result<persist::RecoveredJournal> recovered =
          persist::ReadJournal(journal->path());
      CROWDSKY_CHECK_MSG(recovered.ok(),
                         "audit could not re-read the answer journal");
      report->Check(!recovered->torn_tail, "journal.torn",
                    "journal has a torn tail while its writer is alive");
      auditor.AuditJournal(recovered->records, *session_, report);
    }
    auditor.AuditDominanceStructure(structure_,
                                    PreferenceMatrix::FromKnown(dataset_),
                                    report);
    auditor.AuditResult(result_, *session_, n_, completion_, report);
    auditor.AuditTermination(result_, *session_, report);
  }

  const Dataset& dataset_;
  const DominanceStructure& structure_;
  CrowdSession* session_;
  const CrowdSkyOptions& options_;
  const int n_;
  CrowdKnowledge knowledge_;
  CompletionState completion_;
  /// Tuples with a tie pair the pre-pass could not decide.
  DynamicBitset tie_undecided_;
  AlgoResult result_;
  int64_t free_lookups_ = 0;
  audit::AuditReport audit_report_;
  std::optional<audit::CompletionMonitor> monitor_;
  obs::TraceSpan evaluate_span_;
};

/// Runs the evaluators of one ParallelDSet sub-batch in lockstep rounds:
/// each round, every unfinished evaluator performs its free work and pays
/// for at most one pair-ask; the batch's asks share the round.
void RunBatchLockstep(const std::vector<int>& batch, CrowdSession* session,
                      DriverRun* run) {
  std::vector<std::unique_ptr<TupleEvaluator>> evaluators;
  evaluators.reserve(batch.size());
  for (const int t : batch) evaluators.push_back(run->NewEvaluator(t));
  bool any_active = true;
  while (any_active) {
    any_active = false;
    bool any_paid = false;
    for (auto& ev : evaluators) {
      if (ev->done()) continue;
      // Let the evaluator do free work; stop at one paid ask per round.
      if (ev->Step()) any_paid = true;
      if (!ev->done()) any_active = true;
    }
    if (any_paid) session->EndRound();
  }
  for (const auto& ev : evaluators) run->Settle(*ev);
}

}  // namespace

AlgoResult RunCrowdSky(const Dataset& dataset,
                       const DominanceStructure& structure,
                       CrowdSession* session,
                       const CrowdSkyOptions& options) {
  DriverRun run(dataset, structure, session, options,
                /*parallel_tie_rounds=*/false);
  // Evaluate remaining tuples in ascending |DS(t)| order (line 7).
  for (const int t : structure.evaluation_order()) {
    if (run.IsComplete(t)) continue;
    const std::unique_ptr<TupleEvaluator> evaluator = run.NewEvaluator(t);
    while (!evaluator->done()) {
      if (evaluator->Step()) session->EndRound();
    }
    run.Settle(*evaluator);
    // Per-tuple quiescent point: the evaluator is finalized and every paid
    // step closed its round.
    run.Checkpoint();
  }
  return run.Finish();
}

AlgoResult RunCrowdSky(const Dataset& dataset, CrowdSession* session,
                       const CrowdSkyOptions& options) {
  const DominanceStructure structure(PreferenceMatrix::FromKnown(dataset));
  return RunCrowdSky(dataset, structure, session, options);
}

AlgoResult RunParallelDSet(const Dataset& dataset,
                           const DominanceStructure& structure,
                           CrowdSession* session,
                           const CrowdSkyOptions& options) {
  DriverRun run(dataset, structure, session, options,
                /*parallel_tie_rounds=*/true);
  // Partition by |DS(t)| (evaluation_order is already sorted by it), then
  // greedily split each partition into sub-batches with pairwise-disjoint
  // dominating sets.
  const std::vector<int>& order = structure.evaluation_order();
  size_t i = 0;
  while (i < order.size()) {
    const int ds_size = structure.dominating_set_size(order[i]);
    size_t j = i;
    std::vector<int> partition;
    while (j < order.size() &&
           structure.dominating_set_size(order[j]) == ds_size) {
      if (!run.IsComplete(order[j])) partition.push_back(order[j]);
      ++j;
    }
    i = j;
    if (partition.empty()) continue;
    // Disjointness (C2) is decided on the *effective* dominating sets —
    // after the P1/P2 reductions the evaluators will apply anyway — since
    // pruned-away dominators cannot create probe interplay. This is what
    // lets batches grow as completions accumulate.
    std::vector<DynamicBitset> effective;
    effective.reserve(partition.size());
    for (const int t : partition) {
      DynamicBitset ds = structure.dominator_bits(t);
      ReduceDominatingSet(options.pruning, run.completion(), run.knowledge(),
                          &ds);
      effective.push_back(std::move(ds));
    }
    // First-fit batching under the disjointness constraint, tracked with a
    // union bitset of the batch's dominating sets.
    std::vector<char> assigned(partition.size(), 0);
    size_t remaining = partition.size();
    while (remaining > 0) {
      std::vector<int> batch;
      DynamicBitset batch_union(static_cast<size_t>(dataset.size()));
      for (size_t k = 0; k < partition.size(); ++k) {
        if (assigned[k]) continue;
        if (batch.empty() || !effective[k].Intersects(batch_union)) {
          batch.push_back(partition[k]);
          batch_union.OrWith(effective[k]);
          assigned[k] = 1;
          --remaining;
        }
      }
      RunBatchLockstep(batch, session, &run);
    }
    // Partition boundary: the only quiescent point safe to checkpoint.
    // Sub-batch boundaries are not — the effective-DS batching above is
    // computed from the knowledge at partition *entry*, and a resume that
    // recomputed it mid-partition with later knowledge would batch (and
    // round-account) differently than the uninterrupted run.
    run.Checkpoint();
  }
  return run.Finish();
}

AlgoResult RunParallelDSet(const Dataset& dataset, CrowdSession* session,
                           const CrowdSkyOptions& options) {
  const DominanceStructure structure(PreferenceMatrix::FromKnown(dataset));
  return RunParallelDSet(dataset, structure, session, options);
}

AlgoResult RunParallelSL(const Dataset& dataset,
                         const DominanceStructure& structure,
                         CrowdSession* session,
                         const CrowdSkyOptions& options) {
  DriverRun run(dataset, structure, session, options,
                /*parallel_tie_rounds=*/true);
  // Count how many direct dominators of each tuple are still incomplete;
  // a tuple becomes ready when the count reaches zero.
  const size_t n = static_cast<size_t>(dataset.size());
  std::vector<int> waiting(n, 0);
  std::vector<std::vector<int>> direct_children(n);
  std::vector<int> ready;
  for (int t = 0; t < dataset.size(); ++t) {
    if (run.IsComplete(t)) continue;
    int w = 0;
    for (const int s : structure.direct_dominators(t)) {
      if (!run.IsComplete(s)) {
        ++w;
        direct_children[static_cast<size_t>(s)].push_back(t);
      }
    }
    waiting[static_cast<size_t>(t)] = w;
    if (w == 0) ready.push_back(t);
  }
  if (options.resume != nullptr && options.resume->checkpoint != nullptr) {
    // The checkpointed pending list is the ready queue at the snapshot, in
    // activation order (which derives from completion order, not tuple
    // ids, so it cannot be re-derived here). Adopt it after checking it is
    // the same *set* the restored completion state implies.
    const std::vector<int32_t>& pending = options.resume->checkpoint->pending;
    std::vector<int> computed = ready;
    std::vector<int> stored(pending.begin(), pending.end());
    std::sort(computed.begin(), computed.end());
    std::sort(stored.begin(), stored.end());
    CROWDSKY_CHECK_MSG(computed == stored,
                       "checkpoint pending list disagrees with the "
                       "restored completion state");
    ready.assign(pending.begin(), pending.end());
  }

  std::vector<std::unique_ptr<TupleEvaluator>> active;
  // Tuples whose last direct dominator completed join the next round.
  auto activate_ready = [&] {
    for (const int t : ready) active.push_back(run.NewEvaluator(t));
    ready.clear();
  };
  activate_ready();
  while (!active.empty()) {
    bool any_paid = false;
    size_t keep = 0;
    for (size_t i = 0; i < active.size(); ++i) {
      TupleEvaluator* ev = active[i].get();
      if (ev->Step()) any_paid = true;
      if (!ev->done()) {
        active[keep++] = std::move(active[i]);
        continue;
      }
      run.Settle(*ev);
      for (const int child :
           direct_children[static_cast<size_t>(ev->tuple())]) {
        if (--waiting[static_cast<size_t>(child)] == 0) {
          ready.push_back(child);
        }
      }
    }
    active.resize(keep);
    if (any_paid) session->EndRound();
    // Quiescent only when the active wave fully drained: no evaluator is
    // mid-flight and the round is closed. `ready` is exactly the pending
    // work the checkpoint must carry (its order derives from completion
    // order and is not re-derivable on resume).
    if (active.empty()) run.Checkpoint(ready);
    activate_ready();
  }
  return run.Finish();
}

AlgoResult RunParallelSL(const Dataset& dataset, CrowdSession* session,
                         const CrowdSkyOptions& options) {
  const DominanceStructure structure(PreferenceMatrix::FromKnown(dataset));
  return RunParallelSL(dataset, structure, session, options);
}

}  // namespace crowdsky
