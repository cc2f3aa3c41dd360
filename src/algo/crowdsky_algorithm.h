// The CrowdSky family of crowd-enabled skyline algorithms (Sections 3-4):
// Algorithm 1 with the dominating-set question generation and pruning
// rules P1/P2/P3, and its two parallel schedules. All three run the same
// skeleton — seed known crowd values, fold resume state, resolve tied
// known rows, mark SKY_AK, evaluate every remaining tuple with a
// TupleEvaluator, report — and differ only in their scheduling loop, i.e.
// in which evaluators may ask a question in the same crowd round.
#pragma once

#include "algo/crowd_knowledge.h"
#include "algo/evaluator.h"
#include "algo/run_result.h"
#include "crowd/session.h"
#include "data/dataset.h"
#include "skyline/dominance_structure.h"

namespace crowdsky {

/// Runs Algorithm 1 on `dataset`, asking questions through `session`.
/// `structure` must be built from the dataset's known attributes (it is a
/// parameter so benches can share one build across method variants).
/// Every paid question occupies its own crowd round (the Serial latency
/// model of Section 6.1).
AlgoResult RunCrowdSky(const Dataset& dataset,
                       const DominanceStructure& structure,
                       CrowdSession* session,
                       const CrowdSkyOptions& options = {});

/// Convenience overload that builds the dominance structure internally.
AlgoResult RunCrowdSky(const Dataset& dataset, CrowdSession* session,
                       const CrowdSkyOptions& options = {});

/// ParallelDSet (Section 4.1): partitions R into groups of equal |DS(t)|
/// (tuples in the same group cannot dominate each other, Lemma 3), then
/// splits each group into sub-batches whose dominating sets are pairwise
/// disjoint — removing dependency (C2) — and runs each sub-batch's
/// evaluators in lockstep rounds. Question counts match the serial
/// algorithm; only the round count shrinks.
AlgoResult RunParallelDSet(const Dataset& dataset,
                           const DominanceStructure& structure,
                           CrowdSession* session,
                           const CrowdSkyOptions& options = {});

AlgoResult RunParallelDSet(const Dataset& dataset, CrowdSession* session,
                           const CrowdSkyOptions& options = {});

/// ParallelSL (Algorithm 2, Section 4.2): parallelization with skyline
/// layers. A tuple's questions may start as soon as all its *direct*
/// AK-dominators c(t) are complete — which transitively implies all of
/// DS(t) is complete — so in every crowd round all ready tuples advance by
/// one question simultaneously. Dependency (C2) is deliberately violated
/// (overlapping dominating sets may probe redundantly), trading a few
/// additional questions (~10% in the paper) for rounds that drop by up to
/// two orders of magnitude.
AlgoResult RunParallelSL(const Dataset& dataset,
                         const DominanceStructure& structure,
                         CrowdSession* session,
                         const CrowdSkyOptions& options = {});

AlgoResult RunParallelSL(const Dataset& dataset, CrowdSession* session,
                         const CrowdSkyOptions& options = {});

}  // namespace crowdsky
