// EagerProbeOrder: the P3 probe order as TupleEvaluator built it before
// ProbePairQueue scored pairs on demand, kept as a test oracle. It scores
// every pair of the dominating set and stable-sorts them by (freq desc,
// u asc, v asc), so it is simple to check by eye and quadratic on purpose.
#pragma once

#include <vector>

#include "algo/evaluator.h"
#include "skyline/dominance_structure.h"

namespace crowdsky::testing {

/// All pairs (u, v), u < v, of `members` (ascending ids) in P3 order.
std::vector<ProbePairQueue::Pair> EagerProbeOrder(
    const DominanceStructure& structure, const std::vector<int>& members);

}  // namespace crowdsky::testing
