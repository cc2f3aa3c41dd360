#include "algo/eager_probe_order.h"

#include <algorithm>

namespace crowdsky::testing {

std::vector<ProbePairQueue::Pair> EagerProbeOrder(
    const DominanceStructure& structure, const std::vector<int>& members) {
  std::vector<ProbePairQueue::Pair> pairs;
  if (members.size() < 2) return pairs;
  pairs.reserve(members.size() * (members.size() - 1) / 2);
  for (size_t i = 0; i < members.size(); ++i) {
    for (size_t j = i + 1; j < members.size(); ++j) {
      pairs.push_back({members[i], members[j],
                       structure.Frequency(members[i], members[j])});
    }
  }
  // Highest pruning power first (Section 3.4); ties by id for determinism.
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const ProbePairQueue::Pair& a,
                      const ProbePairQueue::Pair& b) {
                     if (a.freq != b.freq) return a.freq > b.freq;
                     if (a.u != b.u) return a.u < b.u;
                     return a.v < b.v;
                   });
  return pairs;
}

}  // namespace crowdsky::testing
