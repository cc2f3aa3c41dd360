// Differential test: ProbePairQueue (P3's probe order, scored on demand)
// against EagerProbeOrder (every pair scored, then stable-sorted), on
// seeded IND, ANT and COR data. Some known rows are copied onto others and
// one variant snaps values to a coarse grid, so |D(u)| and freq(u, v) tie
// often and the (u, v) tie-break decides the order. For every tuple the
// queue must emit exactly the eager sequence; under a shrinking live set it
// must emit the eager sequence restricted to the live pairs.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "algo/eager_probe_order.h"
#include "algo/evaluator.h"
#include "common/random.h"
#include "data/generator.h"
#include "skyline/dominance_structure.h"

namespace crowdsky {
namespace {

using ::crowdsky::testing::EagerProbeOrder;
using Pair = ProbePairQueue::Pair;

/// Known-attribute matrix of a generated dataset. A tenth of the rows are
/// overwritten by copies of other rows; with `coarse` every value is
/// snapped to one of eight levels.
PreferenceMatrix KnownMatrix(int n, int dims, DataDistribution dist,
                             uint64_t seed, bool coarse) {
  GeneratorOptions gen;
  gen.cardinality = n;
  gen.num_known = dims;
  gen.num_crowd = 1;
  gen.distribution = dist;
  gen.seed = seed;
  const PreferenceMatrix known =
      PreferenceMatrix::FromKnown(GenerateDataset(gen).ValueOrDie());
  std::vector<double> values;
  values.reserve(static_cast<size_t>(n) * static_cast<size_t>(dims));
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < dims; ++k) {
      const double v = known.value(i, k);
      values.push_back(coarse ? std::floor(v * 8.0) : v);
    }
  }
  Rng rng(seed ^ 0x5eedULL);
  const auto un = static_cast<uint64_t>(n);
  for (int c = 0; c < n / 10; ++c) {
    const auto from = static_cast<size_t>(rng.NextBounded(un));
    const auto to = static_cast<size_t>(rng.NextBounded(un));
    const auto d = static_cast<size_t>(dims);
    for (size_t k = 0; k < d; ++k) values[to * d + k] = values[from * d + k];
  }
  return PreferenceMatrix::FromRaw(n, dims, std::move(values));
}

DynamicBitset BitsOf(int n, const std::vector<int>& ids) {
  DynamicBitset bits(static_cast<size_t>(n));
  for (const int id : ids) bits.Set(static_cast<size_t>(id));
  return bits;
}

std::string Show(const Pair& p) {
  std::ostringstream out;
  out << "(" << p.u << ", " << p.v << ", freq " << p.freq << ")";
  return out.str();
}

bool SamePair(const Pair& a, const Pair& b) {
  return a.u == b.u && a.v == b.v && a.freq == b.freq;
}

/// Everything the queue emits over `members` with nothing removed.
std::vector<Pair> DrainQueue(const DominanceStructure& structure,
                             const std::vector<int>& members) {
  ProbePairQueue queue;
  queue.Reset(structure, members);
  const DynamicBitset live = BitsOf(structure.size(), members);
  std::vector<Pair> out;
  while (const Pair* p = queue.Front(live)) {
    out.push_back(*p);
    queue.Pop();
  }
  return out;
}

using Param = std::tuple<DataDistribution, bool>;

class ProbeOrderDifferentialTest : public ::testing::TestWithParam<Param> {};

TEST_P(ProbeOrderDifferentialTest, FullSequenceMatchesEagerOrder) {
  const auto [dist, coarse] = GetParam();
  const DominanceStructure structure(
      KnownMatrix(300, 3, dist, 7, coarse));
  int sizes_0 = 0;
  int sizes_1 = 0;
  int sizes_2 = 0;
  int max_size = 0;
  for (int t = 0; t < structure.size(); ++t) {
    const std::vector<int> members = structure.DominatorsOf(t);
    const int m = static_cast<int>(members.size());
    sizes_0 += m == 0;
    sizes_1 += m == 1;
    sizes_2 += m == 2;
    max_size = std::max(max_size, m);
    const std::vector<Pair> want = EagerProbeOrder(structure, members);
    const std::vector<Pair> got = DrainQueue(structure, members);
    ASSERT_EQ(got.size(), want.size()) << "tuple " << t;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_TRUE(SamePair(got[i], want[i]))
          << "tuple " << t << " |DS| " << m << " position " << i << ": got "
          << Show(got[i]) << ", eager " << Show(want[i]);
    }
  }
  EXPECT_GT(sizes_0, 0);
  EXPECT_GT(sizes_1, 0);
  EXPECT_GT(sizes_2, 0);
  EXPECT_GE(max_size, 50);
}

// Members leave DS(t) while the walk runs, as P3 pruning and P1/P2
// refreshes remove them. Pairs with a dead endpoint may be dropped or
// emitted (the evaluator skips them); the live pairs must come out in the
// eager order.
TEST_P(ProbeOrderDifferentialTest, ShrinkingLiveSetKeepsLivePairOrder) {
  const auto [dist, coarse] = GetParam();
  const DominanceStructure structure(
      KnownMatrix(300, 3, dist, 13, coarse));
  Rng rng(99);
  for (int t = 0; t < structure.size(); ++t) {
    const std::vector<int> members = structure.DominatorsOf(t);
    const std::vector<Pair> eager = EagerProbeOrder(structure, members);
    DynamicBitset live = BitsOf(structure.size(), members);
    const auto is_live = [&live](const Pair& p) {
      return live.Test(static_cast<size_t>(p.u)) &&
             live.Test(static_cast<size_t>(p.v));
    };
    ProbePairQueue queue;
    queue.Reset(structure, members);
    size_t e = 0;
    while (true) {
      while (e < eager.size() && !is_live(eager[e])) ++e;
      const Pair* p = queue.Front(live);
      while (p != nullptr && !is_live(*p)) {
        queue.Pop();
        p = queue.Front(live);
      }
      if (e == eager.size()) {
        ASSERT_EQ(p, nullptr) << "tuple " << t << " extra " << Show(*p);
        break;
      }
      ASSERT_NE(p, nullptr) << "tuple " << t << " missing " << Show(eager[e]);
      ASSERT_TRUE(SamePair(*p, eager[e]))
          << "tuple " << t << ": got " << Show(*p) << ", eager "
          << Show(eager[e]);
      // Resolve the pair the way P3 does: one endpoint leaves, now and
      // then an unrelated member goes too.
      if (rng.Bernoulli(0.5)) {
        live.Reset(static_cast<size_t>(rng.Bernoulli(0.5) ? p->u : p->v));
      }
      if (rng.Bernoulli(0.1)) {
        live.Reset(static_cast<size_t>(
            members[static_cast<size_t>(rng.NextBounded(members.size()))]));
      }
      queue.Pop();
      ++e;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, ProbeOrderDifferentialTest,
    ::testing::Combine(::testing::Values(DataDistribution::kIndependent,
                                         DataDistribution::kAntiCorrelated,
                                         DataDistribution::kCorrelated),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<Param>& param_info) {
      return std::string(DataDistributionName(std::get<0>(param_info.param))) +
             (std::get<1>(param_info.param) ? "_coarse" : "_exact");
    });

// A budget-denied evaluator pops one pair and stops; that pop must not
// score the whole quadratic pair set.
TEST(ProbePairQueueTest, FirstPopScoresFewPairs) {
  const DominanceStructure structure(
      KnownMatrix(2000, 4, DataDistribution::kIndependent, 42, false));
  int t = 0;
  for (int u = 0; u < structure.size(); ++u) {
    if (structure.dominating_set_size(u) >
        structure.dominating_set_size(t)) {
      t = u;
    }
  }
  const std::vector<int> members = structure.DominatorsOf(t);
  const auto m = static_cast<int64_t>(members.size());
  ASSERT_GE(m, 200);
  ProbePairQueue queue;
  queue.Reset(structure, members);
  const Pair* first = queue.Front(BitsOf(structure.size(), members));
  ASSERT_NE(first, nullptr);
  EXPECT_TRUE(SamePair(*first, EagerProbeOrder(structure, members)[0]));
  // Stronger than "fewer than all m(m-1)/2 pairs": the first pop scores
  // fewer pairs than DS(t) has members.
  EXPECT_LT(queue.scored_pairs(), m);
  queue.Clear();
  EXPECT_EQ(queue.scored_pairs(), 0);
  EXPECT_EQ(queue.Front(BitsOf(structure.size(), members)), nullptr);
}

}  // namespace
}  // namespace crowdsky
