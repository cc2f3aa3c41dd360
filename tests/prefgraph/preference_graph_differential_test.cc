// Differential test: PreferenceGraph (pruned-search ancestor closure)
// against EagerClosureGraph (the two-sided eager closure it replaced), fed
// the same seeded stream of noisy crowd answers drawn from a latent
// preorder with ties. Ties make equivalence merges happen; worker noise
// makes answers contradict the closure. After every operation the two
// graphs must return the same status and agree on sampled pairs, on
// AnyStrictlyPrefers over random masks and on every counter; at the end
// they must agree on the full n x n relation.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "prefgraph/eager_closure_graph.h"
#include "prefgraph/preference_graph.h"

namespace crowdsky {
namespace {

using ::crowdsky::testing::EagerClosureGraph;

/// One crowd answer about (u, v): kFirstPreferred, kSecondPreferred or
/// equal, as CrowdKnowledge::Record applies them.
enum class Kind { kUFirst, kVFirst, kEqual };

struct Op {
  int u;
  int v;
  Kind kind;
};

/// Latent preorder: tuple i sits at level[i], lower is preferred, and about
/// three tuples share a level. A quarter of the pairs are drawn within one
/// level so ties get asked; the rest are uniform. Each answer is replaced
/// by one of the two wrong ones with probability `noise`.
std::vector<Op> NoisyPreorderStream(int n, int num_ops, double noise,
                                    Rng* rng) {
  const int levels = n / 3 > 0 ? n / 3 : 1;
  std::vector<int> level(static_cast<size_t>(n));
  std::vector<std::vector<int>> at_level(static_cast<size_t>(levels));
  for (int i = 0; i < n; ++i) {
    level[static_cast<size_t>(i)] =
        static_cast<int>(rng->NextBounded(static_cast<uint64_t>(levels)));
    at_level[static_cast<size_t>(level[static_cast<size_t>(i)])].push_back(i);
  }
  std::vector<Op> ops;
  ops.reserve(static_cast<size_t>(num_ops));
  while (static_cast<int>(ops.size()) < num_ops) {
    const int u = static_cast<int>(rng->NextBounded(static_cast<uint64_t>(n)));
    int v = static_cast<int>(rng->NextBounded(static_cast<uint64_t>(n)));
    const std::vector<int>& peers =
        at_level[static_cast<size_t>(level[static_cast<size_t>(u)])];
    if (rng->Bernoulli(0.25) && peers.size() > 1) {
      v = peers[static_cast<size_t>(rng->NextBounded(peers.size()))];
    }
    if (u == v) continue;
    const int lu = level[static_cast<size_t>(u)];
    const int lv = level[static_cast<size_t>(v)];
    Kind kind = lu < lv ? Kind::kUFirst : lu > lv ? Kind::kVFirst : Kind::kEqual;
    if (rng->Bernoulli(noise)) {
      const int shift = 1 + static_cast<int>(rng->NextBounded(2));
      kind = static_cast<Kind>((static_cast<int>(kind) + shift) % 3);
    }
    ops.push_back(Op{u, v, kind});
  }
  return ops;
}

template <typename Graph>
Status Apply(Graph* g, const Op& op) {
  switch (op.kind) {
    case Kind::kUFirst:
      return g->AddPreference(op.u, op.v);
    case Kind::kVFirst:
      return g->AddPreference(op.v, op.u);
    case Kind::kEqual:
      return g->AddEquivalence(op.u, op.v);
  }
  return Status::InvalidArgument("unknown op");
}

using Param = std::tuple<int, ContradictionPolicy>;

class PrefGraphDifferentialTest : public ::testing::TestWithParam<Param> {};

TEST_P(PrefGraphDifferentialTest, MatchesEagerClosureOnNoisyPreorder) {
  const auto [n, policy] = GetParam();
  const bool fail = policy == ContradictionPolicy::kFail;
  Rng rng(uint64_t{0x5eed0000} + static_cast<uint64_t>(n) * 2 +
          (fail ? 1 : 0));
  const std::vector<Op> ops = NoisyPreorderStream(n, 3 * n, 0.1, &rng);
  PreferenceGraph graph(n, policy);
  EagerClosureGraph oracle(n, policy);
  DynamicBitset mask(static_cast<size_t>(n));
  const auto pick = [&rng, n] {
    return static_cast<int>(rng.NextBounded(static_cast<uint64_t>(n)));
  };

  for (size_t i = 0; i < ops.size(); ++i) {
    const Status got = Apply(&graph, ops[i]);
    const Status want = Apply(&oracle, ops[i]);
    ASSERT_EQ(got.code(), want.code()) << "op " << i;
    ASSERT_EQ(graph.edge_count(), oracle.edge_count()) << "op " << i;
    ASSERT_EQ(graph.merge_count(), oracle.merge_count()) << "op " << i;
    ASSERT_EQ(graph.contradiction_count(), oracle.contradiction_count())
        << "op " << i;

    // The pair just answered, plus random pairs.
    for (int s = 0; s < 17; ++s) {
      const int a = s == 0 ? ops[i].u : pick();
      const int b = s == 0 ? ops[i].v : pick();
      ASSERT_EQ(graph.Prefers(a, b), oracle.Prefers(a, b))
          << "op " << i << " pair " << a << "," << b;
      ASSERT_EQ(graph.Prefers(b, a), oracle.Prefers(b, a))
          << "op " << i << " pair " << b << "," << a;
      ASSERT_EQ(graph.Equivalent(a, b), oracle.Equivalent(a, b))
          << "op " << i << " pair " << a << "," << b;
      ASSERT_EQ(graph.Comparable(a, b), oracle.Comparable(a, b))
          << "op " << i << " pair " << a << "," << b;
    }

    // Sparse random masks (a handful of ids, never v itself).
    for (int m = 0; m < 2; ++m) {
      const int v = pick();
      mask.ClearAll();
      const int bits = 1 + static_cast<int>(rng.NextBounded(8));
      for (int k = 0; k < bits; ++k) mask.Set(static_cast<size_t>(pick()));
      mask.Reset(static_cast<size_t>(v));
      ASSERT_EQ(graph.AnyStrictlyPrefers(mask, v),
                oracle.AnyStrictlyPrefers(mask, v))
          << "op " << i << " target " << v;
    }
  }
  // The streams must exercise what they claim to.
  EXPECT_GT(graph.merge_count(), 0);
  EXPECT_GT(graph.edge_count(), 0);
  if (!fail) {
    EXPECT_GT(graph.contradiction_count(), 0);
  }

  for (int a = 0; a < n; ++a) {
    ASSERT_EQ(graph.representative(a), oracle.representative(a)) << a;
    for (int b = 0; b < n; ++b) {
      ASSERT_EQ(graph.Prefers(a, b), oracle.Prefers(a, b))
          << "pair " << a << "," << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, PrefGraphDifferentialTest,
    ::testing::Combine(::testing::Values(64, 512, 2048),
                       ::testing::Values(ContradictionPolicy::kFirstWins,
                                         ContradictionPolicy::kFail)),
    [](const ::testing::TestParamInfo<Param>& p) {
      std::string name = "n";
      name += std::to_string(std::get<0>(p.param));
      name += std::get<1>(p.param) == ContradictionPolicy::kFail
                  ? "_fail"
                  : "_first_wins";
      return name;
    });

}  // namespace
}  // namespace crowdsky
