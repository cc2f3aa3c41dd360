#include "prefgraph/preference_graph.h"

#include <algorithm>
#include <string>

namespace crowdsky {

PreferenceGraph::PreferenceGraph(int num_nodes, ContradictionPolicy policy)
    : n_(num_nodes), policy_(policy), scratch_(static_cast<size_t>(n_)) {
  CROWDSKY_CHECK(num_nodes >= 0);
  const auto un = static_cast<size_t>(n_);
  parent_.resize(un);
  anc_.assign(un, DynamicBitset(un));
  out_.resize(un);
  in_.resize(un);
  for (int v = 0; v < n_; ++v) parent_[static_cast<size_t>(v)] = v;
}

int PreferenceGraph::Find(int v) const {
  CROWDSKY_DCHECK(v >= 0 && v < n_);
  auto uv = static_cast<size_t>(v);
  while (parent_[uv] != static_cast<int>(uv)) {
    parent_[uv] = parent_[static_cast<size_t>(parent_[uv])];  // path halving
    uv = static_cast<size_t>(parent_[uv]);
  }
  return static_cast<int>(uv);
}

bool PreferenceGraph::Prefers(int u, int v) const {
  const auto ru = static_cast<size_t>(Find(u));
  const auto rv = static_cast<size_t>(Find(v));
  return ru != rv && anc_[rv].Test(ru);
}

bool PreferenceGraph::Equivalent(int u, int v) const {
  return Find(u) == Find(v);
}

void PreferenceGraph::InsertEdgeClosure(int ru, int rv) {
  const auto u = static_cast<size_t>(ru);
  // Forward: the nodes rv reaches whose rows lack ru. Bit ru of a row is
  // the visited mark, and the search stops at a row that already has it:
  // that node's descendants have ru (and all of ru's ancestors) already.
  found_.clear();
  stack_.assign(1, rv);
  anc_[static_cast<size_t>(rv)].Set(u);
  while (!stack_.empty()) {
    const int y = stack_.back();
    stack_.pop_back();
    found_.push_back(y);
    for (const int z : out_[static_cast<size_t>(y)]) {
      DynamicBitset& row = anc_[static_cast<size_t>(z)];
      if (!row.Test(u)) {
        row.Set(u);
        stack_.push_back(z);
      }
    }
  }
  // Backward, one row at a time: the ancestors of ru that row y lacks.
  // A row that already has an ancestor has all of that ancestor's
  // ancestors too, so the search stops there.
  for (const int y : found_) {
    DynamicBitset& row = anc_[static_cast<size_t>(y)];
    stack_.assign(1, ru);
    while (!stack_.empty()) {
      const int x = stack_.back();
      stack_.pop_back();
      for (const int w : in_[static_cast<size_t>(x)]) {
        if (!row.Test(static_cast<size_t>(w))) {
          row.Set(static_cast<size_t>(w));
          stack_.push_back(w);
        }
      }
    }
  }
}

void PreferenceGraph::CollectDescendants(int r) {
  DynamicBitset seen(static_cast<size_t>(n_));
  found_.clear();
  stack_.assign(1, r);
  while (!stack_.empty()) {
    const int y = stack_.back();
    stack_.pop_back();
    for (const int z : out_[static_cast<size_t>(y)]) {
      if (!seen.Test(static_cast<size_t>(z))) {
        seen.Set(static_cast<size_t>(z));
        found_.push_back(z);
        stack_.push_back(z);
      }
    }
  }
}

Status PreferenceGraph::AddPreference(int u, int v) {
  CROWDSKY_DCHECK(u >= 0 && u < n_ && v >= 0 && v < n_);
  const int ru = Find(u);
  const int rv = Find(v);
  if (ru == rv || anc_[static_cast<size_t>(ru)].Test(
                      static_cast<size_t>(rv))) {
    // u and v already equal, or v already preferred over u.
    if (policy_ == ContradictionPolicy::kFail) {
      return Status::Contradiction(
          "preference " + std::to_string(u) + " < " + std::to_string(v) +
          " contradicts existing order");
    }
    ++contradictions_;
    return Status::OK();
  }
  if (anc_[static_cast<size_t>(rv)].Test(static_cast<size_t>(ru))) {
    return Status::OK();  // already implied
  }
  out_[static_cast<size_t>(ru)].push_back(rv);
  in_[static_cast<size_t>(rv)].push_back(ru);
  InsertEdgeClosure(ru, rv);
  ++edges_;
  return Status::OK();
}

Status PreferenceGraph::AddEquivalence(int u, int v) {
  CROWDSKY_DCHECK(u >= 0 && u < n_ && v >= 0 && v < n_);
  const int ru = Find(u);
  const int rv = Find(v);
  if (ru == rv) return Status::OK();
  const auto sru = static_cast<size_t>(ru);
  const auto srv = static_cast<size_t>(rv);
  if (anc_[sru].Test(srv) || anc_[srv].Test(sru)) {
    if (policy_ == ContradictionPolicy::kFail) {
      return Status::Contradiction(
          "equivalence " + std::to_string(u) + " ~ " + std::to_string(v) +
          " contradicts a strict preference");
    }
    ++contradictions_;
    return Status::OK();
  }
  // Merge the class of `other` into the class of `rep`.
  const int rep = ru < rv ? ru : rv;
  const int other = ru < rv ? rv : ru;
  const auto srep = static_cast<size_t>(rep);
  const auto soth = static_cast<size_t>(other);
  parent_[soth] = rep;

  // Rewrite `other` -> `rep` in the edge lists, then hand other's edges to
  // rep. The two were incomparable, so no self-loop appears.
  for (const int x : in_[soth]) {
    std::vector<int>& succ = out_[static_cast<size_t>(x)];
    std::replace(succ.begin(), succ.end(), other, rep);
  }
  for (const int z : out_[soth]) {
    std::vector<int>& pred = in_[static_cast<size_t>(z)];
    std::replace(pred.begin(), pred.end(), other, rep);
  }
  out_[srep].insert(out_[srep].end(), out_[soth].begin(), out_[soth].end());
  in_[srep].insert(in_[srep].end(), in_[soth].begin(), in_[soth].end());
  std::vector<int>().swap(out_[soth]);
  std::vector<int>().swap(in_[soth]);
  anc_[srep].OrWith(anc_[soth]);
  anc_[soth].ClearAll();

  // The merge can create new transitive paths (x -> ru merged with rv -> y
  // gives x -> y), and every such path runs through the merged class: each
  // descendant takes the class's ancestors, with bit `other` renamed.
  CollectDescendants(rep);
  for (const int d : found_) {
    DynamicBitset& row = anc_[static_cast<size_t>(d)];
    row.Reset(soth);
    row.OrWithAndSet(anc_[srep], srep);
  }
  ++merges_;
  return Status::OK();
}

bool PreferenceGraph::AnyStrictlyPrefers(const DynamicBitset& ids,
                                         int v) const {
  CROWDSKY_DCHECK(ids.size() == static_cast<size_t>(n_));
  const auto rv = static_cast<size_t>(Find(v));
  if (merges_ == 0) {
    return anc_[rv].Intersects(ids);
  }
  // Translate the id mask into representative space.
  scratch_.ClearAll();
  ids.ForEachSetBit([this](size_t id) {
    scratch_.Set(static_cast<size_t>(Find(static_cast<int>(id))));
  });
  return anc_[rv].Intersects(scratch_);
}

}  // namespace crowdsky
