#include "skyline/dominance_structure.h"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"

namespace crowdsky {

// Construction is block-partitioned over the global thread pool. Every
// phase writes disjoint rows (or runs serially), so the resulting
// structure is bit-identical for every thread count — the parallelism
// only changes wall time, never any paper-figure output.
DominanceStructure::DominanceStructure(const PreferenceMatrix& known)
    : DominanceStructure(known, SelectedKernelBackend()) {}

DominanceStructure::DominanceStructure(const PreferenceMatrix& known,
                                       KernelBackend backend)
    : n_(known.size()) {
  using Word = DynamicBitset::Word;
  constexpr size_t kBits = DynamicBitset::kBitsPerWord;
  const auto un = static_cast<size_t>(n_);
  dominatees_.assign(un, DynamicBitset(un));
  dominators_.assign(un, DynamicBitset(un));
  ds_size_.assign(un, 0);
  dominatee_count_.assign(un, 0);
  layer_of_.assign(un, 0);
  direct_dominators_.resize(un);
  ThreadPool& pool = ThreadPool::Global();

  // Score-sorted sweep: if a dominates b then Score(a) < Score(b), so only
  // the earlier tuple of each sorted pair needs testing.
  const std::vector<int> order = ScoreSortedOrder(known);
  const size_t word_count = un == 0 ? 0 : dominatees_[0].word_count();

  // Kernel backends keep the phase-1 rows in sorted coordinates (row i =
  // dominated sorted positions > i) so the transitive reduction below can
  // run as streaming word sweeps; row i lives at sdom[i * word_count].
  std::vector<Word> sdom;

  // Phase 1 — dominatee rows, one row-range per chunk. Thread i only
  // writes dominatees_ rows of its own sorted positions; the triangular
  // row costs are rebalanced by work-stealing.
  if (backend == KernelBackend::kLegacy) {
    pool.ParallelFor(0, un, 8, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        const int a = order[i];
        DynamicBitset& row = dominatees_[static_cast<size_t>(a)];
        for (size_t j = i + 1; j < un; ++j) {
          const int b = order[j];
          if (known.Dominates(a, b)) row.Set(static_cast<size_t>(b));
        }
      }
    });
  } else {
    // Kernel fill: a column-major mirror of the matrix in sorted order
    // lets each probe sweep its whole tail 64 candidates per output word
    // (skyline/dominance_kernels.h). The tail bits land in the probe's
    // sorted-space row; set bits are then scattered into id space. The
    // bits are identical to the legacy per-pair sweep: the kernels
    // evaluate the same IEEE <=/< comparisons, and no tuple at sorted
    // position <= i can be dominated by the probe (its score is not
    // larger), so the full-tail scan covers exactly the legacy pairs.
    sdom.assign(un * word_count, 0);
    const SoAMatrix soa(known, order);
    pool.ParallelFor(0, un, 8, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        if (i + 1 >= un) continue;
        const int a = order[i];
        Word* rowbuf = sdom.data() + i * word_count;
        PointDominatesTail(soa.view(), known.row(a), i + 1, backend, rowbuf);
        DynamicBitset& row = dominatees_[static_cast<size_t>(a)];
        for (size_t wi = (i + 1) / kBits; wi < word_count; ++wi) {
          Word bits = rowbuf[wi];
          while (bits != 0) {
            const size_t j =
                wi * kBits + static_cast<size_t>(__builtin_ctzll(bits));
            row.Set(static_cast<size_t>(order[j]));
            bits &= bits - 1;
          }
        }
      }
    });
  }

  // Phase 2 — dominators_ is the transpose of dominatees_, done 64x64
  // bits at a time: gather one word column of 64 rows, Transpose64x64,
  // scatter the result as whole words (instead of one store per set
  // bit). Partitioning the *column* space makes every dominator row the
  // property of exactly one chunk, so the scatter needs no atomics.
  pool.ParallelFor(0, word_count, 1, [&](size_t wlo, size_t whi) {
    Word blk[kBits];
    for (size_t wb = wlo; wb < whi; ++wb) {
      const size_t b0 = wb * kBits;
      const size_t bcols = std::min(kBits, un - b0);
      for (size_t ab = 0; ab < word_count; ++ab) {
        const size_t a0 = ab * kBits;
        const size_t arows = std::min(kBits, un - a0);
        Word any = 0;
        for (size_t k = 0; k < arows; ++k) {
          blk[k] = dominatees_[a0 + k].words()[wb];
          any |= blk[k];
        }
        if (any == 0) continue;
        for (size_t k = arows; k < kBits; ++k) blk[k] = 0;
        Transpose64x64(blk);
        for (size_t k = 0; k < bcols; ++k) {
          if (blk[k] != 0) dominators_[b0 + k].words()[ab] = blk[k];
        }
      }
    }
  });

  // Merge pass — sizes, evaluation order, skyline.
  pool.ParallelFor(0, un, 64, [&](size_t lo, size_t hi) {
    for (size_t t = lo; t < hi; ++t) {
      ds_size_[t] = static_cast<int>(dominators_[t].Count());
      dominatee_count_[t] = static_cast<int>(dominatees_[t].Count());
    }
  });

  evaluation_order_.assign(order.begin(), order.end());
  std::stable_sort(evaluation_order_.begin(), evaluation_order_.end(),
                   [this](int a, int b) {
                     const int sa = ds_size_[static_cast<size_t>(a)];
                     const int sb = ds_size_[static_cast<size_t>(b)];
                     if (sa != sb) return sa < sb;
                     return a < b;
                   });

  for (int t = 0; t < n_; ++t) {
    if (ds_size_[static_cast<size_t>(t)] == 0) known_skyline_.push_back(t);
  }

  // Layers + direct dominators. Both backends produce identical values;
  // the legacy branch keeps the historical per-pair scans (it is the
  // oracle the differential tests compare against), the kernel branch
  // reuses the sorted-space rows for a streaming formulation.
  const auto fill_layers = [this, un] {
    layers_.resize(static_cast<size_t>(num_layers_));
    for (size_t t = 0; t < un; ++t) {
      layers_[static_cast<size_t>(layer_of_[t] - 1)].push_back(
          static_cast<int>(t));
    }
  };

  if (backend == KernelBackend::kLegacy) {
    // Layers via longest dominance chains: layer(t) = 1 + max layer among
    // dominators. evaluation_order_ is a topological order (Lemma 3), so
    // a single serial pass suffices.
    for (const int t : evaluation_order_) {
      int max_layer = 0;
      dominators_[static_cast<size_t>(t)].ForEachSetBit([&](size_t s) {
        max_layer = std::max(max_layer, layer_of_[s]);
      });
      layer_of_[static_cast<size_t>(t)] = max_layer + 1;
      num_layers_ = std::max(num_layers_, max_layer + 1);
    }
    fill_layers();

    // Direct dominators (transitive reduction): s in c(t) iff s dominates
    // t and dominates no other dominator of t. Layer-ordered node list:
    // layer 1 is exactly the empty-dominator-set nodes, so starting at
    // layer 2 skips them without a per-node test; each remaining node is
    // independent, so the scan parallelizes over the pool.
    std::vector<int> nodes;
    nodes.reserve(un - known_skyline_.size());
    for (int l = 2; l <= num_layers_; ++l) {
      const std::vector<int>& members = layers_[static_cast<size_t>(l - 1)];
      nodes.insert(nodes.end(), members.begin(), members.end());
    }
    pool.ParallelFor(0, nodes.size(), 16, [&](size_t lo, size_t hi) {
      for (size_t idx = lo; idx < hi; ++idx) {
        const auto t = static_cast<size_t>(nodes[idx]);
        const DynamicBitset& ds_bits = dominators_[t];
        std::vector<int>& direct = direct_dominators_[t];
        direct.reserve(static_cast<size_t>(std::min(ds_size_[t], 8)));
        ds_bits.ForEachSetBit([&](size_t s) {
          if (!dominatees_[s].Intersects(ds_bits)) {
            direct.push_back(static_cast<int>(s));
          }
        });
      }
    });
  } else {
    // Direct dominators, parent side: an edge i -> j (sorted positions)
    // is transitive iff some earlier *direct* child k of i dominates j —
    // if a non-direct child witnesses it, recursing through ITS
    // dominator inside ds(i) bottoms out at a direct child that also
    // dominates j. So one ascending sweep of row i with a running
    // `covered` union of the direct children's rows classifies every
    // edge with one bit test, and the per-edge cost drops from a full
    // early-exit Intersects scan to a streaming word OR over the tail.
    struct EdgeSink {
      Mutex mu;
      // (dominatee id, dominator id) pairs, in chunk-arrival order.
      std::vector<std::pair<int, int>> edges CROWDSKY_GUARDED_BY(mu);
    } sink;
    pool.ParallelFor(0, un, 16, [&](size_t lo, size_t hi) {
      std::vector<Word> covered(word_count, 0);
      std::vector<std::pair<int, int>> local;
      for (size_t i = lo; i < hi; ++i) {
        const Word* row = sdom.data() + i * word_count;
        size_t dirty_from = word_count;
        for (size_t wi = (i + 1) / kBits; wi < word_count; ++wi) {
          Word bits = row[wi];
          while (bits != 0) {
            const size_t j =
                wi * kBits + static_cast<size_t>(__builtin_ctzll(bits));
            bits &= bits - 1;
            if ((covered[j / kBits] >> (j % kBits)) & 1u) continue;
            local.emplace_back(order[j], order[i]);
            // sdom row j is zero before word (j+1)/64, so the OR (and the
            // later reset) only needs the tail.
            const size_t w0 = (j + 1) / kBits;
            const Word* crow = sdom.data() + j * word_count;
            for (size_t w = w0; w < word_count; ++w) covered[w] |= crow[w];
            if (w0 < dirty_from) dirty_from = w0;
          }
        }
        if (dirty_from < word_count) {
          std::fill(covered.begin() + static_cast<ptrdiff_t>(dirty_from),
                    covered.end(), Word{0});
        }
      }
      if (!local.empty()) {
        const MutexLock lock(sink.mu);
        sink.edges.insert(sink.edges.end(), local.begin(), local.end());
      }
    });
    std::vector<std::pair<int, int>> edges;
    {
      const MutexLock lock(sink.mu);
      edges = std::move(sink.edges);
    }
    for (const std::pair<int, int>& e : edges) {
      direct_dominators_[static_cast<size_t>(e.first)].push_back(e.second);
    }
    // Chunk arrival order is thread-dependent; ascending-id lists (the
    // legacy iteration order) restore determinism.
    pool.ParallelFor(0, un, 256, [&](size_t lo, size_t hi) {
      for (size_t t = lo; t < hi; ++t) {
        std::sort(direct_dominators_[t].begin(), direct_dominators_[t].end());
      }
    });

    // Layers from direct edges only: every dominator of t has a direct
    // dominator of t at the same or a higher layer (follow its chain of
    // witnesses inside ds(t)), so max over c(t) equals max over ds(t).
    // Sorted order is topological — dominators sort strictly earlier.
    for (size_t p = 0; p < un; ++p) {
      const auto t = static_cast<size_t>(order[p]);
      int max_layer = 0;
      for (const int s : direct_dominators_[t]) {
        max_layer = std::max(max_layer, layer_of_[static_cast<size_t>(s)]);
      }
      layer_of_[t] = max_layer + 1;
      num_layers_ = std::max(num_layers_, max_layer + 1);
    }
    fill_layers();
  }
}

}  // namespace crowdsky
