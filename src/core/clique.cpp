#include "core/clique.h"

#include <algorithm>

#include "support/error.h"

namespace aviv {

namespace {

// Both generators work on raw word buffers bump-allocated from an arena
// (rewound as each branch returns), so a round of generation touches malloc
// only for the emitted cliques themselves.

// Pivoted Bron–Kerbosch. `p` holds the candidates parallel with every
// member of the current clique, `x` the nodes parallel with every member
// whose cliques through the current clique were already enumerated; the
// clique is maximal iff both are empty. Each maximal clique is reached
// exactly once, in an order fixed by (matrix, active).
struct BronKerbosch {
  const ParallelismMatrix& matrix;
  size_t maxCliques;
  CliqueGenStats* stats;
  Arena& arena;
  size_t n;      // node count (bits per set)
  size_t words;  // uint64_t words per set
  uint32_t* members = nullptr;  // current clique, `depth` entries
  size_t depth = 0;
  bool stop = false;  // the cap dropped a clique: unwind
  std::vector<DynBitset> out{};

  void emit() {
    if (out.size() >= maxCliques) {
      if (stats != nullptr) stats->capped = true;
      stop = true;
      return;
    }
    DynBitset clique(n);
    for (size_t k = 0; k < depth; ++k) clique.set(members[k]);
    out.push_back(std::move(clique));
  }

  // Both buffers are owned (mutated) by this invocation.
  void expand(uint64_t* p, uint64_t* x) {
    if (stats != nullptr) ++stats->recursions;
    if (!bits::any(p, words)) {
      if (!bits::any(x, words)) emit();
      return;
    }
    // Pivot: the node of p | x with the most neighbours in p. Its
    // neighbours need no branch of their own — every maximal clique
    // containing one of them is reached through a non-neighbour or the
    // pivot itself.
    size_t pCount = 0;
    for (size_t w = 0; w < words; ++w)
      pCount += static_cast<size_t>(__builtin_popcountll(p[w]));
    size_t pivot = n;
    size_t pivotDegree = 0;
    for (size_t w = 0; w < words && pivotDegree < pCount; ++w) {
      for (uint64_t bitsLeft = p[w] | x[w]; bitsLeft != 0;
           bitsLeft &= bitsLeft - 1) {
        const size_t u =
            w * 64 + static_cast<size_t>(__builtin_ctzll(bitsLeft));
        const uint64_t* row = matrix.row(static_cast<AgId>(u)).wordData();
        size_t degree = 0;
        for (size_t v = 0; v < words; ++v)
          degree += static_cast<size_t>(__builtin_popcountll(p[v] & row[v]));
        if (pivot == n || degree > pivotDegree) {
          pivot = u;
          pivotDegree = degree;
          if (degree == pCount) break;
        }
      }
    }
    if (stats != nullptr) stats->pruned += pivotDegree;

    uint64_t* branch = arena.alloc<uint64_t>(words);
    bits::andNotInto(branch, p,
                     matrix.row(static_cast<AgId>(pivot)).wordData(), words);
    for (size_t v = bits::findFirst(branch, 0, n); v < n;
         v = bits::findFirst(branch, v + 1, n)) {
      const Arena::Mark branchMark = arena.mark();
      const uint64_t* row = matrix.row(static_cast<AgId>(v)).wordData();
      uint64_t* nextP = arena.alloc<uint64_t>(words);
      bits::andInto(nextP, p, row, words);
      uint64_t* nextX = arena.alloc<uint64_t>(words);
      bits::andInto(nextX, x, row, words);
      members[depth++] = static_cast<uint32_t>(v);
      expand(nextP, nextX);
      --depth;
      arena.rewind(branchMark);
      if (stop) return;
      bits::reset(p, v);
      bits::set(x, v);
    }
  }

  void run(const DynBitset& active) {
    members = arena.alloc<uint32_t>(n == 0 ? 1 : n);
    uint64_t* p = arena.alloc<uint64_t>(words);
    bits::copy(p, active.wordData(), words);
    uint64_t* x = arena.alloc<uint64_t>(words);
    bits::clear(x, words);
    if (bits::any(p, words)) expand(p, x);
  }
};

// Paper Fig 8.
struct Fig8Generator {
  const ParallelismMatrix& matrix;
  const DynBitset& active;
  size_t maxCliques;
  CliqueGenStats* stats;
  Arena& arena;
  size_t n;      // node count (bits per set)
  size_t words;  // uint64_t words per set
  std::vector<DynBitset> out;

  [[nodiscard]] uint64_t* allocSet() { return arena.alloc<uint64_t>(words); }

  // `clique` is the current clique; `cand` the nodes parallel with every
  // clique member; `index` the largest seed/branch node so far. Both
  // buffers are owned (mutated) by this invocation.
  void gen(uint64_t* clique, uint64_t* cand, size_t index) {
    if (stats != nullptr) ++stats->recursions;
    if (out.size() >= maxCliques) {
      if (stats != nullptr) stats->capped = true;
      return;
    }

    // First loop: absorb nodes that preclude no other candidate.
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = bits::findFirst(cand, 0, n); i < n;
           i = bits::findFirst(cand, i + 1, n)) {
        // "adding i will not preclude adding any other node": every other
        // candidate is parallel with i, i.e. cand & ~row(i) is {i} or empty.
        const uint64_t* row = matrix.row(static_cast<AgId>(i)).wordData();
        const size_t selfWord = i >> 6;
        bool anyPrecluded = false;
        for (size_t w = 0; w < words; ++w) {
          uint64_t precluded = cand[w] & ~row[w];
          if (w == selfWord) precluded &= ~(uint64_t{1} << (i & 63));
          if (precluded != 0) {
            anyPrecluded = true;
            break;
          }
        }
        if (anyPrecluded) continue;
        if (i < index) {
          // Pruning condition: every maximal clique through this branch was
          // already generated starting from i.
          if (stats != nullptr) ++stats->pruned;
          return;
        }
        bits::set(clique, i);
        bits::reset(cand, i);
        changed = true;
      }
    }

    if (!bits::any(cand, words)) {
      DynBitset emitted;
      emitted.assignWords(n, clique);
      out.push_back(std::move(emitted));
      return;
    }

    // Second loop: branch on each remaining candidate.
    for (size_t i = bits::findFirst(cand, 0, n); i < n;
         i = bits::findFirst(cand, i + 1, n)) {
      const Arena::Mark branchMark = arena.mark();
      uint64_t* nextClique = allocSet();
      bits::copy(nextClique, clique, words);
      bits::set(nextClique, i);
      uint64_t* nextCand = allocSet();
      bits::andInto(nextCand, cand, matrix.row(static_cast<AgId>(i)).wordData(),
                    words);
      gen(nextClique, nextCand, std::max(i, index));
      arena.rewind(branchMark);
      if (out.size() >= maxCliques) return;
    }
  }

  void run() {
    for (size_t seed = active.findFirst(); seed < active.size();
         seed = active.findFirst(seed + 1)) {
      const Arena::Mark seedMark = arena.mark();
      uint64_t* clique = allocSet();
      bits::clear(clique, words);
      bits::set(clique, seed);
      // Candidates: neighbours within the active set.
      uint64_t* cand = allocSet();
      bits::andInto(cand, matrix.row(static_cast<AgId>(seed)).wordData(),
                    active.wordData(), words);
      gen(clique, cand, seed);
      arena.rewind(seedMark);
      if (out.size() >= maxCliques) {
        if (stats != nullptr && active.findFirst(seed + 1) < active.size())
          stats->capped = true;
        break;
      }
    }
  }
};

void sortAndDedup(std::vector<DynBitset>& cliques) {
  std::sort(cliques.begin(), cliques.end(),
            [](const DynBitset& a, const DynBitset& b) { return a.lexLess(b); });
  cliques.erase(std::unique(cliques.begin(), cliques.end()), cliques.end());
}

}  // namespace

std::vector<DynBitset> generateMaximalCliques(const ParallelismMatrix& matrix,
                                              const DynBitset& active,
                                              size_t maxCliques,
                                              CliqueGenStats* stats,
                                              Arena* scratch) {
  AVIV_CHECK(active.size() == matrix.size());
  Arena localArena;
  Arena& arena = scratch != nullptr ? *scratch : localArena;
  const ArenaScope scope(arena);
  BronKerbosch gen{matrix, maxCliques,    stats,
                   arena,  active.size(), active.wordCount()};
  gen.run(active);
  sortAndDedup(gen.out);
  if (stats != nullptr) stats->emitted = gen.out.size();
  return std::move(gen.out);
}

std::vector<DynBitset> fig8MaximalCliques(const ParallelismMatrix& matrix,
                                          const DynBitset& active,
                                          size_t maxCliques,
                                          CliqueGenStats* stats,
                                          Arena* scratch) {
  AVIV_CHECK(active.size() == matrix.size());
  Arena localArena;
  Arena& arena = scratch != nullptr ? *scratch : localArena;
  const ArenaScope scope(arena);
  Fig8Generator gen{matrix, active,        maxCliques,         stats,
                    arena,  active.size(), active.wordCount(), {}};
  gen.run();
  sortAndDedup(gen.out);
  if (stats != nullptr) stats->emitted = gen.out.size();
  return std::move(gen.out);
}

}  // namespace aviv
