// Maximal-clique generation over the pairwise-parallelism matrix.
//
// Two generators produce the same canonical clique set:
//   * generateMaximalCliques — the covering engine's generator: pivoted
//     Bron–Kerbosch on raw word buffers bump-allocated from an arena, so a
//     round touches malloc only for the emitted cliques themselves;
//   * fig8MaximalCliques — the paper's Fig 8 algorithm, verbatim: a growth
//     loop that first absorbs every candidate whose addition precludes no
//     other candidate (with the `i < index` pruning that stops branches
//     whose cliques were already produced from a smaller seed), then
//     branches on each remaining candidate. It reproduces the paper figure
//     (bench/fig7_fig8_cliques) and is the independent oracle the property
//     tests hold the hot-path generator to.
//
// Both sort their output into the canonical order (lexicographic on the
// bit-string) and deduplicate, so without a cap they return equal vectors.
//
// Every VLIW instruction the covering engine may emit is one of these
// cliques (possibly shrunk).
#pragma once

#include <vector>

#include "core/parallel_matrix.h"
#include "support/arena.h"
#include "support/bitset.h"

namespace aviv {

struct CliqueGenStats {
  size_t emitted = 0;      // maximal cliques produced (after dedup)
  size_t recursions = 0;   // recursive expansions
  size_t pruned = 0;       // branches cut: by the pivot (Bron–Kerbosch) or
                           // by the i < index condition (Fig 8)
  bool capped = false;     // the cap dropped at least one maximal clique
};

// All maximal cliques of parallel nodes among `active` (maximal within
// `active`), in canonical order.
//
// The cap: at most `maxCliques` cliques are returned. The enumeration order
// is a pure function of (matrix, active), so a capped run returns the same
// subset every time. stats->capped is set iff the cap dropped a maximal
// clique: the generator runs on until it finds a (maxCliques+1)-th clique
// and stops there, so a set of exactly maxCliques cliques is reported
// uncapped. A capped set need not cover every active node; the covering
// engine backfills singletons for the nodes it misses.
//
// When `scratch` is given the recursion's sets live in it (rewound before
// returning); otherwise a private arena is used. Output and stats are
// identical either way.
[[nodiscard]] std::vector<DynBitset> generateMaximalCliques(
    const ParallelismMatrix& matrix, const DynBitset& active,
    size_t maxCliques, CliqueGenStats* stats = nullptr,
    Arena* scratch = nullptr);

// The paper's Fig 8 generator (see the header comment). Uncapped it returns
// exactly generateMaximalCliques' set; `maxCliques` truncates it in its own
// seed order, so capped sets of the two generators may differ.
[[nodiscard]] std::vector<DynBitset> fig8MaximalCliques(
    const ParallelismMatrix& matrix, const DynBitset& active,
    size_t maxCliques, CliqueGenStats* stats = nullptr,
    Arena* scratch = nullptr);

}  // namespace aviv
