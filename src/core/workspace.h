// CoverWorkspace — per-worker scratch memory for the covering engine.
//
// coverBlock creates one workspace per search worker for the duration of a
// covering. It bundles:
//   * an Arena for per-candidate scratch (clique recursion buffers,
//     materialization maps) — rewound via ArenaScope after each candidate,
//     chunks retained;
//   * reusable DynBitsets and vectors for the covering engine's per-round
//     and per-clique sets, sized via clearAndResize so their heap storage
//     survives across candidates.
//
// Core headers that only need a CoverWorkspace* use a forward declaration
// (`struct CoverWorkspace;`) instead of this header, keeping include cycles
// out of assigned.h / parallel_matrix.h.
#pragma once

#include <cstdint>
#include <vector>

#include "core/parallel_matrix.h"
#include "support/arena.h"
#include "support/bitset.h"

namespace aviv {

struct CoverWorkspace {
  // Per-candidate scratch arena. Everything allocated here lives inside an
  // ArenaScope opened at candidate entry; the graph's own payload pools are
  // deliberately NOT here (the winning candidate escapes the scope).
  Arena arena{1 << 16};

  // Covering engine per-round/per-clique scratch (see cover.cpp).
  DynBitset covered;
  DynBitset ready;
  DynBitset eligible;
  DynBitset members;
  DynBitset readyAfter;
  DynBitset liveOut;
  DynBitset active;
  // Round-invariant pressure baseline: which covered producers are live
  // with no clique selected, and the bank pressure they induce. The
  // per-clique probe adjusts this instead of rescanning the graph.
  DynBitset baseLive;
  DynBitset retireTouched;
  std::vector<int> basePressure;
  std::vector<uint32_t> retireList;
  // Distinct clique ∩ ready sets already probed this round (storage
  // reused across rounds; seenCount marks the live prefix).
  std::vector<DynBitset> seenEligible;
  std::vector<uint8_t> seenAbandoned;

  // Flat pool of member indices for surviving candidates within one round:
  // each candidate records (offset, count) into this vector instead of
  // owning a std::vector of node ids.
  std::vector<uint32_t> memberPool;

  // Spill-pressure and scheduling scratch.
  std::vector<int> pressure;
  std::vector<uint32_t> tryOrder;

  // Graph-analysis scratch (descendants, topological order).
  std::vector<DynBitset> desc;
  std::vector<uint32_t> topoOrder;
  std::vector<uint32_t> topoPending;

  // Levels from the top of the graph, left by ParallelismMatrix::rebuild
  // (the covering engine's critical-path priority), and from the bottom
  // (the level window's scratch).
  std::vector<int> levelTop;
  std::vector<int> levelBottom;

  // ParallelismMatrix::rebuild scratch: live nodes, ancestors (descendants
  // transposed), resource-contention masks per unit and per bus, nodes per
  // level from the top and from the bottom, and one level band.
  DynBitset matrixLive;
  DynBitset matrixWindow;
  std::vector<DynBitset> ancestors;
  std::vector<DynBitset> unitMask;
  std::vector<DynBitset> busMask;
  std::vector<DynBitset> topLevelMask;
  std::vector<DynBitset> bottomLevelMask;

  // Parallelism matrix reused across clique rounds and candidates (row
  // storage persists; rebuild() resizes in place).
  ParallelismMatrix matrix;
};

}  // namespace aviv
