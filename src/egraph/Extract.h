//===-- egraph/Extract.h - Cost-based extraction ----------------*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Extraction of the top-k best programs from a saturated e-graph under a
/// user-supplied cost function (paper Sec. 5.1). Costs may depend
/// recursively on argument costs; both the default AST-size cost and the
/// `reward-loops` variant from the evaluation live in synth/Cost.h.
///
/// `KBestExtractor` is the one extraction engine. It is one-shot:
/// construction derives the whole table from the graph as it stands, and a
/// mutated graph needs a fresh engine. The Synthesizer builds one after the
/// solvers finish (paper Fig. 5 lines 8-9). A derivation has two steps:
///
///  * a cost sweep: every class's one-best cost, from sweeping all classes
///    until no cost improves (egg's bottom-up extraction pass). The table
///    holds costs only; it orders the k-best waves and marks the classes
///    that can never have a candidate.
///  * wave-scheduled recombination: per class, a bounded list of up to k
///    distinct candidate programs, recomputed only when a child's list
///    changed, enumerating child-candidate combinations lazily through a
///    best-first frontier heap (k-shortest-paths style "cube pruning").
///    A changed list reaches the classes above it through the raw
///    EClass::Parents entries, canonicalized with find() as they are read.
///
/// Ties are broken by a fixed total order, so extraction is a pure function
/// of the graph. The whole-graph fixed-point oracles the tests hold the
/// engine against live in tests/oracles.
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_EGRAPH_EXTRACT_H
#define SHRINKRAY_EGRAPH_EXTRACT_H

#include "egraph/EGraph.h"

#include <algorithm>
#include <unordered_map>

namespace shrinkray {

/// A cost function over operators and already-computed child costs.
class CostFn {
public:
  virtual ~CostFn() = default;

  /// Cost of a node with operator \p O whose children cost \p ChildCosts.
  /// Must be monotone: not smaller than any child cost (this guarantees
  /// extraction terminates on cyclic e-graphs).
  virtual double cost(const Op &O,
                      const std::vector<double> &ChildCosts) const = 0;
};

/// The paper's default cost: number of AST nodes. Float literals carry an
/// infinitesimal surcharge so that, among value-equal programs, extraction
/// deterministically prefers integer spellings (as the paper's figures do).
class AstSizeCost : public CostFn {
public:
  double cost(const Op &O, const std::vector<double> &ChildCosts) const final {
    double Sum = O.kind() == OpKind::Float ? 1.0 + 1e-9 : 1.0;
    for (double C : ChildCosts)
      Sum += C;
    return Sum;
  }
};

/// AST-depth cost: extracts the shallowest program (a secondary metric the
/// evaluation reports; max of child costs plus one).
class AstDepthCost : public CostFn {
public:
  double cost(const Op &, const std::vector<double> &ChildCosts) const final {
    double Max = 0.0;
    for (double C : ChildCosts)
      Max = std::max(Max, C);
    return Max + 1.0;
  }
};

/// A term together with its extraction cost.
struct RankedTerm {
  TermPtr T;
  double Cost;
};

/// Top-k extraction: per class, the k cheapest *distinct* terms (paper
/// Sec. 5.1: ShrinkRay returns the top-k programs so the user can pick the
/// parameterization that suits the edit they want to make). Distinctness is
/// value-level: Int(5) and Float(5.0) respellings do not count as program
/// diversity.
///
/// Worklist-driven: classes are (re)combined in ascending one-best-cost
/// order, and a class is revisited only when a child's candidate list
/// changed. Each recombination enumerates candidates lazily through one
/// bounded best-first heap over all the class's e-nodes, stopping at the
/// k-th distinct program. One-shot: a mutated graph needs a fresh engine,
/// and the engine must not outlive the graph.
///
/// Candidates live in a *flat row store*, not as materialized terms: a row
/// is (operator, child row ids), hashconsed per engine, so a candidate in
/// the table is just (cost, row id) and row-id equality is structural
/// equality of candidate programs. Recombination reads and produces row
/// ids, interning each candidate it keeps, and real TermPtrs materialize
/// only in extract(). Classes recombine in a wave order that is a pure
/// function of the graph, so row ids and the table are too.
class KBestExtractor {
public:
  KBestExtractor(const EGraph &G, const CostFn &Fn, size_t K);

  /// Up to k cheapest distinct terms of the class, cheapest first.
  std::vector<RankedTerm> extract(EClassId Id) const;

private:
  /// One hashconsed candidate shape: an operator applied to child rows
  /// (a span into RowKids). ValueHash caches termValueHash of the term
  /// the row denotes, for O(arity) dedup hashing during recombination.
  struct CandRow {
    Op Operator;
    uint32_t KidsBegin;
    uint32_t KidsEnd;
    size_t ValueHash;
  };
  /// A candidate program of one class: its cost and interned row.
  struct CandRef {
    double Cost;
    uint32_t Row;
  };

  const EGraph &G;
  const CostFn &Fn;
  size_t K;
  /// One-best cost per class id (+inf: no finite-cost term). Read only
  /// for the (cost, id) wave order and to skip classes that can never
  /// have candidates.
  std::vector<double> OneBestCosts;
  std::unordered_map<EClassId, std::vector<CandRef>> Table;
  /// The row store: append-only, immutable once written, deduplicated
  /// through RowIndex so structurally equal candidates share one row id.
  std::vector<CandRow> Rows;
  std::vector<uint32_t> RowKids;
  /// Open-addressed dedup index over Rows: a slot holds (structural hash,
  /// row id + 1), with 0 meaning empty. The store is append-only — rows
  /// are never erased — so linear probing needs no tombstones; the table
  /// doubles at 3/4 occupancy (Rows.size() is exactly the occupancy,
  /// since every row is inserted here once). Replaces a node-based
  /// unordered_map whose bucket chases dominated the commit path.
  struct RowSlot {
    size_t Hash = 0;
    uint32_t RowPlus1 = 0;
  };
  std::vector<RowSlot> RowIndex;
  /// Lazy row -> term materializations (extract() only).
  /// Never invalidated: rows are immutable.
  mutable std::unordered_map<uint32_t, TermPtr> RowTerms;

  void derive();

  /// Interns (O, Kids[0..N)) in the row store; \p ValueHash must equal
  /// termValueHashNode(O, kid value hashes).
  uint32_t internRow(const Op &O, const uint32_t *Kids, size_t N,
                     size_t ValueHash);
  /// Value-level equality of two rows (the row analogue of
  /// termApproxEquals at Eps 0).
  bool rowValueEq(uint32_t A, uint32_t B) const;
  /// Recomputes into \p Out the up-to-k cheapest distinct candidates of
  /// \p Id from the current table, interning each candidate it keeps in
  /// the order it keeps them. Reads the table, never writes it.
  void combineClass(EClassId Id, std::vector<CandRef> &Out);
  /// Builds the term a row denotes (iterative, memoized in RowTerms).
  TermPtr materializeRow(uint32_t Row) const;
};

} // namespace shrinkray

#endif // SHRINKRAY_EGRAPH_EXTRACT_H
