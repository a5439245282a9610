//===-- oracles/ReferenceExtract.h - Extraction oracles ---------*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-graph fixed-point extraction oracles, for the tests and for
/// bench_extract's oracle rows. They sweep every class until nothing
/// changes, so they share no scheduling with KBestExtractor (egraph/
/// Extract.h): a scheduling bug in the engine shows up as a disagreement.
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_ORACLES_REFERENCEEXTRACT_H
#define SHRINKRAY_ORACLES_REFERENCEEXTRACT_H

#include "egraph/Extract.h"

#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

namespace shrinkray {

/// One-best extraction oracle: the naive whole-graph fixed point (sweep all
/// classes until nothing changes). Cost ties go to the smallest e-node
/// under a fixed total order, so the (cost, choice) fixpoint is unique.
class ReferenceExtractor {
public:
  ReferenceExtractor(const EGraph &G, const CostFn &Fn);

  std::optional<double> bestCost(EClassId Id) const;
  TermPtr extract(EClassId Id) const;
  const ENode *choiceNode(EClassId Id) const;

private:
  const EGraph &G;
  std::unordered_map<EClassId, double> Costs;
  std::unordered_map<EClassId, ENode> Choices;
  mutable std::unordered_map<EClassId, TermPtr> BuildMemo;

  TermPtr build(EClassId Id) const;
};

/// A candidate program of one e-class: cost, term, and the term's
/// value-level hash (termValueHash) used for O(1)-expected deduplication.
struct ExtractCandidate {
  double Cost = std::numeric_limits<double>::infinity();
  TermPtr T;
  size_t ValueHash = 0;
};

/// Top-k extraction oracle: whole-graph sweeps to a fixed point (the
/// original pass() structure), sharing the per-class lazy combination and
/// hashed deduplication with the engine so the two differ only in
/// scheduling — the part differential tests need to pin down.
class ReferenceKBestExtractor {
public:
  ReferenceKBestExtractor(const EGraph &G, const CostFn &Fn, size_t K);

  std::vector<RankedTerm> extract(EClassId Id) const;

private:
  const EGraph &G;
  const CostFn &Fn;
  size_t K;
  std::vector<EClassId> ClassOrder; ///< ascending one-best cost
  std::unordered_map<EClassId, std::vector<ExtractCandidate>> Table;

  bool pass();
};

} // namespace shrinkray

#endif // SHRINKRAY_ORACLES_REFERENCEEXTRACT_H
