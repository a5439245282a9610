//===-- solvers/Preprocess.h - Input and sequence preprocessing -*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cheap analysis that runs before any fitting.
///
/// Two preprocessing layers live here:
///
///  - Input canonicalization: `dedupeUnionOperands` collapses duplicate
///    operands of each Union spine of a flat CSG term (union is idempotent,
///    so `Union(x, x) = x`). Duplicate elements are the recorded pathology
///    of the rewrite phase — `union-idem` merges `Union(x, x)` into x's own
///    e-class, the class becomes self-referential, and the fold-list rules
///    then grow list classes without bound. Removing the duplicates before
///    the e-graph ever sees them kills the blowup at the source; inputs
///    without duplicates are returned unchanged (pointer-identical), so the
///    synthesizer's behavior on duplicate-free models is untouched.
///
///  - Sequence profiling: `sequenceProfile` computes the O(n) statistics
///    (range, finite-difference bounds, magnitude) that family pruning
///    tests before any least-squares work (see Prune.h for the soundness
///    argument).
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_SOLVERS_PREPROCESS_H
#define SHRINKRAY_SOLVERS_PREPROCESS_H

#include "cad/Term.h"

#include <cstddef>
#include <vector>

namespace shrinkray {

/// O(n) statistics of a scalar sequence, computed once per solve and shared
/// by every pruning test.
struct SequenceProfile {
  size_t N = 0;
  double Min = 0.0, Max = 0.0;
  /// max_i |y_i| — scales the floating-point slack of the pruning tests.
  double MaxAbs = 0.0;
  /// max_i |y_{i+2} - 2 y_{i+1} + y_i| (0 when n < 3).
  double MaxAbsD2 = 0.0;
  /// max_i |y_{i+3} - 3 y_{i+2} + 3 y_{i+1} - y_i| (0 when n < 4).
  double MaxAbsD3 = 0.0;

  double range() const { return Max - Min; }
};

/// Computes the profile of \p Ys.
SequenceProfile sequenceProfile(const std::vector<double> &Ys);

/// Collapses duplicate operands of every Union spine in a flat CSG term.
/// Each maximal Union tree is treated as one multiset of operands; repeated
/// operands (structural equality) beyond the first are dropped. Spines under
/// different boolean contexts keep separate multisets (dedup is only sound
/// under the idempotent operator itself). Returns \p FlatCsg unchanged
/// (same pointer) when no duplicates exist.
TermPtr dedupeUnionOperands(const TermPtr &FlatCsg);

} // namespace shrinkray

#endif // SHRINKRAY_SOLVERS_PREPROCESS_H
