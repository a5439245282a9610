//===-- oracles/ReferenceMatch.h - E-matching oracle ------------*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The recursive continuation-passing e-matcher that the compiled match VM
/// (egraph/Pattern.h) replaced, kept as the oracle the match-engine tests
/// run the VM against.
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_ORACLES_REFERENCEMATCH_H
#define SHRINKRAY_ORACLES_REFERENCEMATCH_H

#include "egraph/Pattern.h"

#include <vector>

namespace shrinkray {

/// Reference implementation of Pattern::matchClass: the recursive CPS
/// backtracking matcher over \p P's term. Produces the same matches in the
/// same order as the VM; slower — allocates a std::function continuation
/// chain per node visited.
std::vector<Subst> matchClassReference(const EGraph &G, const Pattern &P,
                                       EClassId Root);

} // namespace shrinkray

#endif // SHRINKRAY_ORACLES_REFERENCEMATCH_H
