//===-- solvers/Prune.h - Family pruning ------------------------*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Family pruning, the step between profiling a sequence and fitting it.
/// Each test is a cheap *necessary* condition for a family's fit to pass
/// the epsilon-band verification, derived from finite differences of the
/// band constraint
///
///     |f(i) - y_i| <= Band        for all i, Band = eps + 1e-12.
///
/// Soundness (why pruning can never change results):
///
///  - Constant `c`: |c - y_i| <= Band for all i forces
///    max(y) - min(y) <= 2*Band (triangle inequality through c).
///  - Poly1 `b*i + c`: second differences of a line vanish, and the band
///    error contributes at most |1| + |-2| + |1| = 4 band units, so
///    |y_{i+2} - 2 y_{i+1} + y_i| <= 4*Band for every i.
///  - Poly2: third differences of a quadratic vanish; coefficient weights
///    |1| + |-3| + |3| + |-1| = 8 give |Δ³y| <= 8*Band.
///  - Trig at a fixed scan frequency b = 360*m/k: the sinusoid repeats
///    exactly every p = k / gcd(m, k) samples, so |y_i - y_{i+p}| <= 2*Band
///    whenever p <= n-1 (used per-candidate inside the frequency scan).
///
/// Each bound is checked with a small magnitude-scaled slack on top, so a
/// fit sitting exactly on a bound is never pruned by floating-point
/// roundoff: pruning only rejects sequences that violate the necessary
/// condition outright, i.e. fits that verification would reject anyway.
/// The pruning-soundness differential tests (solver_pipeline_test) check
/// solve results with pruning on vs. off for exact equality.
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_SOLVERS_PRUNE_H
#define SHRINKRAY_SOLVERS_PRUNE_H

#include "solvers/FunctionSolver.h"

namespace shrinkray {

/// Bitset of closed-form families, the currency of pruning: one bit per
/// FormKind.
enum FamilyBit : unsigned {
  FamConstant = 1u << 0,
  FamPoly1 = 1u << 1,
  FamPoly2 = 1u << 2,
  FamTrig = 1u << 3,
  FamAll = FamConstant | FamPoly1 | FamPoly2 | FamTrig,
};

/// The verification band for \p Epsilon (shared with FunctionSolver::verify).
inline double epsilonBand(double Epsilon) { return Epsilon + 1e-12; }

/// The floating-point slack added on top of every pruning bound; scales
/// with the sequence magnitude so large coordinates cannot be pruned by
/// roundoff, yet stays negligible against any real violation.
inline double pruneSlack(const SequenceProfile &P) {
  return 1e-9 * (1.0 + P.MaxAbs);
}

/// The FamilyBit mask of families whose necessary conditions \p P
/// satisfies. Families outside the mask cannot produce a verifying fit.
/// Returns FamAll when pruning is disabled in \p Opts.
unsigned admissibleFamilies(const SequenceProfile &P,
                            const SolverOptions &Opts);

/// Per-candidate trig pruning: true when a sinusoid with integer sample
/// period \p Period (p = k / gcd(m, k) for scan frequency 360*m/k) is still
/// feasible on \p Ys — i.e. the period either exceeds the sample range or
/// every pair of samples one period apart agrees within 2*Band (+ slack).
bool trigPeriodFeasible(const std::vector<double> &Ys, size_t Period,
                        const SequenceProfile &P, const SolverOptions &Opts);

} // namespace shrinkray

#endif // SHRINKRAY_SOLVERS_PRUNE_H
