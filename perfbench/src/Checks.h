//===-- perfbench/src/Checks.h - Property checks on outputs -----*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checks every output of the benchmark must pass. They test
/// properties the method must have, never stored copies of an earlier
/// output:
///
///  * geometry: every program of the top-k flattens (evalToFlatCsg) and
///    agrees with the input by point sampling at the repository's
///    translation-validation tolerance (paper Sec. 7);
///  * cost: each program's reported cost is its cost under the request's
///    cost function, costs never decrease down the ranks, and the first
///    costs no more than the input itself;
///  * cold equality: a response equals a direct cold
///    Synthesizer::synthesize of the same flat input, program for program
///    and cost for cost.
///
/// Each check returns "" when the output passes and a diagnostic when it
/// does not. selfTest corrupts a real output three ways and requires every
/// corruption to be rejected.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "Metrics.h"

#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// The sampling tolerance of the repository's validators (the CLI's
/// -validate, the bench harnesses): the fraction of sampled points on
/// which two solids may disagree, because the solvers snap constants
/// inside their epsilon band.
constexpr double kMismatchTolerance = 0.002;

/// Cost of \p T under \p Kind, computed the way extraction sums it.
double termCost(const shrinkray::TermPtr &T, shrinkray::CostKind Kind);

/// Geometry and cost checks, with a memo of geometric verdicts (terms are
/// hash-consed, so a pointer pair names a comparison). Thread-safe.
class Checker {
public:
  /// "" when \p Programs pass the geometry and cost checks for \p Input.
  std::string checkPrograms(const shrinkray::TermPtr &Input,
                            shrinkray::CostKind Cost,
                            const std::vector<Program> &Programs);

  /// Geometric agreement of flat \p Input and the flattening of
  /// \p Program. A structurally identical flattening (up to the order of
  /// union operands and 1e-9 in coordinates) denotes the same solid and
  /// skips sampling; anything else is sampled.
  std::string agrees(const shrinkray::TermPtr &Input,
                     const shrinkray::TermPtr &Program);

  size_t sampled() const;
  size_t structural() const;

private:
  mutable std::mutex M;
  std::map<std::pair<const void *, const void *>, std::string> Verdicts;
  std::vector<shrinkray::TermPtr> Keep; ///< keeps memo keys alive
  size_t Sampled = 0, Structural = 0;
};

/// "" when \p Got equals \p Cold program for program (canonical
/// s-expressions) and cost for cost (bit for bit).
std::string checkSameAs(const std::vector<Program> &Got,
                        const std::vector<Program> &Cold);

/// Programs of a direct cold synthesis of \p Flat (one engine thread;
/// results do not depend on the thread count).
std::vector<Program> coldSynthesis(const shrinkray::TermPtr &Flat,
                                   shrinkray::CostKind Cost, size_t TopK);

/// Fills Program::Sexp from Program::T, or T from Sexp; false when a
/// wire program does not parse.
bool completePrograms(std::vector<Program> &Programs, std::string &Error);

/// True when two adjacent ranks of \p Programs differ in cost, so that
/// swapping them must break the cost order.
bool ranksDiffer(const std::vector<Program> &Programs);

/// Feeds the checks three corruptions of a passing output — a moved
/// primitive, swapped ranks, a changed cost — and requires each to be
/// rejected by the property checks and, when \p Cold is given, by the
/// cold-equality check. Appends one line per case to \p Log.
bool selfTest(Checker &C, const shrinkray::TermPtr &Input,
              shrinkray::CostKind Cost, const std::vector<Program> &Programs,
              const std::vector<Program> *Cold, std::string &Log);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
