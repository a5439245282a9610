//===-- solvers/Prune.cpp - Family pruning --------------------------------===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Family pruning. See Prune.h for the per-family soundness
/// argument; every test here is a necessary condition of the epsilon-band
/// verification, checked with a magnitude-scaled slack.
///
//===----------------------------------------------------------------------===//

#include "solvers/Prune.h"

#include <cmath>

using namespace shrinkray;

unsigned shrinkray::admissibleFamilies(const SequenceProfile &P,
                                       const SolverOptions &Opts) {
  if (!Opts.EnablePruning)
    return FamAll;
  const double Band = epsilonBand(Opts.Epsilon);
  const double Slack = pruneSlack(P);

  unsigned Mask = 0;
  // Constant: the midrange intercept is the L-inf minimizer, so feasibility
  // is exactly range <= 2*Band.
  if (P.range() <= 2.0 * Band + Slack)
    Mask |= FamConstant;
  // Poly1: second differences of any in-band line stay within 4*Band.
  // With n < 3 there is no second difference to test (and no line fit
  // either: fitPoly requires n >= degree + 1 witnesses).
  if (P.N < 3 || P.MaxAbsD2 <= 4.0 * Band + Slack)
    Mask |= FamPoly1;
  // Poly2: third differences within 8*Band; n < 4 has none to test.
  if (P.N < 4 || P.MaxAbsD3 <= 8.0 * Band + Slack)
    Mask |= FamPoly2;
  // Trig: the three-parameter sinusoid needs a fourth witness point
  // (mirrors the fitTrig entry check); per-frequency pruning happens
  // inside the scan (trigPeriodFeasible).
  if (P.N >= 4)
    Mask |= FamTrig;
  return Mask;
}

bool shrinkray::trigPeriodFeasible(const std::vector<double> &Ys,
                                   size_t Period, const SequenceProfile &P,
                                   const SolverOptions &Opts) {
  if (!Opts.EnablePruning)
    return true;
  if (Period == 0 || Period >= Ys.size())
    return true; // no two samples share a phase: nothing to test
  const double Bound = 2.0 * epsilonBand(Opts.Epsilon) + pruneSlack(P);
  for (size_t I = 0; I + Period < Ys.size(); ++I)
    if (std::fabs(Ys[I] - Ys[I + Period]) > Bound)
      return false;
  return true;
}
