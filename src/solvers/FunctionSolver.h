//===-- solvers/FunctionSolver.h - Arithmetic function inference -*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The arithmetic component of ShrinkRay (paper Sec. 4.1): given the scalar
/// sequence of one vector component across a determinized list, find a
/// closed form within the epsilon tolerance band
///
///     (f(i)) - eps <= y_i <= (f(i)) + eps        (eps = 0.001)
///
/// for f among degree-1/degree-2 polynomials and sinusoids a*sin(b*i + c).
///
/// The paper solves the polynomial band constraints with Z3 over nonlinear
/// reals; Z3 is not available offline, so this implementation substitutes a
/// complete decision procedure for this query class: least-squares fitting
/// (which minimizes L2 error), followed by intercept centering (which
/// minimizes the L-infinity error over the intercept, the binding
/// coefficient), rational "nicing" of coefficients toward editable values,
/// and a final verification that every point lies inside the band. The trig
/// solver mirrors the paper's nonlinear regression: for each candidate
/// frequency b the model a*sin(b*i + c) = A*sin(bi) + B*cos(bi) is linear in
/// (A, B), so a frequency scan plus linear least squares replaces iterative
/// SVD refinement; fits are ranked by R^2 exactly as in the paper.
///
/// One solve profiles the sequence once (Preprocess.h), drops the families
/// whose necessary conditions the profile violates (Prune.h), and fits the
/// survivors in preference order: Constant, Poly1, Poly2, Trig.
/// breakdown() accumulates the wall clock of those three steps.
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_SOLVERS_FUNCTIONSOLVER_H
#define SHRINKRAY_SOLVERS_FUNCTIONSOLVER_H

#include "solvers/ClosedForm.h"
#include "solvers/Preprocess.h"
#include "support/Cancel.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace shrinkray {

/// Solver configuration.
struct SolverOptions {
  /// The tolerance band epsilon (paper Sec. 4.1; default as in the paper).
  double Epsilon = 1e-3;
  /// Minimum R^2 for a trig fit to be considered at all.
  double TrigR2Floor = 0.999;
  /// Largest denominator tried when snapping coefficients to rationals.
  int MaxNiceDenominator = 16;
  /// Family pruning (Prune.h). Sound (results are identical either way);
  /// the off state is the reference path of the pruning-soundness
  /// differential tests.
  bool EnablePruning = true;
  /// Cooperative cancellation: checked before each solve, between family
  /// fits, and inside the trig frequency scan. A fired token makes the
  /// solve return whatever verified forms it already has.
  CancelToken Cancel{};
};

/// Wall clock and work counters, accumulated across every solve one
/// FunctionSolver runs (the synthesizer surfaces the totals as
/// solve_preprocess/prune/fit_sec). Not thread-safe: each synthesis job
/// owns its solver.
struct SolveBreakdown {
  double PreprocessSec = 0.0; ///< sequence profiling
  double PruneSec = 0.0;      ///< family feasibility tests
  double FitSec = 0.0;        ///< fitting the surviving families
  uint64_t Sequences = 0;     ///< solve calls profiled
  uint64_t FamiliesPruned = 0;   ///< family fits skipped by pruning
  uint64_t FamiliesFitted = 0;   ///< family fits actually attempted
  uint64_t CancelledSolves = 0;  ///< solves cut short by the cancel token
};

/// Arithmetic function solver over scalar sequences.
class FunctionSolver {
public:
  explicit FunctionSolver(SolverOptions Opts = {}) : Opts(std::move(Opts)) {}

  /// Finds the best closed form for y_0..y_{n-1} as a function of the index,
  /// or nullopt when no candidate passes the epsilon band. Preference order
  /// on ties: Constant, Poly1, Poly2, Trig (simplest editable form wins;
  /// among passing forms they all satisfy the band, and the paper's R^2
  /// criterion then cannot distinguish them). Stops at the first success,
  /// so later families are never fitted.
  std::optional<ClosedForm> solveSequence(const std::vector<double> &Ys) const;

  /// All passing closed forms, simplest first. Periodic data of short
  /// sequences can be aliased by a polynomial and vice versa; returning
  /// every verified form lets the e-graph represent all of them so that
  /// top-k extraction can surface diverse parameterizations (paper Sec. 6.3,
  /// the hex-cell generator has both a loop and a trig solution).
  std::vector<ClosedForm> solveAll(const std::vector<double> &Ys) const;

  /// Degree-\p Degree polynomial fit (0, 1, or 2) with nicing; returns a
  /// verified form or nullopt. Bypasses family pruning.
  std::optional<ClosedForm> fitPoly(const std::vector<double> &Ys,
                                    int Degree) const;

  /// Sinusoid fit a*sin(b*i + c) + d via frequency scan; returns a verified
  /// form (also satisfying the R^2 floor) or nullopt. Honors Opts.Cancel: a
  /// fired token stops the scan and returns the best form found so far (or
  /// nullopt when none was).
  std::optional<ClosedForm> fitTrig(const std::vector<double> &Ys) const;

  /// K-index linear fit y = c + sum_k a_k * idx_k. \p Indices[i] holds the
  /// K index coordinates of sample i. Returns [c, a_1, ..., a_K] verified
  /// against the epsilon band, or nullopt. Used by nested-loop inference.
  std::optional<std::vector<double>>
  fitLinearN(const std::vector<std::vector<double>> &Indices,
             const std::vector<double> &Ys) const;

  /// True iff \p Form reproduces every y_i within epsilon.
  bool verify(const ClosedForm &Form, const std::vector<double> &Ys) const;

  const SolverOptions &options() const { return Opts; }

  /// Accumulated solve telemetry (see SolveBreakdown).
  const SolveBreakdown &breakdown() const { return Breakdown; }

private:
  std::vector<ClosedForm> solve(const std::vector<double> &Ys,
                                bool FirstOnly) const;

  /// fitTrig over the profile the solve already computed for \p Ys.
  std::optional<ClosedForm> fitTrig(const std::vector<double> &Ys,
                                    const SequenceProfile &Profile) const;

  SolverOptions Opts;
  /// Telemetry is observational state, updated by const solves.
  mutable SolveBreakdown Breakdown;
};

/// Detects the rotation-periodicity of a linear form: if the slope divides
/// 360 into an integer count (within tolerance), returns that count (e.g.
/// slope 6 -> 60 teeth); otherwise 0. Paper Sec. 4.1 "Rotation".
int64_t rotationPeriod(const ClosedForm &Form, double Tolerance = 1e-6);

} // namespace shrinkray

#endif // SHRINKRAY_SOLVERS_FUNCTIONSOLVER_H
