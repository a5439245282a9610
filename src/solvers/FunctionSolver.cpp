//===-- solvers/FunctionSolver.cpp - Arithmetic function inference --------===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solve (profile -> prune -> fit in preference order), the polynomial
/// and sinusoid fits it runs, the multi-index linear fit of nested-loop
/// inference, and the band verification and nicing they all share.
///
//===----------------------------------------------------------------------===//

#include "solvers/FunctionSolver.h"

#include "linalg/Matrix.h"
#include "linalg/Vec3.h"
#include "solvers/Prune.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <numeric>

using namespace shrinkray;

//===----------------------------------------------------------------------===//
// Shared fitting helpers
//===----------------------------------------------------------------------===//

namespace {

/// Candidate "nice" snappings of \p Value (integers and small rationals),
/// ordered by niceness; always ends with \p Value itself.
std::vector<double> niceCandidates(double Value, const SolverOptions &Opts) {
  std::vector<double> Out;
  auto push = [&](double V) {
    for (double Existing : Out)
      if (Existing == V)
        return;
    Out.push_back(V);
  };
  // Integers first, then small rationals in increasing denominator order.
  double Rounded = std::round(Value);
  if (std::fabs(Value - Rounded) <= 0.05 * std::max(1.0, std::fabs(Value)))
    push(Rounded);
  for (int Den = 2; Den <= Opts.MaxNiceDenominator; ++Den) {
    double Scaled = std::round(Value * Den) / Den;
    if (std::fabs(Value - Scaled) <= 0.01)
      push(Scaled);
  }
  push(Value);
  return Out;
}

/// Shifts the constant coefficient so residuals are centered: the exact
/// minimizer of the L-infinity error over the intercept alone.
void centerIntercept(ClosedForm &Form, const std::vector<double> &Ys) {
  double MaxResid = -1e308, MinResid = 1e308;
  for (size_t I = 0; I < Ys.size(); ++I) {
    double R = Ys[I] - Form.evaluate(static_cast<double>(I));
    MaxResid = std::max(MaxResid, R);
    MinResid = std::min(MinResid, R);
  }
  Form.C += (MaxResid + MinResid) / 2.0;
}

/// R^2 of \p Form on \p Ys.
double formR2(const ClosedForm &Form, const std::vector<double> &Ys) {
  std::vector<double> Fit(Ys.size());
  for (size_t I = 0; I < Ys.size(); ++I)
    Fit[I] = Form.evaluate(static_cast<double>(I));
  return rSquared(Ys, Fit);
}

} // namespace

//===----------------------------------------------------------------------===//
// The solve
//===----------------------------------------------------------------------===//

std::vector<ClosedForm> FunctionSolver::solve(const std::vector<double> &Ys,
                                              bool FirstOnly) const {
  using Clock = std::chrono::steady_clock;
  std::vector<ClosedForm> Out;
  if (Ys.empty())
    return Out;
  ++Breakdown.Sequences;
  if (Opts.Cancel.cancelled()) {
    ++Breakdown.CancelledSolves;
    return Out;
  }

  const auto T0 = Clock::now();
  const SequenceProfile Profile = sequenceProfile(Ys);
  const auto T1 = Clock::now();
  Breakdown.PreprocessSec += std::chrono::duration<double>(T1 - T0).count();

  const unsigned Mask = admissibleFamilies(Profile, Opts);
  const auto T2 = Clock::now();
  Breakdown.PruneSec += std::chrono::duration<double>(T2 - T1).count();

  // Runs \p Fit unless pruning excluded \p Family; keeps a verified form.
  auto tryFit = [&](unsigned Family, auto Fit) {
    if (!(Mask & Family)) {
      ++Breakdown.FamiliesPruned;
      return false;
    }
    ++Breakdown.FamiliesFitted;
    std::optional<ClosedForm> Form = Fit();
    if (Form)
      Out.push_back(*Form);
    return Form.has_value();
  };
  auto cancelled = [&] {
    if (!Opts.Cancel.cancelled())
      return false;
    ++Breakdown.CancelledSolves;
    return true;
  };

  // Preference/subsumption order (paper Sec. 4.1): a constant subsumes
  // every other class; a line subsumes its quadratic extension; the trig
  // variant rides along for diversity (Sec. 6.3) unless the caller only
  // wants the first (simplest) form.
  if (!tryFit(FamConstant, [&] { return fitPoly(Ys, 0); }) && !cancelled()) {
    const bool PolyFound = tryFit(FamPoly1, [&] { return fitPoly(Ys, 1); }) ||
                           tryFit(FamPoly2, [&] { return fitPoly(Ys, 2); });
    if (!(PolyFound && FirstOnly) && !cancelled())
      tryFit(FamTrig, [&] { return fitTrig(Ys, Profile); });
  }
  Breakdown.FitSec += std::chrono::duration<double>(Clock::now() - T2).count();
  return Out;
}

std::vector<ClosedForm>
FunctionSolver::solveAll(const std::vector<double> &Ys) const {
  return solve(Ys, /*FirstOnly=*/false);
}

std::optional<ClosedForm>
FunctionSolver::solveSequence(const std::vector<double> &Ys) const {
  std::vector<ClosedForm> Forms = solve(Ys, /*FirstOnly=*/true);
  if (Forms.empty())
    return std::nullopt;
  return Forms.front();
}

bool FunctionSolver::verify(const ClosedForm &Form,
                            const std::vector<double> &Ys) const {
  // The band's tiny slack keeps points that sit exactly on its boundary
  // (like the paper's 5.001 example) from being rejected by roundoff.
  const double Band = epsilonBand(Opts.Epsilon);
  for (size_t I = 0; I < Ys.size(); ++I)
    if (std::fabs(Form.evaluate(static_cast<double>(I)) - Ys[I]) > Band)
      return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Polynomial fits: exact interpolation or least squares, intercept
// centering, rational nicing, epsilon-band verification
//===----------------------------------------------------------------------===//

std::optional<ClosedForm> FunctionSolver::fitPoly(const std::vector<double> &Ys,
                                                  int Degree) const {
  assert(Degree >= 0 && Degree <= 2 && "unsupported polynomial degree");
  const size_t N = Ys.size();
  if (N == 0)
    return std::nullopt;
  // Underdetermined fits are exact but meaningless; require enough points
  // for the degree (a 2-point "parabola" would always win, hiding lines).
  if (N < static_cast<size_t>(Degree) + 1)
    return std::nullopt;

  const size_t Cols = static_cast<size_t>(Degree) + 1;
  Matrix A(N, Cols);
  std::vector<double> B(N);
  for (size_t I = 0; I < N; ++I) {
    double X = static_cast<double>(I);
    A.at(I, 0) = 1.0;
    if (Cols > 1)
      A.at(I, 1) = X;
    if (Cols > 2)
      A.at(I, 2) = X * X;
    B[I] = Ys[I];
  }

  ClosedForm Raw;
  Raw.Kind = Degree == 0   ? FormKind::Constant
             : Degree == 1 ? FormKind::Poly1
                           : FormKind::Poly2;
  Raw.Module = "poly";
  if (N == Cols || Degree == 0) {
    // Exact interpolation / plain mean.
    if (Degree == 0) {
      double Mean = 0.0;
      for (double Y : Ys)
        Mean += Y;
      Raw.C = Mean / static_cast<double>(N);
    } else {
      std::optional<std::vector<double>> X = solveLinear(A, B);
      if (!X)
        return std::nullopt;
      Raw.C = (*X)[0];
      Raw.B = Cols > 1 ? (*X)[1] : 0.0;
      Raw.A = Cols > 2 ? (*X)[2] : 0.0;
    }
  } else {
    std::optional<std::vector<double>> X = leastSquares(A, B);
    if (!X)
      return std::nullopt;
    Raw.C = (*X)[0];
    Raw.B = Cols > 1 ? (*X)[1] : 0.0;
    Raw.A = Cols > 2 ? (*X)[2] : 0.0;
  }
  centerIntercept(Raw, Ys);

  // Try snapping coefficients to editable values, nicest combination first;
  // the epsilon-band verification is the sole acceptance criterion.
  std::vector<double> CandA = Degree == 2 ? niceCandidates(Raw.A, Opts)
                                          : std::vector<double>{0.0};
  std::vector<double> CandB = Degree >= 1 ? niceCandidates(Raw.B, Opts)
                                          : std::vector<double>{0.0};
  std::vector<double> CandC = niceCandidates(Raw.C, Opts);
  for (double CoefA : CandA)
    for (double CoefB : CandB)
      for (double CoefC : CandC) {
        ClosedForm Form = Raw;
        Form.A = CoefA;
        Form.B = CoefB;
        Form.C = CoefC;
        // Re-center the intercept for the snapped slope, then try both the
        // centered and the snapped intercept.
        if (verify(Form, Ys)) {
          Form.R2 = formR2(Form, Ys);
          return Form;
        }
        centerIntercept(Form, Ys);
        if (verify(Form, Ys)) {
          Form.R2 = formR2(Form, Ys);
          return Form;
        }
      }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Sinusoid fit: for each candidate frequency b = 360*m/k the model
// a*sin(b i + c) + d is linear in (P, Q, d), so a scan plus linear least
// squares replaces iterative SVD refinement. Candidates whose exact sample
// period contradicts the data are pruned before the least-squares solve
// (trigPeriodFeasible), and the cancellation token is polled as the scan
// progresses.
//===----------------------------------------------------------------------===//

std::optional<ClosedForm>
FunctionSolver::fitTrig(const std::vector<double> &Ys) const {
  return fitTrig(Ys, sequenceProfile(Ys));
}

std::optional<ClosedForm>
FunctionSolver::fitTrig(const std::vector<double> &Ys,
                        const SequenceProfile &Profile) const {
  const size_t N = Ys.size();
  // The model has three free parameters (amplitude, phase, offset), so any
  // three points admit an exact "fit"; require a fourth witness point.
  if (N < 4)
    return std::nullopt;

  // Candidate frequencies: b = 360 * m / k covers sequences periodic in k
  // samples with m-fold winding; this is exactly the structure CAD designs
  // exhibit (points placed around circles). Each candidate's exact integer
  // sample period is k / gcd(m, k) — the handle for per-frequency pruning.
  struct Candidate {
    double Freq;
    size_t Period;
  };
  std::vector<Candidate> Candidates;
  for (size_t K = 2; K <= 2 * N; ++K)
    for (size_t M = 1; M <= 3; ++M) {
      double B = 360.0 * static_cast<double>(M) / static_cast<double>(K);
      if (B < 360.0)
        Candidates.push_back({B, K / std::gcd(M, K)});
    }
  std::sort(Candidates.begin(), Candidates.end(),
            [](const Candidate &A, const Candidate &B) {
              return A.Freq < B.Freq;
            });
  // Equal frequencies are equal reduced fractions, hence equal periods.
  Candidates.erase(std::unique(Candidates.begin(), Candidates.end(),
                               [](const Candidate &A, const Candidate &B) {
                                 return A.Freq == B.Freq;
                               }),
                   Candidates.end());

  std::optional<ClosedForm> Best;
  size_t Scanned = 0;
  for (const Candidate &Cand : Candidates) {
    // A long scan is the solver's dominant cost on big lists; poll the
    // cancel token every few candidates and return the best-so-far.
    if ((Scanned++ % 8 == 0) && Opts.Cancel.cancelled())
      break;
    // A sinusoid at this frequency repeats exactly every Period samples,
    // so sample pairs one period apart must already agree within the band
    // for any fit to verify.
    if (!trigPeriodFeasible(Ys, Cand.Period, Profile, Opts))
      continue;
    const double Freq = Cand.Freq;
    // a*sin(b i + c) + d = P*sin(b i) + Q*cos(b i) + d: linear in
    // (P, Q, d). The offset column makes Figure 19's `10 + 7.07*sin(...)`
    // expressible. At some frequencies one sinusoid column vanishes on the
    // integer grid (e.g. sin(180 i) == 0 for all i), which would make the
    // system rank deficient — fit only the non-degenerate columns.
    std::vector<double> SinCol(N), CosCol(N), B(N);
    double SinNorm = 0.0, CosNorm = 0.0;
    for (size_t I = 0; I < N; ++I) {
      double Angle = degToRad(Freq * static_cast<double>(I));
      SinCol[I] = std::sin(Angle);
      CosCol[I] = std::cos(Angle);
      SinNorm += SinCol[I] * SinCol[I];
      CosNorm += CosCol[I] * CosCol[I];
      B[I] = Ys[I];
    }
    bool UseSin = SinNorm > 1e-9, UseCos = CosNorm > 1e-9;
    if (!UseSin && !UseCos)
      continue;
    size_t Cols = (UseSin ? 1 : 0) + (UseCos ? 1 : 0) + 1;
    if (N < Cols)
      continue;
    Matrix A(N, Cols);
    for (size_t I = 0; I < N; ++I) {
      size_t Col = 0;
      if (UseSin)
        A.at(I, Col++) = SinCol[I];
      if (UseCos)
        A.at(I, Col++) = CosCol[I];
      A.at(I, Col) = 1.0; // offset column
    }
    std::optional<std::vector<double>> X = leastSquares(A, B);
    if (!X)
      continue;
    size_t Col = 0;
    double P = UseSin ? (*X)[Col++] : 0.0;
    double Q = UseCos ? (*X)[Col++] : 0.0;
    double Offset = (*X)[Col];
    double Amp = std::hypot(P, Q);
    if (Amp < 1e-9)
      continue; // constant data belongs to the polynomial classes
    double PhaseDeg = std::atan2(Q, P) * 180.0 / 3.14159265358979323846;
    if (PhaseDeg < 0)
      PhaseDeg += 360.0;

    ClosedForm Form;
    Form.Kind = FormKind::Trig;
    Form.Module = "trig";
    Form.A = Amp;
    Form.B = Freq;
    Form.C = PhaseDeg;
    Form.D = Offset;
    Form.R2 = formR2(Form, Ys);
    if (Form.R2 < Opts.TrigR2Floor || !verify(Form, Ys))
      continue;

    // Nice the amplitude, phase, and offset where the band allows it.
    [&] {
      for (double NiceAmp : niceCandidates(Amp, Opts))
        for (double NicePhase : niceCandidates(PhaseDeg, Opts))
          for (double NiceOffset : niceCandidates(Offset, Opts)) {
            ClosedForm Snapped = Form;
            Snapped.A = NiceAmp;
            Snapped.C = NicePhase;
            Snapped.D = NiceOffset;
            if (verify(Snapped, Ys)) {
              Snapped.R2 = formR2(Snapped, Ys);
              Form = Snapped;
              return;
            }
          }
    }();
    if (!Best || Form.R2 > Best->R2)
      Best = Form;
  }
  return Best;
}

//===----------------------------------------------------------------------===//
// Multi-index linear fit (nested-loop inference)
//===----------------------------------------------------------------------===//

std::optional<std::vector<double>>
FunctionSolver::fitLinearN(const std::vector<std::vector<double>> &Indices,
                           const std::vector<double> &Ys) const {
  assert(Indices.size() == Ys.size() && "index/value size mismatch");
  const size_t N = Ys.size();
  if (N == 0)
    return std::nullopt;
  const size_t K = Indices[0].size();
  if (N < K + 1)
    return std::nullopt;

  Matrix A(N, K + 1);
  std::vector<double> B(N);
  for (size_t I = 0; I < N; ++I) {
    assert(Indices[I].size() == K && "ragged index matrix");
    A.at(I, 0) = 1.0;
    for (size_t J = 0; J < K; ++J)
      A.at(I, J + 1) = Indices[I][J];
    B[I] = Ys[I];
  }
  std::optional<std::vector<double>> Raw = leastSquares(A, B);
  if (!Raw)
    return std::nullopt;

  auto verifyN = [&](const std::vector<double> &Coef) {
    const double Band = epsilonBand(Opts.Epsilon);
    for (size_t I = 0; I < N; ++I) {
      double Fit = Coef[0];
      for (size_t J = 0; J < K; ++J)
        Fit += Coef[J + 1] * Indices[I][J];
      if (std::fabs(Fit - Ys[I]) > Band)
        return false;
    }
    return true;
  };

  // Nice each coefficient independently (the combinatorial sweep used for
  // low arities would explode here), then fall back to raw.
  std::vector<double> Niced = *Raw;
  for (double &Coef : Niced) {
    for (double Candidate : niceCandidates(Coef, Opts)) {
      double Saved = Coef;
      Coef = Candidate;
      if (verifyN(Niced))
        break;
      Coef = Saved;
    }
  }
  if (verifyN(Niced))
    return Niced;
  if (verifyN(*Raw))
    return Raw;
  return std::nullopt;
}

int64_t shrinkray::rotationPeriod(const ClosedForm &Form, double Tolerance) {
  if (Form.Kind != FormKind::Poly1 || Form.B == 0.0)
    return 0;
  double Period = 360.0 / Form.B;
  double Rounded = std::round(Period);
  if (Rounded < 2.0 || std::fabs(Period - Rounded) > Tolerance)
    return 0;
  return static_cast<int64_t>(Rounded);
}
