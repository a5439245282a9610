//===-- solvers/ClosedForm.h - Fitted closed-form functions -----*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Closed forms inferred by the function solvers (paper Sec. 4.1): degree-1
/// and degree-2 polynomials in the list index, and sinusoids a*sin(b*i + c).
/// A closed form can evaluate itself (for epsilon-band verification) and
/// render itself as a LambdaCAD arithmetic term over an index variable.
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_SOLVERS_CLOSEDFORM_H
#define SHRINKRAY_SOLVERS_CLOSEDFORM_H

#include "cad/Term.h"

#include <string>

namespace shrinkray {

/// The function classes the solver searches (paper Sec. 4.1).
enum class FormKind {
  Constant, ///< c
  Poly1,    ///< b*i + c
  Poly2,    ///< a*i^2 + b*i + c
  Trig,     ///< a*sin(b*i + c) + d, angles in degrees
};

/// A fitted scalar closed form y(i).
struct ClosedForm {
  FormKind Kind = FormKind::Constant;
  /// Coefficients; meaning depends on Kind (A is the leading/amplitude
  /// coefficient, B the linear/frequency one, C the constant/phase, and D
  /// the additive offset of a sinusoid — Figure 19's `10 + 7.07*sin(...)`).
  double A = 0.0, B = 0.0, C = 0.0, D = 0.0;
  /// Coefficient of determination of the fit on its defining data.
  double R2 = 1.0;
  /// The fit that produced the form ("poly", "trig", "linear" for the
  /// multi-index fits); empty for hand-built forms. Reported through
  /// InferenceRecord so Table 1 rows are attributable to a fit.
  const char *Module = "";

  double evaluate(double I) const;

  /// Renders as an arithmetic term over \p Index (e.g. `2*(i) + 2`), using
  /// integer literals for integral coefficients and eliding zero terms.
  ///
  /// \p RotationPeriod, when nonzero, renders a Poly1 form with slope
  /// 360/RotationPeriod as `360 * i / RotationPeriod (+ phase)` — the
  /// paper's rotation heuristic (Sec. 4.1 "Rotation").
  TermPtr toTerm(const TermPtr &Index, int64_t RotationPeriod = 0) const;

  /// Human-readable rendering for reports, e.g. "6*i + 6".
  std::string str() const;

  /// The `f` column classification of Table 1: "d1", "d2", or "theta".
  std::string_view tableClass() const;
};

/// Builds `Coeff * Index` with the usual simplifications (0, 1, -1), using
/// an Int literal when \p Coeff is integral.
TermPtr scaledIndexTerm(double Coeff, const TermPtr &Index);

/// A numeric literal: Int when integral, Float otherwise.
TermPtr numericLiteral(double Value);

} // namespace shrinkray

#endif // SHRINKRAY_SOLVERS_CLOSEDFORM_H
