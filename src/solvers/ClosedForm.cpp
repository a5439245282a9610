//===-- solvers/ClosedForm.cpp - Fitted closed-form functions -------------===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of fitted closed forms (paper Sec. 4.1): evaluation for
/// epsilon-band verification and rendering to LambdaCAD arithmetic terms
/// over the loop index variable.
///
//===----------------------------------------------------------------------===//

#include "solvers/ClosedForm.h"

#include "cad/Sexp.h"
#include "linalg/Vec3.h"

#include <cmath>
#include <sstream>

using namespace shrinkray;

double ClosedForm::evaluate(double I) const {
  switch (Kind) {
  case FormKind::Constant:
    return C;
  case FormKind::Poly1:
    return B * I + C;
  case FormKind::Poly2:
    return A * I * I + B * I + C;
  case FormKind::Trig:
    return A * std::sin(degToRad(B * I + C)) + D;
  }
  assert(false && "unknown form kind");
  return 0.0;
}

static bool isIntegral(double V) {
  return V == std::floor(V) && std::fabs(V) < 1e15;
}

TermPtr shrinkray::numericLiteral(double Value) {
  if (isIntegral(Value))
    return tInt(static_cast<int64_t>(Value));
  return tFloat(Value);
}

TermPtr shrinkray::scaledIndexTerm(double Coeff, const TermPtr &Index) {
  if (Coeff == 1.0)
    return Index;
  if (Coeff == -1.0)
    return tSub(tInt(0), Index);
  return tMul(numericLiteral(Coeff), Index);
}

/// Appends `+ C` to \p Base, eliding zero and folding negative constants
/// into a subtraction.
static TermPtr addConstant(TermPtr Base, double C) {
  if (C == 0.0)
    return Base;
  if (C < 0.0)
    return tSub(std::move(Base), numericLiteral(-C));
  return tAdd(std::move(Base), numericLiteral(C));
}

TermPtr ClosedForm::toTerm(const TermPtr &Index,
                           int64_t RotationPeriod) const {
  switch (Kind) {
  case FormKind::Constant:
    return numericLiteral(C);
  case FormKind::Poly1: {
    if (B == 0.0)
      return numericLiteral(C);
    if (RotationPeriod != 0) {
      // Rotation heuristic: slope B == 360/RotationPeriod. Render the
      // periodic structure explicitly, folding a phase equal to one step
      // into the index (the paper's `360 * (i+1) / b` form).
      TermPtr Idx = Index;
      double Phase = C;
      if (std::fabs(C - B) < 1e-9) { // y = B*(i+1)
        Idx = tAdd(Index, tInt(1));
        Phase = 0.0;
      }
      TermPtr Core = tDiv(tMul(tInt(360), Idx), tInt(RotationPeriod));
      return addConstant(std::move(Core), Phase);
    }
    return addConstant(scaledIndexTerm(B, Index), C);
  }
  case FormKind::Poly2: {
    TermPtr Sq = tMul(Index, Index);
    TermPtr Lead = scaledIndexTerm(A, Sq);
    TermPtr WithLinear =
        B == 0.0 ? Lead : tAdd(std::move(Lead), scaledIndexTerm(B, Index));
    return addConstant(std::move(WithLinear), C);
  }
  case FormKind::Trig: {
    TermPtr Angle = addConstant(scaledIndexTerm(B, Index), C);
    TermPtr Sine = tSin(std::move(Angle));
    TermPtr Scaled =
        A == 1.0 ? std::move(Sine) : tMul(numericLiteral(A), std::move(Sine));
    return addConstant(std::move(Scaled), D);
  }
  }
  assert(false && "unknown form kind");
  return nullptr;
}

std::string ClosedForm::str() const {
  std::ostringstream Os;
  auto num = [&](double V) {
    if (isIntegral(V))
      Os << static_cast<int64_t>(V);
    else
      Os << formatFloat(V);
  };
  switch (Kind) {
  case FormKind::Constant:
    num(C);
    break;
  case FormKind::Poly1:
    num(B);
    Os << "*i + ";
    num(C);
    break;
  case FormKind::Poly2:
    num(A);
    Os << "*i^2 + ";
    num(B);
    Os << "*i + ";
    num(C);
    break;
  case FormKind::Trig:
    num(A);
    Os << "*sin(";
    num(B);
    Os << "*i + ";
    num(C);
    Os << ")";
    if (D != 0.0) {
      Os << " + ";
      num(D);
    }
    break;
  }
  return Os.str();
}

std::string_view ClosedForm::tableClass() const {
  switch (Kind) {
  case FormKind::Constant:
  case FormKind::Poly1:
    return "d1";
  case FormKind::Poly2:
    return "d2";
  case FormKind::Trig:
    return "theta";
  }
  assert(false && "unknown form kind");
  return "";
}
