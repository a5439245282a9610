//===-- tests/solver_test.cpp - Function solver tests ---------------------===//

#include "solvers/FunctionSolver.h"

#include "cad/Sexp.h"
#include "linalg/Vec3.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace shrinkray;

namespace {

std::vector<double> sample(FormKind Kind, double A, double B, double C,
                           size_t N) {
  ClosedForm F;
  F.Kind = Kind;
  F.A = A;
  F.B = B;
  F.C = C;
  std::vector<double> Out(N);
  for (size_t I = 0; I < N; ++I)
    Out[I] = F.evaluate(static_cast<double>(I));
  return Out;
}

} // namespace

TEST(ClosedFormTest, EvaluateAllKinds) {
  ClosedForm Constant{FormKind::Constant, 0, 0, 5.0};
  EXPECT_DOUBLE_EQ(Constant.evaluate(10), 5.0);
  ClosedForm Line{FormKind::Poly1, 0, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(Line.evaluate(3), 7.0);
  ClosedForm Quad{FormKind::Poly2, 1.0, 0.0, -4.0};
  EXPECT_DOUBLE_EQ(Quad.evaluate(3), 5.0);
  ClosedForm Trig{FormKind::Trig, 2.0, 90.0, 0.0};
  EXPECT_NEAR(Trig.evaluate(1), 2.0, 1e-12);
}

TEST(ClosedFormTest, ToTermLineRendersCompactly) {
  ClosedForm Line{FormKind::Poly1, 0, 2.0, 2.0};
  TermPtr T = Line.toTerm(tVar("i"));
  EXPECT_EQ(printSexp(T), "(Add (Mul 2 (Var i)) 2)");
}

TEST(ClosedFormTest, ToTermElidesZeroAndOne) {
  ClosedForm Id{FormKind::Poly1, 0, 1.0, 0.0};
  EXPECT_EQ(printSexp(Id.toTerm(tVar("i"))), "(Var i)");
  ClosedForm NegConst{FormKind::Poly1, 0, 2.0, -1.0};
  EXPECT_EQ(printSexp(NegConst.toTerm(tVar("i"))),
            "(Sub (Mul 2 (Var i)) 1)");
}

TEST(ClosedFormTest, ToTermRotationHeuristic) {
  // Gear teeth: y = 6*(i+1); rendered as 360 * (i+1) / 60.
  ClosedForm Rot{FormKind::Poly1, 0, 6.0, 6.0};
  TermPtr T = Rot.toTerm(tVar("i"), /*RotationPeriod=*/60);
  EXPECT_EQ(printSexp(T),
            "(Div (Mul 360 (Add (Var i) 1)) 60)");
}

TEST(ClosedFormTest, ToTermRotationWithZeroPhase) {
  ClosedForm Rot{FormKind::Poly1, 0, 6.0, 0.0};
  TermPtr T = Rot.toTerm(tVar("i"), /*RotationPeriod=*/60);
  EXPECT_EQ(printSexp(T), "(Div (Mul 360 (Var i)) 60)");
}

TEST(ClosedFormTest, TableClassification) {
  EXPECT_EQ((ClosedForm{FormKind::Poly1, 0, 1, 0}).tableClass(), "d1");
  EXPECT_EQ((ClosedForm{FormKind::Poly2, 1, 1, 0}).tableClass(), "d2");
  EXPECT_EQ((ClosedForm{FormKind::Trig, 1, 90, 0}).tableClass(), "theta");
}

TEST(SolverTest, ExactLine) {
  FunctionSolver S;
  auto F = S.solveSequence(sample(FormKind::Poly1, 0, 2.0, 2.0, 5));
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(F->Kind, FormKind::Poly1);
  EXPECT_DOUBLE_EQ(F->B, 2.0);
  EXPECT_DOUBLE_EQ(F->C, 2.0);
}

TEST(SolverTest, ConstantSequencePrefersConstant) {
  FunctionSolver S;
  auto F = S.solveSequence({125.0, 125.0, 125.0, 125.0});
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(F->Kind, FormKind::Constant);
  EXPECT_DOUBLE_EQ(F->C, 125.0);
}

TEST(SolverTest, PaperNoisyExample) {
  // Sec. 4.1: [5.001, 10.00001, 14.9998, 20.0] with eps = 0.001 must yield
  // 5*(i+1), i.e. slope 5, intercept 5.
  FunctionSolver S;
  auto F = S.solveSequence({5.001, 10.00001, 14.9998, 20.0});
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(F->Kind, FormKind::Poly1);
  EXPECT_DOUBLE_EQ(F->B, 5.0);
  EXPECT_DOUBLE_EQ(F->C, 5.0);
}

TEST(SolverTest, NoiseBeyondEpsilonRejectsLine) {
  FunctionSolver S;
  // 0.1 of noise >> eps: no polynomial should verify...
  auto F = S.fitPoly({5.1, 10.0, 14.9, 20.0}, 1);
  EXPECT_FALSE(F.has_value());
}

TEST(SolverTest, QuadraticSequence) {
  FunctionSolver S;
  auto F = S.solveSequence(sample(FormKind::Poly2, 1.5, -2.0, 3.0, 6));
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(F->Kind, FormKind::Poly2);
  EXPECT_DOUBLE_EQ(F->A, 1.5);
  EXPECT_DOUBLE_EQ(F->B, -2.0);
  EXPECT_DOUBLE_EQ(F->C, 3.0);
}

TEST(SolverTest, LinePreferredOverQuadratic) {
  // A line is also a degenerate quadratic; the simpler class must win.
  FunctionSolver S;
  auto F = S.solveSequence(sample(FormKind::Poly1, 0, 3.0, 1.0, 6));
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(F->Kind, FormKind::Poly1);
}

TEST(SolverTest, TrigSequenceQuarterTurns) {
  // Paper example: x components [-1, -1, 1, 1] == sqrt2*sin(90 i + 225)...
  // our solver finds an equivalent sinusoid within the band.
  FunctionSolver S;
  std::vector<double> Ys = {-1.0, -1.0, 1.0, 1.0};
  auto F = S.fitTrig(Ys);
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(F->Kind, FormKind::Trig);
  for (size_t I = 0; I < Ys.size(); ++I)
    EXPECT_NEAR(F->evaluate(static_cast<double>(I)), Ys[I], 1e-3);
}

TEST(SolverTest, TrigHexFlowerPattern) {
  // Figure 19: 7.07 * sin(90 i + 315). With only 4 samples a quadratic
  // aliases the sinusoid, so solveAll must report BOTH forms (this is what
  // powers the paper's diversity result, Sec. 6.3).
  FunctionSolver S;
  std::vector<double> Ys = sample(FormKind::Trig, 7.07, 90.0, 315.0, 4);
  std::vector<ClosedForm> Forms = S.solveAll(Ys);
  bool HasTrig = false;
  for (const ClosedForm &F : Forms) {
    if (F.Kind != FormKind::Trig)
      continue;
    HasTrig = true;
    for (int I = 0; I < 4; ++I)
      EXPECT_NEAR(F.evaluate(I), 7.07 * std::sin(degToRad(90.0 * I + 315.0)),
                  1e-3);
  }
  EXPECT_TRUE(HasTrig);
}

TEST(SolverTest, SolveAllReportsPolyAndTrigWhenAliased) {
  FunctionSolver S;
  std::vector<ClosedForm> Forms =
      S.solveAll(sample(FormKind::Trig, 5.0, 90.0, 315.0, 4));
  ASSERT_GE(Forms.size(), 2u);
  EXPECT_NE(Forms[0].Kind, FormKind::Trig); // simplest (poly) first
  EXPECT_EQ(Forms.back().Kind, FormKind::Trig);
}

TEST(SolverTest, SolveAllConstantSubsumes) {
  FunctionSolver S;
  std::vector<ClosedForm> Forms = S.solveAll({3.0, 3.0, 3.0, 3.0});
  ASSERT_EQ(Forms.size(), 1u);
  EXPECT_EQ(Forms[0].Kind, FormKind::Constant);
}

TEST(SolverTest, TrigRejectsAperiodicData) {
  FunctionSolver S;
  // Monotone data cannot be a pure sinusoid within eps.
  EXPECT_FALSE(S.fitTrig({0.0, 10.0, 25.0, 70.0, 300.0}).has_value());
}

TEST(SolverTest, SolveSequenceFallsBackToTrig) {
  FunctionSolver S;
  auto F = S.solveSequence(sample(FormKind::Trig, 2.0, 120.0, 30.0, 6));
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(F->Kind, FormKind::Trig);
}

TEST(SolverTest, EmptySequenceFails) {
  FunctionSolver S;
  EXPECT_FALSE(S.solveSequence({}).has_value());
}

TEST(SolverTest, SingletonIsConstant) {
  FunctionSolver S;
  auto F = S.solveSequence({42.0});
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(F->Kind, FormKind::Constant);
  EXPECT_DOUBLE_EQ(F->C, 42.0);
}

TEST(SolverTest, NicingSnapsToSimpleRationals) {
  FunctionSolver S;
  // Slope 0.5 with slight noise: snapped to exactly 1/2.
  std::vector<double> Ys;
  for (int I = 0; I < 8; ++I)
    Ys.push_back(0.5 * I + 0.25 + (I % 2 ? 4e-4 : -4e-4));
  auto F = S.fitPoly(Ys, 1);
  ASSERT_TRUE(F.has_value());
  EXPECT_DOUBLE_EQ(F->B, 0.5);
  EXPECT_DOUBLE_EQ(F->C, 0.25);
}

TEST(SolverTest, VerifyRespectsEpsilon) {
  FunctionSolver S;
  ClosedForm Line{FormKind::Poly1, 0, 2.0, 0.0};
  EXPECT_TRUE(S.verify(Line, {0.0005, 2.0, 3.9995}));
  EXPECT_FALSE(S.verify(Line, {0.002, 2.0, 4.0}));
}

TEST(SolverTest, RotationPeriodDetection) {
  ClosedForm Gear{FormKind::Poly1, 0, 6.0, 6.0};
  EXPECT_EQ(rotationPeriod(Gear), 60);
  ClosedForm Slots{FormKind::Poly1, 0, 30.0, 0.0};
  EXPECT_EQ(rotationPeriod(Slots), 12);
  ClosedForm NonDivisor{FormKind::Poly1, 0, 7.0, 0.0};
  EXPECT_EQ(rotationPeriod(NonDivisor), 0);
  ClosedForm Flat{FormKind::Poly1, 0, 0.0, 3.0};
  EXPECT_EQ(rotationPeriod(Flat), 0);
}

TEST(SolverTest, Linear2RegularGrid) {
  // Figure 14: x = 24 i - 12 over a 2x2 grid.
  FunctionSolver S;
  std::vector<std::vector<double>> Idx = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  std::vector<double> Xs = {-12, -12, 12, 12};
  auto F = S.fitLinearN(Idx, Xs);
  ASSERT_TRUE(F.has_value());
  ASSERT_EQ(F->size(), 3u);
  EXPECT_DOUBLE_EQ((*F)[0], -12.0);
  EXPECT_DOUBLE_EQ((*F)[1], 24.0);
  EXPECT_DOUBLE_EQ((*F)[2], 0.0);
}

TEST(SolverTest, Linear2BothIndices) {
  FunctionSolver S;
  std::vector<std::vector<double>> Idx;
  std::vector<double> Ys;
  for (int I = 0; I < 3; ++I)
    for (int J = 0; J < 4; ++J) {
      Idx.push_back({static_cast<double>(I), static_cast<double>(J)});
      Ys.push_back(3.0 * I - 2.0 * J + 7.0);
    }
  auto F = S.fitLinearN(Idx, Ys);
  ASSERT_TRUE(F.has_value());
  ASSERT_EQ(F->size(), 3u);
  EXPECT_DOUBLE_EQ((*F)[0], 7.0);
  EXPECT_DOUBLE_EQ((*F)[1], 3.0);
  EXPECT_DOUBLE_EQ((*F)[2], -2.0);
}

TEST(SolverTest, Linear2RejectsNonPlanarData) {
  FunctionSolver S;
  std::vector<std::vector<double>> Idx = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  std::vector<double> Ys = {0.0, 1.0, 2.0, 50.0};
  EXPECT_FALSE(S.fitLinearN(Idx, Ys).has_value());
}

TEST(SolverTest, Linear3Grid) {
  // A triply nested loop over a 2x4x5 grid: y = 3 + 40 i + 12.5 j - 6 k,
  // recovered with every coefficient snapped to its exact value.
  FunctionSolver S;
  std::vector<std::vector<double>> Idx;
  std::vector<double> Ys;
  for (int I = 0; I < 2; ++I)
    for (int J = 0; J < 4; ++J)
      for (int K = 0; K < 5; ++K) {
        Idx.push_back({static_cast<double>(I), static_cast<double>(J),
                       static_cast<double>(K)});
        Ys.push_back(3.0 + 40.0 * I + 12.5 * J - 6.0 * K);
      }
  auto F = S.fitLinearN(Idx, Ys);
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(*F, (std::vector<double>{3.0, 40.0, 12.5, -6.0}));
}

TEST(SolverTest, CustomEpsilonWidensBand) {
  SolverOptions Opts;
  Opts.Epsilon = 0.2;
  FunctionSolver S(Opts);
  auto F = S.fitPoly({5.1, 10.0, 14.9, 20.0}, 1);
  ASSERT_TRUE(F.has_value());
  EXPECT_DOUBLE_EQ(F->B, 5.0);
}
