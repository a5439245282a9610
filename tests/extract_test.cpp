//===-- tests/extract_test.cpp - Extraction and top-k tests ---------------===//

#include "egraph/Extract.h"
#include "egraph/Rewrite.h"
#include "egraph/Runner.h"
#include "oracles/ReferenceExtract.h"

#include <gtest/gtest.h>

using namespace shrinkray;

namespace {

/// The one-best program of class \p Id: the single candidate of a k = 1
/// extraction. Fails the test (and returns Empty) when there is none.
RankedTerm oneBest(const EGraph &G, const CostFn &Cost, EClassId Id) {
  std::vector<RankedTerm> Ranked = KBestExtractor(G, Cost, 1).extract(Id);
  EXPECT_EQ(Ranked.size(), 1u) << "class " << Id;
  return Ranked.empty() ? RankedTerm{tEmpty(), 0.0} : Ranked.front();
}

} // namespace

TEST(ExtractTest, SingleTermRoundTrips) {
  EGraph G;
  TermPtr T = tUnion(tTranslate(1, 2, 3, tUnit()), tSphere());
  EClassId Root = G.addTerm(T);
  G.rebuild();
  AstSizeCost Cost;
  RankedTerm Best = oneBest(G, Cost, Root);
  EXPECT_NEAR(Best.Cost, static_cast<double>(termSize(T)), 1e-6);
  // Numeric literals may extract as Int where the input spelled Float.
  EXPECT_TRUE(termApproxEquals(Best.T, T, 0.0));
}

TEST(ExtractTest, PicksCheaperAlternative) {
  EGraph G;
  EClassId Root = G.addTerm(tUnion(tUnit(), tUnit()));
  EClassId UnitId = G.addTerm(tUnit());
  G.merge(Root, UnitId);
  G.rebuild();
  AstSizeCost Cost;
  RankedTerm Best = oneBest(G, Cost, Root);
  EXPECT_DOUBLE_EQ(Best.Cost, 1.0);
  EXPECT_EQ(Best.T->kind(), OpKind::Unit);
}

TEST(ExtractTest, HandlesCyclesGracefully) {
  // Build a cyclic class: c = Union(c, Unit) merged with Unit. Extraction
  // must still terminate and pick the leaf.
  EGraph G;
  EClassId UnitId = G.addTerm(tUnit());
  EClassId Cyc = G.add(ENode(Op(OpKind::Union), {UnitId, UnitId}));
  G.merge(Cyc, UnitId);
  G.rebuild();
  AstSizeCost Cost;
  EXPECT_EQ(oneBest(G, Cost, Cyc).T->kind(), OpKind::Unit);
}

TEST(ExtractTest, ConstantFoldingShrinksExtraction) {
  EGraph G;
  EClassId Root = G.addTerm(tAdd(tFloat(1.5), tFloat(2.5)));
  G.rebuild();
  AstSizeCost Cost;
  RankedTerm Best = oneBest(G, Cost, Root);
  // The materialized literal (1 node) beats Add(_, _) (3 nodes).
  EXPECT_DOUBLE_EQ(Best.Cost, 1.0);
  EXPECT_DOUBLE_EQ(Best.T->op().numericValue(), 4.0);
}

TEST(ExtractTest, SharedSubtreesExtractConsistently) {
  EGraph G;
  TermPtr Shared = tTranslate(1, 2, 3, tUnit());
  EClassId Root = G.addTerm(tUnion(Shared, Shared));
  G.rebuild();
  AstSizeCost Cost;
  TermPtr Out = oneBest(G, Cost, Root).T;
  EXPECT_TRUE(termEquals(Out->child(0), Out->child(1)));
}

namespace {

/// A cost function that charges extra for Union to force reranking.
class AntiUnionCost : public CostFn {
public:
  double cost(const Op &O, const std::vector<double> &Kids) const final {
    double Sum = O.kind() == OpKind::Union ? 100.0 : 1.0;
    for (double C : Kids)
      Sum += C;
    return Sum;
  }
};

} // namespace

TEST(ExtractTest, CostFunctionChangesChoice) {
  EGraph G;
  EClassId Root = G.addTerm(tUnion(tUnit(), tUnit()));
  EClassId Inter = G.addTerm(tInter(tUnit(), tUnit()));
  G.merge(Root, Inter);
  G.rebuild();
  AntiUnionCost Cost;
  EXPECT_EQ(oneBest(G, Cost, Root).T->kind(), OpKind::Inter);
}

TEST(KBestTest, SingleCandidateGraph) {
  EGraph G;
  TermPtr T = tTranslate(1, 2, 3, tUnit());
  EClassId Root = G.addTerm(T);
  G.rebuild();
  AstSizeCost Cost;
  KBestExtractor Ex(G, Cost, 5);
  auto Ranked = Ex.extract(Root);
  ASSERT_EQ(Ranked.size(), 1u);
  EXPECT_TRUE(termApproxEquals(Ranked[0].T, T, 0.0));
}

TEST(KBestTest, ReturnsDistinctAlternativesInCostOrder) {
  EGraph G;
  EClassId Root = G.addTerm(tUnion(tUnit(), tSphere()));
  G.rebuild();
  Rewrite Comm("comm", "(Union ?a ?b)", "(Union ?b ?a)");
  Comm.run(G);
  AstSizeCost Cost;
  KBestExtractor Ex(G, Cost, 5);
  auto Ranked = Ex.extract(Root);
  ASSERT_EQ(Ranked.size(), 2u);
  EXPECT_DOUBLE_EQ(Ranked[0].Cost, 3.0);
  EXPECT_DOUBLE_EQ(Ranked[1].Cost, 3.0);
  EXPECT_FALSE(termEquals(Ranked[0].T, Ranked[1].T));
}

TEST(KBestTest, FirstCandidateMatchesOneBest) {
  EGraph G;
  EClassId Root =
      G.addTerm(tUnion(tUnit(), tUnion(tSphere(), tCylinder())));
  G.rebuild();
  std::vector<Rewrite> Rules;
  Rules.emplace_back("comm", "(Union ?a ?b)", "(Union ?b ?a)");
  Rules.emplace_back("idem-intro", "(Union ?a ?b)", "(Union ?a (Union ?b ?b))");
  Runner R(RunnerLimits{.IterLimit = 3});
  R.run(G, Rules);
  AstSizeCost Cost;
  ReferenceExtractor One(G, Cost);
  KBestExtractor Many(G, Cost, 4);
  auto Ranked = Many.extract(Root);
  ASSERT_FALSE(Ranked.empty());
  EXPECT_DOUBLE_EQ(Ranked[0].Cost, *One.bestCost(Root));
}

TEST(KBestTest, CandidatesAreDistinctAndSorted) {
  EGraph G;
  EClassId Root =
      G.addTerm(tUnion(tUnit(), tUnion(tSphere(), tCylinder())));
  G.rebuild();
  std::vector<Rewrite> Rules;
  Rules.emplace_back("comm", "(Union ?a ?b)", "(Union ?b ?a)");
  Runner R(RunnerLimits{.IterLimit = 4});
  R.run(G, Rules);
  AstSizeCost Cost;
  KBestExtractor Ex(G, Cost, 8);
  auto Ranked = Ex.extract(Root);
  ASSERT_GE(Ranked.size(), 4u);
  for (size_t I = 1; I < Ranked.size(); ++I) {
    EXPECT_LE(Ranked[I - 1].Cost, Ranked[I].Cost);
    for (size_t J = 0; J < I; ++J)
      EXPECT_FALSE(termEquals(Ranked[I].T, Ranked[J].T));
  }
}

TEST(RunnerTest, SaturatesOnFixpoint) {
  EGraph G;
  G.addTerm(tUnion(tUnit(), tSphere()));
  G.rebuild();
  std::vector<Rewrite> Rules;
  Rules.emplace_back("comm", "(Union ?a ?b)", "(Union ?b ?a)");
  Runner R;
  RunnerReport Report = R.run(G, Rules);
  EXPECT_EQ(Report.Stop, StopReason::Saturated);
  EXPECT_LE(Report.numIterations(), 3u);
}

namespace {

/// A rule that genuinely never saturates: each firing mints a fresh
/// constant, so hash-consing can never close the loop.
Rewrite divergingRule() {
  return Rewrite("diverge", "(Translate (Vec3 ?x ?y ?z) ?c)",
                 "(Translate (Vec3 (Add ?x 1.0) ?y ?z) "
                 "(Translate (Vec3 (Sub ?x (Add ?x 1.0)) ?y ?z) ?c))");
}

} // namespace

TEST(RunnerTest, IterLimitStops) {
  EGraph G;
  G.addTerm(tTranslate(1, 2, 3, tUnit()));
  G.rebuild();
  std::vector<Rewrite> Rules;
  Rules.push_back(divergingRule());
  Runner R(RunnerLimits{.IterLimit = 2, .NodeLimit = 1000000000});
  RunnerReport Report = R.run(G, Rules);
  EXPECT_EQ(Report.Stop, StopReason::IterLimit);
  EXPECT_EQ(Report.numIterations(), 2u);
}

TEST(RunnerTest, NodeLimitStops) {
  EGraph G;
  G.addTerm(tTranslate(1, 2, 3, tUnit()));
  G.rebuild();
  std::vector<Rewrite> Rules;
  Rules.push_back(divergingRule());
  Runner R(RunnerLimits{.IterLimit = 500, .NodeLimit = 64});
  RunnerReport Report = R.run(G, Rules);
  EXPECT_EQ(Report.Stop, StopReason::NodeLimit);
}

TEST(RunnerTest, ReportsIterationStatistics) {
  EGraph G;
  G.addTerm(tUnion(tUnit(), tSphere()));
  G.rebuild();
  std::vector<Rewrite> Rules;
  Rules.emplace_back("comm", "(Union ?a ?b)", "(Union ?b ?a)");
  Runner R;
  RunnerReport Report = R.run(G, Rules);
  ASSERT_FALSE(Report.Iterations.empty());
  EXPECT_GT(Report.Iterations[0].Matches, 0u);
  EXPECT_GT(Report.Iterations[0].Nodes, 0u);
  EXPECT_GE(Report.Seconds, 0.0);
}
