//===-- tests/extract_engine_test.cpp - K-best extraction engine ----------===//
//
// Differential and adversarial coverage for the k-best extraction engine:
//
//  * the raw parent lists it walks (EClass::Parents) stay truthful under
//    merges and repair, stale, duplicate and self-loop entries included;
//  * the k-best head cost equals the one-best cost of the fixed-point
//    ReferenceExtractor on every class of every bench model's saturated
//    e-graph;
//  * k-best engine vs ReferenceKBestExtractor: bit-identical candidate
//    lists, plus the distinctness/ordering properties the paper's top-k
//    contract requires;
//  * value-level deduplication: Int/Float respellings never masquerade as
//    program diversity.
//
//===----------------------------------------------------------------------===//

#include "egraph/Extract.h"
#include "egraph/Runner.h"
#include "models/Models.h"
#include "oracles/ReferenceExtract.h"
#include "rewrites/Rules.h"
#include "support/Rng.h"
#include "synth/Cost.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace shrinkray;

namespace {

/// Saturates \p T's e-graph with the pipeline rules under test-sized fuel.
EClassId saturate(EGraph &G, const TermPtr &T, size_t Iters = 24) {
  EClassId Root = G.addTerm(T);
  G.rebuild();
  Runner R(RunnerLimits{.IterLimit = Iters,
                        .NodeLimit = 60000,
                        .TimeLimitSec = 30.0});
  R.run(G, pipelineRules());
  return Root;
}

/// Asserts that every class's k-best head costs exactly the fixed-point
/// oracle's one-best cost, and that the classes without a candidate are
/// exactly those without a finite cost.
void expectHeadsMatchOneBest(const EGraph &G, const KBestExtractor &Engine,
                             const ReferenceExtractor &Oracle,
                             const std::string &Tag) {
  for (EClassId Id : G.classIds()) {
    std::vector<RankedTerm> Ranked = Engine.extract(Id);
    std::optional<double> Best = Oracle.bestCost(Id);
    ASSERT_EQ(!Ranked.empty(), Best.has_value())
        << Tag << ": extractability differs at class " << Id;
    if (Best) {
      ASSERT_EQ(Ranked.front().Cost, *Best)
          << Tag << ": head cost differs at class " << Id;
    }
  }
}

/// Asserts two k-best extractions agree bit-for-bit on every class.
template <typename EngineT, typename OracleT>
void expectKBestIdentical(const EGraph &G, const EngineT &Engine,
                          const OracleT &Oracle, const std::string &Tag) {
  for (EClassId Id : G.classIds()) {
    std::vector<RankedTerm> A = Engine.extract(Id);
    std::vector<RankedTerm> B = Oracle.extract(Id);
    ASSERT_EQ(A.size(), B.size())
        << Tag << ": candidate count differs at class " << Id;
    for (size_t I = 0; I < A.size(); ++I) {
      ASSERT_EQ(A[I].Cost, B[I].Cost)
          << Tag << ": cost of candidate " << I << " differs at class " << Id;
      ASSERT_TRUE(termEquals(A[I].T, B[I].T))
          << Tag << ": candidate " << I << " differs at class " << Id;
    }
  }
}

/// A merge-rich pool graph whose roots carry no constant-folding analysis
/// (so arbitrary pool merges never violate the merged-constants invariant).
std::vector<EClassId> buildMergePool(EGraph &G) {
  std::vector<EClassId> Pool;
  for (int I = 0; I < 20; ++I) {
    TermPtr Leaf = I % 2 ? tUnit() : tSphere();
    TermPtr T = tTranslate(static_cast<double>(I % 5), 0, 0, Leaf);
    if (I % 3 == 0)
      T = tUnion(T, tEmpty());
    if (I % 4 == 0)
      T = tScale(2, 2, 2, T);
    Pool.push_back(G.addTerm(T));
  }
  G.rebuild();
  return Pool;
}

} // namespace

//===----------------------------------------------------------------------===//
// Parent index
//===----------------------------------------------------------------------===//

TEST(ParentIndexTest, LeafClassListsItsReferencingNodes) {
  EGraph G;
  EClassId Root = G.addTerm(tUnion(tTranslate(1, 2, 3, tUnit()), tUnit()));
  EClassId Unit = G.addTerm(tUnit());
  G.rebuild();

  const auto &Parents = G.eclass(Unit).Parents;
  // Unit is referenced by the Translate node and by the Union root.
  ASSERT_EQ(Parents.size(), 2u);
  for (const auto &[Node, Class] : Parents) {
    bool IsTranslate = Node.kind() == OpKind::Translate;
    bool IsUnion = Node.kind() == OpKind::Union;
    EXPECT_TRUE(IsTranslate || IsUnion);
    if (IsUnion) {
      EXPECT_EQ(G.find(Class), G.find(Root));
    }
  }
}

TEST(ParentIndexTest, MergeUnionsParentSetsAndCompactsDuplicates) {
  EGraph G;
  EClassId U = G.addTerm(tUnion(tUnit(), tSphere()));
  EClassId D = G.addTerm(tDiff(tSphere(), tUnit()));
  EClassId Unit = G.addTerm(tUnit());
  EClassId Sphere = G.addTerm(tSphere());
  (void)U;
  (void)D;
  G.merge(Unit, Sphere); // Union(a,a) and Diff(a,a): parents become congruent
  G.rebuild();
  ASSERT_EQ(G.checkInvariants(), "");

  // The merged class's entries name both parent nodes, each of which now
  // has the merged class as both children.
  std::vector<ENode> Distinct;
  for (const auto &[Node, Class] : G.eclass(Unit).Parents) {
    ENode Canon = G.canonicalize(Node);
    bool Refers = false;
    for (EClassId Kid : Canon.Children)
      Refers |= G.find(Kid) == G.find(Unit);
    EXPECT_TRUE(Refers);
    EXPECT_EQ(G.lookup(Canon), std::optional<EClassId>(G.find(Class)));
    if (std::find(Distinct.begin(), Distinct.end(), Canon) == Distinct.end())
      Distinct.push_back(std::move(Canon));
  }
  EXPECT_EQ(Distinct.size(), 2u);
}

TEST(ParentIndexTest, SelfReferentialClassIsItsOwnParent) {
  EGraph G;
  EClassId Root = G.addTerm(tUnion(tUnit(), tEmpty()));
  EClassId Unit = G.addTerm(tUnit());
  G.merge(Root, Unit);
  G.rebuild();
  ASSERT_EQ(G.checkInvariants(), "");

  bool SelfLoop = false;
  for (const auto &[Node, Class] : G.eclass(Root).Parents) {
    (void)Node;
    SelfLoop |= G.find(Class) == G.find(Root);
  }
  EXPECT_TRUE(SelfLoop);
}

TEST(ParentIndexTest, InvariantHoldsUnderAdversarialMerges) {
  // Random pool merges leave stale, duplicate and self-loop parent
  // entries; after every rebuild the k-best engine, which walks those raw
  // entries, must still agree with the fixed-point oracle, which never
  // reads them.
  AstSizeCost Cost;
  for (int Seed = 0; Seed < 6; ++Seed) {
    Rng R(static_cast<uint64_t>(Seed) * 601 + 7);
    EGraph G;
    std::vector<EClassId> Pool = buildMergePool(G);
    auto check = [&](const std::string &Tag) {
      ASSERT_EQ(G.checkInvariants(), "") << Tag;
      expectKBestIdentical(G, KBestExtractor(G, Cost, 3),
                           ReferenceKBestExtractor(G, Cost, 3), Tag);
    };
    for (int Step = 0; Step < 15; ++Step) {
      G.merge(Pool[R.nextBelow(Pool.size())], Pool[R.nextBelow(Pool.size())]);
      if (Step % 3 == 0) {
        G.rebuild();
        check("seed " + std::to_string(Seed) + " step " +
              std::to_string(Step));
      }
    }
    G.rebuild();
    check("seed " + std::to_string(Seed));
  }
}

//===----------------------------------------------------------------------===//
// Differential: the engine vs the fixed-point oracles, every bench model
//===----------------------------------------------------------------------===//

TEST(ExtractDifferentialTest, OneBestMatchesOracleOnAllBenchModels) {
  AstSizeCost Cost;
  for (const models::BenchmarkModel &M : models::allModels()) {
    EGraph G;
    saturate(G, M.FlatCsg);
    KBestExtractor Engine(G, Cost, 1);
    ReferenceExtractor Oracle(G, Cost);
    expectHeadsMatchOneBest(G, Engine, Oracle, M.Name);
  }
}

TEST(ExtractDifferentialTest, KBestMatchesOracleOnAllBenchModels) {
  AstSizeCost Cost;
  for (const models::BenchmarkModel &M : models::allModels()) {
    EGraph G;
    saturate(G, M.FlatCsg);
    KBestExtractor Engine(G, Cost, 5);
    ReferenceKBestExtractor Oracle(G, Cost, 5);
    expectKBestIdentical(G, Engine, Oracle, M.Name);
  }
}

TEST(ExtractDifferentialTest, RewardLoopsCostAgreesOnTailModel) {
  // The reward-loops cost reweights exactly the operators loop synthesis
  // inserts; run the differential on one structure-rich model with it.
  RewardLoopsCost Cost;
  EGraph G;
  saturate(G, models::modelByName("3432939:nintendo-slot").FlatCsg);
  KBestExtractor Engine(G, Cost, 5);
  ReferenceExtractor Oracle(G, Cost);
  expectHeadsMatchOneBest(G, Engine, Oracle, "nintendo-slot/reward-loops");
  ReferenceKBestExtractor KOracle(G, Cost, 5);
  expectKBestIdentical(G, Engine, KOracle, "nintendo-slot/reward-loops");
}

TEST(ExtractDifferentialTest, DepthCostAgreesOnCyclicGraph) {
  // AstDepthCost produces frequent exact ties (max + 1), stressing the
  // deterministic tie-break; include a self-referential class.
  AstDepthCost Cost;
  EGraph G;
  EClassId Root = G.addTerm(tUnion(tUnit(), tUnion(tSphere(), tEmpty())));
  EClassId Unit = G.addTerm(tUnit());
  G.merge(Root, Unit);
  G.rebuild();
  KBestExtractor Engine(G, Cost, 5);
  ReferenceExtractor Oracle(G, Cost);
  expectHeadsMatchOneBest(G, Engine, Oracle, "depth/cyclic");
  expectKBestIdentical(G, Engine, ReferenceKBestExtractor(G, Cost, 5),
                       "depth/cyclic");
  EXPECT_EQ(Engine.extract(Root).front().T->kind(), OpKind::Unit);
}

//===----------------------------------------------------------------------===//
// K-best contract: ordering, distinctness, head
//===----------------------------------------------------------------------===//

TEST(KBestContractTest, CandidatesSortedDistinctAndHeadedByOneBest) {
  AstSizeCost Cost;
  for (const char *Name : {"3362402:gear", "3432939:nintendo-slot"}) {
    EGraph G;
    EClassId Root = saturate(G, models::modelByName(Name).FlatCsg);
    KBestExtractor Engine(G, Cost, 5);
    ReferenceExtractor OneBest(G, Cost);

    std::vector<RankedTerm> Ranked = Engine.extract(Root);
    ASSERT_FALSE(Ranked.empty()) << Name;
    EXPECT_EQ(Ranked[0].Cost, *OneBest.bestCost(Root)) << Name;
    for (size_t I = 1; I < Ranked.size(); ++I) {
      EXPECT_LE(Ranked[I - 1].Cost, Ranked[I].Cost) << Name;
      for (size_t J = 0; J < I; ++J)
        EXPECT_FALSE(termApproxEquals(Ranked[I].T, Ranked[J].T, 0.0))
            << Name << ": candidates " << J << " and " << I
            << " are value-equal respellings";
    }
  }
}

TEST(KBestContractTest, IntFloatRespellingsAreNotDiversity) {
  // A numeric class holds both the Float(5.0) spelling and the analysis-
  // materialized Int(5) leaf; k-best must collapse them to one program.
  EGraph G;
  EClassId Num = G.addTerm(tFloat(5.0));
  G.rebuild();
  ASSERT_GE(G.eclass(Num).Nodes.size(), 2u); // Float + materialized Int
  AstSizeCost Cost;
  KBestExtractor Engine(G, Cost, 5);
  std::vector<RankedTerm> Ranked = Engine.extract(Num);
  ASSERT_EQ(Ranked.size(), 1u);
  EXPECT_EQ(Ranked[0].T->kind(), OpKind::Int); // integer spelling is cheaper
}

TEST(KBestContractTest, ValueHashAgreesWithApproxEquality) {
  TermPtr IntSpelling = tTranslate(tVec3(tInt(5), tInt(0), tInt(2)), tUnit());
  TermPtr FloatSpelling =
      tTranslate(tVec3(tFloat(5.0), tInt(0), tFloat(2.0)), tUnit());
  ASSERT_TRUE(termApproxEquals(IntSpelling, FloatSpelling, 0.0));
  EXPECT_EQ(termValueHash(IntSpelling), termValueHash(FloatSpelling));
  EXPECT_NE(termHash(IntSpelling), termHash(FloatSpelling));
}
