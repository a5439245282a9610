//===-- tests/match_engine_test.cpp - Indexed incremental e-matching ------===//
//
// Differential and adversarial coverage for the indexed, incremental
// e-matching engine:
//
//  * operator-head index consistency under adversarial merge/rebuild
//    sequences, including the self-referential-node repair path;
//  * compiled-VM vs reference-matcher equivalence on every rule in the
//    pipeline database;
//  * dirty-set completeness: a rule searching only the dirty closure never
//    misses a match a full search finds;
//  * the O(1) class/node counters and the memoized representsTerm.
//
//===----------------------------------------------------------------------===//

#include "egraph/Runner.h"
#include "models/Models.h"
#include "oracles/ReferenceMatch.h"
#include "rewrites/Rules.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

using namespace shrinkray;

namespace {

/// Canonical string key for a match: root class plus each variable's
/// binding (in the pattern's variable order), all canonicalized under the
/// current union-find so keys from different generations are comparable.
std::string matchKey(const EGraph &G, const std::vector<Symbol> &Vars,
                     EClassId Root, const Subst &S) {
  std::ostringstream Os;
  Os << G.find(Root);
  for (Symbol V : Vars)
    Os << "|" << V.str() << "=" << G.find(S[V]);
  return Os.str();
}

/// All (class, subst) pairs of \p P over the whole graph using the
/// reference CPS matcher and a full class scan — the unindexed oracle.
std::vector<std::pair<EClassId, Subst>>
referenceSearch(const Pattern &P, const EGraph &G) {
  std::vector<std::pair<EClassId, Subst>> Out;
  for (EClassId Id : G.classIds())
    for (Subst &S : matchClassReference(G, P, Id))
      Out.emplace_back(Id, std::move(S));
  return Out;
}

/// A small but rule-rich workload: partially saturated union chain.
void buildChainGraph(EGraph &G, int N, size_t Iters) {
  std::vector<TermPtr> Cubes;
  for (int I = 1; I <= N; ++I)
    Cubes.push_back(tTranslate(2.0 * I, 0, 0, tUnit()));
  G.addTerm(tUnionAll(Cubes));
  Runner R(RunnerLimits{.IterLimit = Iters});
  R.run(G, pipelineRules());
}

//===----------------------------------------------------------------------===//
// Operator-head index
//===----------------------------------------------------------------------===//

TEST(OpIndexTest, FreshGraphIndexesHeads) {
  EGraph G;
  EClassId Root = G.addTerm(tUnion(tTranslate(1, 2, 3, tUnit()), tSphere()));
  G.rebuild();
  ASSERT_EQ(G.checkInvariants(), "");

  const std::vector<EClassId> &Unions = G.classesWithOp(Op(OpKind::Union));
  ASSERT_EQ(Unions.size(), 1u);
  EXPECT_EQ(G.find(Unions[0]), G.find(Root));
  EXPECT_EQ(G.classesWithOp(Op(OpKind::Translate)).size(), 1u);
  EXPECT_EQ(G.classesWithOp(Op(OpKind::Diff)).size(), 0u);
}

TEST(OpIndexTest, MergedClassesCompactToOneEntry) {
  EGraph G;
  EClassId A = G.addTerm(tUnion(tUnit(), tSphere()));
  EClassId B = G.addTerm(tUnion(tSphere(), tCylinder()));
  G.merge(A, B);
  G.rebuild();
  ASSERT_EQ(G.checkInvariants(), "");
  const std::vector<EClassId> &Unions = G.classesWithOp(Op(OpKind::Union));
  ASSERT_EQ(Unions.size(), 1u);
  EXPECT_EQ(Unions[0], G.find(A));
  // Deterministic: ascending canonical ids, no duplicates.
  EXPECT_TRUE(std::is_sorted(Unions.begin(), Unions.end()));
}

TEST(OpIndexTest, AnalysisMaterializedLeavesAreIndexed) {
  // Constant folding inserts literal leaves into existing classes without
  // going through add(); the index must still see them.
  EGraph G;
  EClassId Sum = G.addTerm(tAdd(tFloat(2.0), tFloat(3.0)));
  G.rebuild();
  ASSERT_EQ(G.checkInvariants(), "");
  const std::vector<EClassId> &Fives = G.classesWithOp(Op::makeInt(5));
  ASSERT_EQ(Fives.size(), 1u);
  EXPECT_EQ(G.find(Fives[0]), G.find(Sum));
}

TEST(OpIndexTest, SelfReferentialNodeSurvivesRepair) {
  // Merging a class with its own child creates a self-referential node,
  // which exercises the re-fetch path in repair(). The index and the rest
  // of the invariants must hold afterwards.
  EGraph G;
  EClassId Root = G.addTerm(tUnion(tUnit(), tEmpty()));
  EClassId Unit = G.addTerm(tUnit());
  G.merge(Root, Unit);
  G.rebuild();
  ASSERT_EQ(G.checkInvariants(), "");
  const std::vector<EClassId> &Unions = G.classesWithOp(Op(OpKind::Union));
  ASSERT_EQ(Unions.size(), 1u);
  EXPECT_EQ(Unions[0], G.find(Root));
  // The self-loop still matches patterns rooted at the class.
  Pattern P = Pattern::parse("(Union ?x Empty)");
  auto Matches = P.matchClass(G, Root);
  ASSERT_EQ(Matches.size(), 1u);
  EXPECT_EQ(G.find(Matches[0][Symbol("x")]), G.find(Root));
}

class AdversarialMergeIndex : public ::testing::TestWithParam<int> {};

TEST_P(AdversarialMergeIndex, IndexMatchesRescanAfterRandomMerges) {
  // checkInvariants() cross-validates the op-index against a full rescan;
  // drive it through random merge/rebuild sequences, including merges of a
  // class into its own subterm (self-referential repair).
  Rng R(static_cast<uint64_t>(GetParam()) * 977 + 13);
  EGraph G;
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
  ASSERT_EQ(G.checkInvariants(), "");

  for (int Step = 0; Step < 15; ++Step) {
    EClassId A = Pool[R.nextBelow(Pool.size())];
    EClassId B = Pool[R.nextBelow(Pool.size())];
    G.merge(A, B);
    if (Step % 3 == 0) // batch some merges before rebuilding
      G.rebuild();
    if (!G.isDirty()) {
      ASSERT_EQ(G.checkInvariants(), "") << "after step " << Step;
    }
  }
  G.rebuild();
  ASSERT_EQ(G.checkInvariants(), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdversarialMergeIndex,
                         ::testing::Range(0, 8));

TEST(OpIndexTest, HoldsAcrossSaturation) {
  EGraph G;
  buildChainGraph(G, 6, 20);
  ASSERT_EQ(G.checkInvariants(), "");
}

//===----------------------------------------------------------------------===//
// Compiled VM vs reference matcher
//===----------------------------------------------------------------------===//

TEST(MatchVmTest, EquivalentToReferenceOnEveryPipelineRule) {
  EGraph G;
  buildChainGraph(G, 5, 12);

  for (const Rewrite &R : pipelineRules()) {
    const Pattern &P = R.lhs();
    for (EClassId Id : G.classIds()) {
      std::vector<Subst> Vm = P.matchClass(G, Id);
      std::vector<Subst> Ref = matchClassReference(G, P, Id);
      ASSERT_EQ(Vm.size(), Ref.size())
          << R.name() << " differs at class " << Id;
      // The VM visits nodes in the same depth-first order as the
      // reference matcher, so the match sequences agree element-wise.
      for (size_t I = 0; I < Vm.size(); ++I)
        EXPECT_EQ(matchKey(G, P.vars(), Id, Vm[I]),
                  matchKey(G, P.vars(), Id, Ref[I]))
            << R.name() << " match " << I << " at class " << Id;
    }
  }
}

TEST(MatchVmTest, IndexedSearchEqualsUnindexedReferenceSearch) {
  // The acceptance property: indexed search (op-index candidates + VM)
  // returns exactly the (class, substitution) sets of an unindexed
  // reference search, for every pipeline rule's left-hand side.
  EGraph G;
  buildChainGraph(G, 5, 12);

  for (const Rewrite &R : pipelineRules()) {
    const Pattern &P = R.lhs();
    std::multiset<std::string> Indexed, Reference;
    for (const auto &[Root, S] : P.search(G))
      Indexed.insert(matchKey(G, P.vars(), Root, S));
    for (const auto &[Root, S] : referenceSearch(P, G))
      Reference.insert(matchKey(G, P.vars(), Root, S));
    EXPECT_EQ(Indexed, Reference) << R.name();
  }
}

TEST(MatchVmTest, GuardedSearchEqualsFullScanSearch) {
  // Rewrite-level: search() (indexed) vs searchIn over every class, both
  // after guard filtering.
  EGraph G;
  buildChainGraph(G, 5, 12);

  for (const Rewrite &R : pipelineRules()) {
    const std::vector<Symbol> &Vars = R.lhs().vars();
    std::multiset<std::string> Indexed, FullScan;
    for (const auto &[Root, S] : R.search(G))
      Indexed.insert(matchKey(G, Vars, Root, S));
    for (const auto &[Root, S] : R.searchIn(G, G.classIds()))
      FullScan.insert(matchKey(G, Vars, Root, S));
    EXPECT_EQ(Indexed, FullScan) << R.name();
  }
}

TEST(MatchVmTest, VarRootedPatternBindsRoot) {
  EGraph G;
  EClassId Root = G.addTerm(tUnit());
  G.rebuild();
  Pattern P = Pattern::parse("?x");
  auto Matches = P.matchClass(G, Root);
  ASSERT_EQ(Matches.size(), 1u);
  EXPECT_EQ(Matches[0][Symbol("x")], G.find(Root));
}

//===----------------------------------------------------------------------===//
// Dirty-set completeness
//===----------------------------------------------------------------------===//

TEST(DirtySetTest, TouchedClassesIncludeAncestors) {
  EGraph G;
  TermPtr Shared = tUnit();
  EClassId Root = G.addTerm(tUnion(tTranslate(1, 2, 3, Shared), tSphere()));
  EClassId Leaf = G.addTerm(Shared);
  EClassId Other = G.addTerm(tCylinder());
  G.rebuild();
  uint64_t Before = G.generation();

  G.merge(Leaf, Other);
  G.rebuild();
  std::vector<EClassId> Dirty = G.takeDirtySince(Before);
  auto contains = [&](EClassId Id) {
    return std::binary_search(Dirty.begin(), Dirty.end(), G.find(Id));
  };
  // The merged leaf, the Translate above it, and the Union root can all
  // host new matches; none may be missed.
  EXPECT_TRUE(contains(Leaf));
  EXPECT_TRUE(contains(Root));
  // Untouched siblings stay clean.
  EXPECT_FALSE(contains(G.addTerm(tSphere())));
}

TEST(DirtySetTest, QuiescentGraphReportsNothing) {
  EGraph G;
  G.addTerm(tUnion(tUnit(), tSphere()));
  G.rebuild();
  EXPECT_TRUE(G.takeDirtySince(G.generation()).empty());
}

/// Runs the Runner's incremental protocol by hand next to full searches
/// and asserts no rule ever misses a match: every match a full search
/// finds is either in the incremental result or was found (and applied)
/// by a previous iteration's search.
void checkDirtyCompleteness(const TermPtr &Input, size_t Iters) {
  EGraph G;
  G.addTerm(Input);
  G.rebuild();
  const std::vector<Rewrite> Rules = pipelineRules();

  std::vector<uint64_t> LastGen(Rules.size(), 0);
  std::vector<char> Ever(Rules.size(), 0);
  // Raw matches from prior iterations, re-canonicalized each round.
  std::vector<std::vector<std::pair<EClassId, Subst>>> Prev(Rules.size());

  for (size_t Iter = 0; Iter < Iters; ++Iter) {
    std::vector<std::vector<std::pair<EClassId, Subst>>> Full(Rules.size());
    for (size_t R = 0; R < Rules.size(); ++R) {
      const std::vector<Symbol> &Vars = Rules[R].lhs().vars();
      const std::vector<EClassId> &Cands =
          G.classesWithOp(Rules[R].lhs().rootOp());
      Full[R] = Rules[R].searchIn(G, Cands);

      if (Ever[R]) {
        std::vector<EClassId> Dirty = G.takeDirtySince(LastGen[R]);
        std::vector<EClassId> Filtered;
        std::set_intersection(Cands.begin(), Cands.end(), Dirty.begin(),
                              Dirty.end(), std::back_inserter(Filtered));
        std::set<std::string> IncOrOld;
        for (const auto &[Root, S] : Rules[R].searchIn(G, Filtered))
          IncOrOld.insert(matchKey(G, Vars, Root, S));
        for (const auto &[Root, S] : Prev[R])
          IncOrOld.insert(matchKey(G, Vars, Root, S));
        for (const auto &[Root, S] : Full[R])
          ASSERT_TRUE(IncOrOld.count(matchKey(G, Vars, Root, S)))
              << Rules[R].name() << " missed a match at iteration " << Iter;
      }
      LastGen[R] = G.generation();
      Ever[R] = 1;
    }

    size_t Applied = 0;
    for (size_t R = 0; R < Rules.size(); ++R) {
      for (const auto &[Root, S] : Full[R])
        Applied += Rules[R].apply(G, Root, S);
      for (auto &M : Full[R])
        Prev[R].push_back(std::move(M));
    }
    G.rebuild();
    ASSERT_EQ(G.checkInvariants(), "") << "iteration " << Iter;
    if (Applied == 0)
      break;
  }
}

TEST(DirtySetTest, CompletenessOnUnionChain) {
  std::vector<TermPtr> Cubes;
  for (int I = 1; I <= 6; ++I)
    Cubes.push_back(tTranslate(2.0 * I, 0, 0, tUnit()));
  checkDirtyCompleteness(tUnionAll(Cubes), 16);
}

TEST(DirtySetTest, CompletenessOnGear) {
  checkDirtyCompleteness(models::gearModel(6), 12);
}

//===----------------------------------------------------------------------===//
// Counters and memoized representsTerm
//===----------------------------------------------------------------------===//

TEST(CounterTest, MatchFullRescanAcrossSaturation) {
  EGraph G;
  buildChainGraph(G, 6, 20);
  size_t Classes = 0, Nodes = 0;
  for (EClassId Id : G.classIds()) {
    ++Classes;
    Nodes += G.eclass(Id).Nodes.size();
  }
  EXPECT_EQ(G.numClasses(), Classes);
  EXPECT_EQ(G.numNodes(), Nodes);
}

TEST(CounterTest, TrackAddsAndMerges) {
  EGraph G;
  EXPECT_EQ(G.numClasses(), 0u);
  EClassId A = G.addTerm(tUnit());
  EClassId B = G.addTerm(tSphere());
  EXPECT_EQ(G.numClasses(), 2u);
  EXPECT_EQ(G.numNodes(), 2u);
  G.merge(A, B);
  G.rebuild();
  EXPECT_EQ(G.numClasses(), 1u);
  EXPECT_EQ(G.numNodes(), 2u); // Unit and Sphere nodes coexist in the class
}

TEST(RepresentsTermTest, SharedSubtermsStayLinear) {
  // A doubling DAG: depth d, 2^d paths, but only d distinct subterms.
  // Without (class, term)-memoization this recursion is exponential and
  // the test would hang; with it, it is linear.
  TermPtr T = tUnit();
  for (int I = 0; I < 26; ++I)
    T = tUnion(T, T);
  EGraph G;
  EClassId Root = G.addTerm(T);
  G.rebuild();
  EXPECT_TRUE(G.representsTerm(Root, T));
  EXPECT_FALSE(G.representsTerm(Root, tSphere()));

  TermPtr T2 = tSphere();
  for (int I = 0; I < 26; ++I)
    T2 = tUnion(T2, T2);
  EXPECT_FALSE(G.representsTerm(Root, T2));
}

TEST(RepresentsTermTest, ApproxSharedSubtermsStayLinear) {
  TermPtr T = tTranslate(1.0, 0, 0, tUnit());
  for (int I = 0; I < 24; ++I)
    T = tUnion(T, T);
  EGraph G;
  EClassId Root = G.addTerm(T);
  G.rebuild();
  EXPECT_TRUE(G.representsTermApprox(Root, T, 1e-9));
}

//===----------------------------------------------------------------------===//
// Runner per-rule statistics
//===----------------------------------------------------------------------===//

TEST(RunnerStatsTest, PerRuleStatsArePopulated) {
  std::vector<TermPtr> Cubes;
  for (int I = 1; I <= 6; ++I)
    Cubes.push_back(tTranslate(2.0 * I, 0, 0, tUnit()));
  EGraph G;
  G.addTerm(tUnionAll(Cubes));
  const std::vector<Rewrite> Rules = pipelineRules();
  Runner R(RunnerLimits{.IterLimit = 20});
  RunnerReport Report = R.run(G, Rules);

  ASSERT_EQ(Report.Rules.size(), Rules.size());
  size_t Matches = 0, Applied = 0, Incremental = 0, FullSearches = 0;
  for (size_t I = 0; I < Rules.size(); ++I) {
    EXPECT_EQ(Report.Rules[I].Name, Rules[I].name());
    Matches += Report.Rules[I].Matches;
    Applied += Report.Rules[I].Applied;
    Incremental += Report.Rules[I].IncrementalSearches;
    FullSearches += Report.Rules[I].FullSearches;
  }
  EXPECT_GT(Matches, 0u);
  EXPECT_GT(Applied, 0u);
  // Iteration 1 is always full; later iterations go incremental.
  EXPECT_GT(FullSearches, 0u);
  EXPECT_GT(Incremental, 0u);
  // Per-rule totals agree with the per-iteration totals.
  size_t IterApplied = 0;
  for (const IterationStats &S : Report.Iterations) {
    IterApplied += S.Applied;
    EXPECT_GE(S.Seconds, 0.0);
  }
  EXPECT_EQ(Applied, IterApplied);
}

} // namespace
