//===-- tests/solver_pipeline_test.cpp - Profile, prune, fit --------------===//
//
// Coverage for the solve's profile -> prune -> fit path (FunctionSolver.h,
// Prune.h) and the input canonicalization (Preprocess.h):
//
//  * the duplicate-element pathology: a Union of three identical cubes
//    must synthesize in well under a second with a bounded e-graph (the
//    pre-pipeline behavior was an unbounded fold-list blowup);
//  * dedupeUnionOperands unit behavior: pointer identity on duplicate-free
//    inputs, per-spine multiset collapse, boolean contexts kept separate;
//  * sequence profiling and the family-pruning bounds, including
//    near-band-edge sequences that must NOT be pruned;
//  * pruning soundness differentials: solveAll with pruning on vs. off is
//    bit-identical on adversarial and random sequences, and end-to-end
//    synthesis with pruning disabled reproduces the exact programs on the
//    whole bench corpus;
//  * cancellation: a fired token short-circuits the solve between family
//    fits and inside the trig frequency scan, and a cancelled synthesis
//    still returns a well-formed partial result;
//  * extraction after fold-site mutations: a scratch worklist derivation
//    after each of a sequence of solver-style graph mutations stays
//    bit-identical to the fixed-point oracle;
//  * dedup-aware determinization (UniqueElements) and fit attribution
//    (InferenceRecord::Modules).
//
//===----------------------------------------------------------------------===//

#include "cad/Sexp.h"
#include "egraph/Extract.h"
#include "egraph/Runner.h"
#include "models/Models.h"
#include "oracles/ReferenceExtract.h"
#include "rewrites/Rules.h"
#include "solvers/FunctionSolver.h"
#include "solvers/Prune.h"
#include "synth/Synthesizer.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>

using namespace shrinkray;

// Sanitizer instrumentation slows wall-clock bounds far past the Release
// numbers the pathology gate targets; scale them rather than skip.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SHRINKRAY_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SHRINKRAY_SANITIZED 1
#endif
#endif
#ifdef SHRINKRAY_SANITIZED
static constexpr double TimeBoundScale = 20.0;
#else
static constexpr double TimeBoundScale = 1.0;
#endif

namespace {

constexpr double kPi = 3.14159265358979323846;

double wallSeconds(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

TermPtr identicalCube() {
  // Int literals, matching both the committed sexp reproducer and the Int
  // spelling extraction prefers.
  return tTranslate(tVec3(tInt(1), tInt(2), tInt(3)), tUnit());
}

TermPtr threeIdenticalCubes() {
  return tUnionAll({identicalCube(), identicalCube(), identicalCube()});
}

/// Byte-exact fingerprint of a solve result (what "pruning never changes
/// results" means: same forms, same coefficients, same order, same module).
std::string fingerprint(const std::vector<ClosedForm> &Forms) {
  std::ostringstream S;
  for (const ClosedForm &F : Forms)
    S << static_cast<int>(F.Kind) << "|" << F.A << "|" << F.B << "|" << F.C
      << "|" << F.D << "|" << F.R2 << "|" << F.Module << "\n";
  return S.str();
}

/// Byte-exact transcript of a synthesis result (program sexps and costs).
std::string transcript(const SynthesisResult &R) {
  std::ostringstream S;
  for (const RankedTerm &P : R.Programs)
    S << printSexp(P.T) << " @" << P.Cost << "\n";
  return S.str();
}

} // namespace

//===----------------------------------------------------------------------===//
// The duplicate-element pathology
//===----------------------------------------------------------------------===//

TEST(SolverPathology, ThreeIdenticalCubesSynthesizeFastAndBounded) {
  auto Start = std::chrono::steady_clock::now();
  SynthesisResult R = Synthesizer().synthesize(threeIdenticalCubes());
  double Elapsed = wallSeconds(Start);

  // The recorded pathology took ~90 s / unbounded memory; post-dedup the
  // model is a single cube and must be near-instant with a tiny graph.
  EXPECT_LT(Elapsed, 1.0 * TimeBoundScale);
  EXPECT_LT(R.Stats.ENodes, 2000u);
  EXPECT_EQ(R.Stats.DedupedPrimitives, 2u);

  ASSERT_FALSE(R.Programs.empty());
  // Value-level comparison: extraction prefers Int spellings while the
  // in-code reproducer uses Float literals; printSexp renders both alike.
  EXPECT_EQ(printSexp(R.best()), printSexp(identicalCube()));
  EXPECT_EQ(termPrimitives(R.best()), 1u);
}

TEST(SolverPathology, CommittedExampleMatchesReproducer) {
  // examples/sexp/three_identical_cubes.sexp is the CLI-facing spelling of
  // the same reproducer; keep the two in sync.
  std::ifstream In(std::string(SHRINKRAY_EXAMPLES_SEXP_DIR) +
                   "/three_identical_cubes.sexp");
  ASSERT_TRUE(In.good());
  std::string Text, Line;
  while (std::getline(In, Line))
    if (Line.empty() || Line[0] != ';')
      Text += Line + "\n";
  ParseResult P = parseSexp(Text);
  ASSERT_TRUE(P) << P.Error;
  EXPECT_EQ(printSexp(P.Value), printSexp(threeIdenticalCubes()));
}

//===----------------------------------------------------------------------===//
// Input canonicalization (dedupeUnionOperands)
//===----------------------------------------------------------------------===//

TEST(SolverPreprocess, DedupeIsPointerIdentityWithoutDuplicates) {
  TermPtr Clean = tUnion(tTranslate(1, 0, 0, tUnit()), tUnit());
  EXPECT_EQ(dedupeUnionOperands(Clean).get(), Clean.get());

  // Every bench model is duplicate-free: canonicalization must be the
  // identity on the whole corpus (so their synthesis cannot change).
  for (const models::BenchmarkModel &M : models::allModels())
    EXPECT_EQ(dedupeUnionOperands(M.FlatCsg).get(), M.FlatCsg.get())
        << M.Name;
}

TEST(SolverPreprocess, DedupeCollapsesNestedSpines) {
  TermPtr Deduped = dedupeUnionOperands(threeIdenticalCubes());
  EXPECT_TRUE(termEquals(Deduped, identicalCube()));

  // Duplicates interleaved with distinct operands: only the repeats drop,
  // order of first occurrences is preserved.
  TermPtr A = tTranslate(1, 0, 0, tUnit());
  TermPtr B = tTranslate(2, 0, 0, tUnit());
  TermPtr C = tTranslate(3, 0, 0, tUnit());
  TermPtr Mixed = tUnion(A, tUnion(B, tUnion(A, tUnion(C, B))));
  TermPtr Out = dedupeUnionOperands(Mixed);
  EXPECT_EQ(termPrimitives(Out), 3u);
  EXPECT_TRUE(termEquals(Out, tUnion(A, tUnion(B, C)))) << printSexp(Out);
}

TEST(SolverPreprocess, DedupeKeepsBooleanContextsSeparate) {
  TermPtr A = tTranslate(1, 0, 0, tUnit());
  // Each Union spine under the Diff is its own multiset; dedup must not
  // merge across the Diff (only union itself is idempotent).
  TermPtr T = tDiff(tUnion(A, A), tUnion(A, A));
  TermPtr Out = dedupeUnionOperands(T);
  EXPECT_TRUE(termEquals(Out, tDiff(A, A))) << printSexp(Out);

  // A repeated subterm in *different* spines is not a duplicate.
  TermPtr NoDup = tDiff(tUnion(A, tTranslate(2, 0, 0, tUnit())), A);
  EXPECT_EQ(dedupeUnionOperands(NoDup).get(), NoDup.get());
}

TEST(SolverPreprocess, SequenceProfileStatistics) {
  SequenceProfile P = sequenceProfile({1, 2, 4, 8});
  EXPECT_EQ(P.N, 4u);
  EXPECT_EQ(P.Min, 1.0);
  EXPECT_EQ(P.Max, 8.0);
  EXPECT_EQ(P.MaxAbs, 8.0);
  EXPECT_EQ(P.MaxAbsD2, 2.0); // |8 - 2*4 + 2| = 2
  EXPECT_EQ(P.MaxAbsD3, 1.0); // |8 - 3*4 + 3*2 - 1| = 1

  SequenceProfile Dup = sequenceProfile({5, 5, 5});
  EXPECT_EQ(Dup.range(), 0.0);
  EXPECT_EQ(Dup.MaxAbsD2, 0.0);
}

//===----------------------------------------------------------------------===//
// Family pruning
//===----------------------------------------------------------------------===//

TEST(SolverPrune, AdmissibleFamiliesFollowTheBounds) {
  SolverOptions Opts;

  // Constant data: every family's necessary condition holds (trig needs
  // at least 4 samples, so with 3 it is excluded).
  {
    std::vector<double> Ys = {5, 5, 5};
    unsigned Mask = admissibleFamilies(sequenceProfile(Ys), Opts);
    EXPECT_EQ(Mask & FamConstant, FamConstant);
    EXPECT_EQ(Mask & FamTrig, 0u);
  }
  // A real line: constant pruned (range >> 2*Band), poly families stay.
  {
    std::vector<double> Ys = {0, 2, 4, 6};
    unsigned Mask = admissibleFamilies(sequenceProfile(Ys), Opts);
    EXPECT_EQ(Mask & FamConstant, 0u);
    EXPECT_EQ(Mask & FamPoly1, FamPoly1);
    EXPECT_EQ(Mask & FamPoly2, FamPoly2);
    EXPECT_EQ(Mask & FamTrig, FamTrig);
  }
  // A real quadratic: second differences are 2, so Poly1 is pruned; third
  // differences vanish, so Poly2 stays.
  {
    std::vector<double> Ys = {0, 1, 4, 9, 16};
    unsigned Mask = admissibleFamilies(sequenceProfile(Ys), Opts);
    EXPECT_EQ(Mask & FamPoly1, 0u);
    EXPECT_EQ(Mask & FamPoly2, FamPoly2);
  }
  // Cubic growth: every polynomial family fails its bound.
  {
    std::vector<double> Ys = {0, 1, 8, 27, 64};
    unsigned Mask = admissibleFamilies(sequenceProfile(Ys), Opts);
    EXPECT_EQ(Mask & (FamConstant | FamPoly1 | FamPoly2), 0u);
  }
  // Pruning disabled: everything is admissible regardless of the data.
  {
    SolverOptions Off;
    Off.EnablePruning = false;
    EXPECT_EQ(admissibleFamilies(sequenceProfile({0, 1, 8, 27, 64}), Off),
              FamAll);
  }
}

TEST(SolverPrune, NearBandEdgeSequencesAreNotPruned) {
  SolverOptions Opts; // Epsilon = 1e-3
  // Range exactly 2*epsilon: c = midpoint verifies with |residual| = eps,
  // sitting on the band boundary. The necessary condition must keep it.
  std::vector<double> Ys = {0.0, 0.002, 0.0, 0.002};
  unsigned Mask = admissibleFamilies(sequenceProfile(Ys), Opts);
  EXPECT_EQ(Mask & FamConstant, FamConstant);
  std::optional<ClosedForm> Fit = FunctionSolver(Opts).fitPoly(Ys, 0);
  ASSERT_TRUE(Fit.has_value());
  EXPECT_EQ(Fit->Kind, FormKind::Constant);

  // Just past the boundary the family is gone — and the fit agrees.
  std::vector<double> Beyond = {0.0, 0.0021, 0.0, 0.0021};
  EXPECT_EQ(admissibleFamilies(sequenceProfile(Beyond), Opts) & FamConstant,
            0u);
  EXPECT_FALSE(FunctionSolver(Opts).fitPoly(Beyond, 0).has_value());
}

TEST(SolverPrune, TrigPeriodFeasibility) {
  SolverOptions Opts;
  std::vector<double> Ys = {0, 1, 0, -1, 0, 1, 0, -1}; // period 4
  SequenceProfile P = sequenceProfile(Ys);
  EXPECT_TRUE(trigPeriodFeasible(Ys, 4, P, Opts));
  EXPECT_FALSE(trigPeriodFeasible(Ys, 2, P, Opts)); // |y1 - y3| = 2
  // Period 0 (non-repeating frequency) and periods beyond the sample
  // range carry no constraint.
  EXPECT_TRUE(trigPeriodFeasible(Ys, 0, P, Opts));
  EXPECT_TRUE(trigPeriodFeasible(Ys, Ys.size(), P, Opts));
}

//===----------------------------------------------------------------------===//
// Fitting: preference order, attribution
//===----------------------------------------------------------------------===//

TEST(SolverPipeline, ConstantSubsumesEverything) {
  FunctionSolver S;
  std::vector<ClosedForm> All = S.solveAll({7, 7, 7, 7, 7, 7});
  ASSERT_EQ(All.size(), 1u);
  EXPECT_EQ(All[0].Kind, FormKind::Constant);
  EXPECT_EQ(std::string(All[0].Module), "poly");
  std::optional<ClosedForm> First = S.solveSequence({7, 7, 7, 7, 7, 7});
  ASSERT_TRUE(First.has_value());
  EXPECT_EQ(First->Kind, FormKind::Constant);
}

TEST(SolverPipeline, ModuleAttribution) {
  FunctionSolver S;
  std::optional<ClosedForm> Line = S.solveSequence({3, 5, 7, 9, 11});
  ASSERT_TRUE(Line.has_value());
  EXPECT_EQ(Line->Kind, FormKind::Poly1);
  EXPECT_EQ(std::string(Line->Module), "poly");

  std::vector<double> Sine;
  for (int I = 0; I < 12; ++I)
    Sine.push_back(10.0 * std::sin(30.0 * I * kPi / 180.0));
  std::vector<ClosedForm> All = S.solveAll(Sine);
  bool SawTrig = false;
  for (const ClosedForm &F : All)
    if (F.Kind == FormKind::Trig) {
      SawTrig = true;
      EXPECT_EQ(std::string(F.Module), "trig");
    }
  EXPECT_TRUE(SawTrig);
}

TEST(SolverPipeline, BreakdownCountsStages) {
  FunctionSolver S;
  (void)S.solveAll({0, 1, 8, 27, 64}); // cubic: all poly families pruned
  (void)S.solveAll({5, 5, 5, 5, 5});   // constant: one fit, rest subsumed
  const SolveBreakdown &B = S.breakdown();
  EXPECT_EQ(B.Sequences, 2u);
  EXPECT_GE(B.FamiliesPruned, 3u); // cubic loses constant/poly1/poly2
  EXPECT_GE(B.FamiliesFitted, 1u);
  EXPECT_EQ(B.CancelledSolves, 0u);
}

//===----------------------------------------------------------------------===//
// Pruning soundness differentials (pruned vs. unpruned solves)
//===----------------------------------------------------------------------===//

TEST(SolverPipeline, PruningDifferentialOnAdversarialSequences) {
  std::vector<std::vector<double>> Sequences = {
      {},                                  // empty
      {42},                                // single sample
      {5, 5, 5, 5, 5, 5, 5, 5},            // constant
      {5, 5, 5, 5, 5, 5, 5, 5.002},        // near-band-edge constant
      {0, 2, 4, 6, 8, 10},                 // line
      {1, 2, 5, 10, 17, 26},               // quadratic
      {0, 1, 8, 27, 64, 125},              // cubic (nothing fits)
      {0.001, -0.001, 0.001, -0.001},      // inside-band oscillation
  };
  // Duplicate-heavy: many repeats of two values.
  Sequences.push_back({3, 3, 3, 9, 3, 3, 3, 9, 3, 3, 3, 9});
  // Mixed poly/trig: an offset sinusoid (Figure 19's shape) keeps both the
  // poly and trig candidates alive until the fits decide.
  {
    std::vector<double> Mixed;
    for (int I = 0; I < 10; ++I)
      Mixed.push_back(10 + 7 * std::sin((45.0 * I) * kPi / 180.0));
    Sequences.push_back(std::move(Mixed));
  }
  // Deterministic pseudo-random sequences (LCG; no libc rand state).
  uint64_t State = 0x2545F4914F6CDD1DULL;
  for (int Seq = 0; Seq < 8; ++Seq) {
    std::vector<double> Ys;
    for (int I = 0; I < 12; ++I) {
      State = State * 6364136223846793005ULL + 1442695040888963407ULL;
      Ys.push_back(static_cast<double>((State >> 33) % 2000) / 10.0 - 100.0);
    }
    Sequences.push_back(std::move(Ys));
  }

  SolverOptions On;
  SolverOptions Off;
  Off.EnablePruning = false;
  FunctionSolver Pruned(On), Unpruned(Off);
  for (size_t I = 0; I < Sequences.size(); ++I) {
    EXPECT_EQ(fingerprint(Pruned.solveAll(Sequences[I])),
              fingerprint(Unpruned.solveAll(Sequences[I])))
        << "sequence " << I;
    // And the first-only variant agrees too.
    std::optional<ClosedForm> A = Pruned.solveSequence(Sequences[I]);
    std::optional<ClosedForm> B = Unpruned.solveSequence(Sequences[I]);
    EXPECT_EQ(A.has_value(), B.has_value()) << "sequence " << I;
    if (A && B) {
      EXPECT_EQ(fingerprint({*A}), fingerprint({*B})) << "sequence " << I;
    }
  }
  // Pruning did real work on these sequences (else the differential is
  // vacuous).
  EXPECT_GT(Pruned.breakdown().FamiliesPruned, 0u);
  EXPECT_EQ(Unpruned.breakdown().FamiliesPruned, 0u);
}

TEST(SolverPipeline, PruningDifferentialOnBenchCorpus) {
  // End-to-end: synthesis with family pruning disabled must reproduce the
  // exact programs (sexp and cost) on every bench model.
  for (const models::BenchmarkModel &M : models::allModels()) {
    SynthesisOptions On;
    SynthesisOptions Off;
    Off.Solver.EnablePruning = false;
    SynthesisResult ROn = Synthesizer(On).synthesize(M.FlatCsg);
    SynthesisResult ROff = Synthesizer(Off).synthesize(M.FlatCsg);
    EXPECT_EQ(transcript(ROn), transcript(ROff)) << M.Name;
    EXPECT_EQ(ROn.structureRank(), ROff.structureRank()) << M.Name;
  }
}

//===----------------------------------------------------------------------===//
// Cancellation
//===----------------------------------------------------------------------===//

TEST(SolverPipeline, PreCancelledTokenShortCircuitsSolves) {
  SolverOptions Opts;
  Opts.Cancel = CancelToken::make();
  Opts.Cancel.cancel();
  FunctionSolver S(Opts);
  EXPECT_TRUE(S.solveAll({0, 2, 4, 6, 8}).empty());
  EXPECT_FALSE(S.solveSequence({0, 2, 4, 6, 8}).has_value());
  EXPECT_GE(S.breakdown().CancelledSolves, 2u);
}

TEST(SolverPipeline, CancelStopsTrigScanWithPartialResult) {
  std::vector<double> Sine;
  for (int I = 0; I < 16; ++I)
    Sine.push_back(10.0 * std::sin(30.0 * I * kPi / 180.0));

  SolverOptions Live;
  ASSERT_TRUE(FunctionSolver(Live).fitTrig(Sine).has_value());

  // A fired token stops the frequency scan at its next poll; with no
  // candidate accepted yet, the scan reports nothing rather than hanging.
  SolverOptions Fired;
  Fired.Cancel = CancelToken::make();
  Fired.Cancel.cancel();
  EXPECT_FALSE(FunctionSolver(Fired).fitTrig(Sine).has_value());
}

TEST(SolverPipeline, CancelledSynthesisReturnsPartialResult) {
  // Deterministic mid-pipeline deadline: a pre-fired token makes every
  // phase (saturation, family fits, trig scan) bail at its next
  // check, and the pipeline must still return a well-formed respelling of
  // the input rather than nothing.
  SynthesisOptions Opts;
  Opts.Limits.Cancel = CancelToken::make();
  Opts.Limits.Cancel.cancel();
  SynthesisResult R =
      Synthesizer(Opts).synthesize(models::modelByName("3362402:gear").FlatCsg);
  EXPECT_TRUE(R.Stats.Cancelled);
  ASSERT_FALSE(R.Programs.empty());
  EXPECT_NE(R.best(), nullptr);
}

//===----------------------------------------------------------------------===//
// Extraction after fold-site mutations vs. the fixed-point oracle
//===----------------------------------------------------------------------===//

namespace {

void expectKBestMatchesOracle(const EGraph &G, const KBestExtractor &Engine,
                              size_t K, const std::string &Tag) {
  static const AstSizeCost Cost;
  ReferenceKBestExtractor Ref(G, Cost, K);
  for (EClassId Id : G.classIds()) {
    std::vector<RankedTerm> A = Engine.extract(Id);
    std::vector<RankedTerm> B = Ref.extract(Id);
    ASSERT_EQ(A.size(), B.size()) << Tag << " class " << Id;
    for (size_t I = 0; I < A.size(); ++I) {
      EXPECT_EQ(A[I].Cost, B[I].Cost) << Tag << " class " << Id;
      EXPECT_EQ(printSexp(A[I].T), printSexp(B[I].T)) << Tag << " class "
                                                      << Id;
    }
  }
}

} // namespace

TEST(ExtractAfterFoldSites, ScratchDerivationMatchesOracleAfterEachMutation) {
  // The synthesizer derives the k-best table once, on the graph the fold
  // sites' insertions leave behind. Replay a sequence of such insertions
  // and check a scratch derivation against the fixed-point oracle after
  // each one, so every intermediate graph a round can end on is covered.
  EGraph G;
  const TermPtr Model = models::modelByName("3452260:relay-box").FlatCsg;
  EClassId Root = G.addTerm(Model);
  G.rebuild();
  Runner R(RunnerLimits{.IterLimit = 8, .NodeLimit = 60000,
                        .TimeLimitSec = 30.0});
  R.run(G, pipelineRules());

  static const AstSizeCost Cost;
  expectKBestMatchesOracle(G, KBestExtractor(G, Cost, 5), 5,
                           "post-saturation");

  // Simulated fold-site insertions: new equivalent spellings merged into
  // existing classes, one derivation per site.
  std::vector<TermPtr> Sites = {
      tTranslate(0, 0, 0, Model),
      tUnion(tEmpty(), Model),
      tTranslate(0, 0, 0, tUnion(tEmpty(), Model)),
  };
  for (size_t I = 0; I < Sites.size(); ++I) {
    EClassId New = G.addTerm(Sites[I]);
    G.merge(Root, New);
    G.rebuild();
    expectKBestMatchesOracle(G, KBestExtractor(G, Cost, 5), 5,
                             "site " + std::to_string(I));
  }
}

//===----------------------------------------------------------------------===//
// Dedup-aware determinization and fit reporting
//===----------------------------------------------------------------------===//

TEST(SolverPipeline, DeterminizeReportsUniqueElements) {
  EGraph G;
  TermPtr Elem = identicalCube();
  EClassId DupList = G.addTerm(tList({Elem, Elem, Elem}));
  EClassId DistinctList = G.addTerm(tList({tTranslate(1, 0, 0, tUnit()),
                                           tTranslate(2, 0, 0, tUnit()),
                                           tTranslate(3, 0, 0, tUnit())}));
  G.rebuild();

  std::vector<ChainDecomposition> Dup = determinize(G, DupList);
  ASSERT_FALSE(Dup.empty());
  EXPECT_EQ(Dup[0].numElements(), 3u);
  EXPECT_EQ(Dup[0].UniqueElements, 1u);

  std::vector<ChainDecomposition> Distinct = determinize(G, DistinctList);
  ASSERT_FALSE(Distinct.empty());
  EXPECT_EQ(Distinct[0].numElements(), 3u);
  EXPECT_EQ(Distinct[0].UniqueElements, 3u);
}

TEST(SolverPipeline, InferenceRecordsCarryModuleAttribution) {
  SynthesisResult R = Synthesizer().synthesize(
      models::modelByName("3362402:gear").FlatCsg);
  ASSERT_FALSE(R.Stats.Records.empty());
  bool SawAny = false;
  for (const InferenceRecord &Rec : R.Stats.Records) {
    for (const char *Module : Rec.Modules) {
      SawAny = true;
      const std::string M = Module;
      EXPECT_TRUE(M == "poly" || M == "trig" || M == "linear") << M;
    }
  }
  EXPECT_TRUE(SawAny);
}
