//===-- tests/parallel_pipeline_test.cpp - Multicore pipeline phase 2 -----===//
//
// Differential and adversarial coverage for the multicore pipeline's second
// phase: the conflict-partitioned apply scheduler and the wave-scheduled
// k-best extraction. The contract under test is the one docs/ARCHITECTURE.md
// states for the whole engine: the thread count is a pure performance knob —
// saturated e-graph dumps, runner statistics, extracted top-k programs, and
// end-to-end synthesis results must be byte-identical at every NumThreads.
//
//  * partitionMatches unit tests on adversarial closure sets (transitive
//    overlap, self-referential/duplicate classes, empty closures, scrambled
//    input order);
//  * saturation differential: NumThreads 1/2/4/8 over every bench model;
//  * extraction differential: scratch builds at every thread count over
//    saturated bench graphs;
//  * end-to-end synthesis differential and rerun determinism.
//
//===----------------------------------------------------------------------===//

#include "cad/Sexp.h"
#include "egraph/ApplyPlan.h"
#include "egraph/Extract.h"
#include "egraph/Runner.h"
#include "models/Models.h"
#include "rewrites/Rules.h"
#include "synth/Synthesizer.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace shrinkray;

namespace {

const size_t ThreadCounts[] = {1, 2, 4, 8};

RunnerLimits testLimits(size_t Threads, size_t Iters = 8) {
  return RunnerLimits{.IterLimit = Iters,
                      .NodeLimit = 60000,
                      .TimeLimitSec = 30.0,
                      .NumThreads = Threads};
}

/// Serializes everything a saturation run determines: the full graph dump
/// plus the scheduler-visible statistics (which are themselves contractually
/// a pure function of the graph, not of the thread count).
std::string saturationFingerprint(const TermPtr &T, size_t Threads,
                                  size_t Iters = 8) {
  EGraph G;
  G.addTerm(T);
  G.rebuild();
  Runner R(testLimits(Threads, Iters));
  RunnerReport Rep = R.run(G, pipelineRules());
  std::ostringstream Os;
  Os << G.dump();
  Os << "stop=" << static_cast<int>(Rep.Stop)
     << " iters=" << Rep.numIterations() << "\n";
  for (const IterationStats &S : Rep.Iterations)
    Os << S.Applied << ' ' << S.Matches << ' ' << S.Nodes << ' ' << S.Classes
       << ' ' << S.ApplyPartitions << ' ' << S.ParallelMatches << ' '
       << S.SerialMatches << "\n";
  return Os.str();
}

/// Serializes the complete top-k table of \p E over every class of \p G.
std::string extractionFingerprint(const EGraph &G, const KBestExtractor &E) {
  std::ostringstream Os;
  for (EClassId Id : G.classIds()) {
    Os << Id << ":";
    for (const RankedTerm &R : E.extract(Id))
      Os << ' ' << R.Cost << ' ' << printSexp(R.T);
    Os << "\n";
  }
  return Os.str();
}

std::vector<uint32_t> partitionOf(const std::vector<ApplyPartition> &Parts,
                                  size_t I) {
  return Parts.at(I).Matches;
}

} // namespace

//===----------------------------------------------------------------------===//
// Conflict partitioner
//===----------------------------------------------------------------------===//

TEST(ApplyPartitionTest, DisjointClosuresStaySeparate) {
  std::vector<MatchClosure> Cs = {
      {0, {1, 2}}, {1, {3, 4}}, {2, {5}}};
  std::vector<ApplyPartition> Parts = partitionMatches(Cs);
  ASSERT_EQ(Parts.size(), 3u);
  EXPECT_EQ(partitionOf(Parts, 0), (std::vector<uint32_t>{0}));
  EXPECT_EQ(partitionOf(Parts, 1), (std::vector<uint32_t>{1}));
  EXPECT_EQ(partitionOf(Parts, 2), (std::vector<uint32_t>{2}));
}

TEST(ApplyPartitionTest, OverlapMergesTransitively) {
  // 0 and 2 never share a class, but both overlap 1: one partition. The
  // chain is exactly the case a naive pairwise check would split unsoundly.
  std::vector<MatchClosure> Cs = {
      {0, {1, 2}}, {1, {2, 3}}, {2, {3, 4}}, {3, {9}}};
  std::vector<ApplyPartition> Parts = partitionMatches(Cs);
  ASSERT_EQ(Parts.size(), 2u);
  EXPECT_EQ(partitionOf(Parts, 0), (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(partitionOf(Parts, 1), (std::vector<uint32_t>{3}));
}

TEST(ApplyPartitionTest, SelfReferentialClosuresNeedNoSpecialCase) {
  // Duplicated classes inside one closure (self-referential matches,
  // nonlinear bindings) must neither crash nor split the component.
  std::vector<MatchClosure> Cs = {
      {0, {7, 7, 7}}, {1, {7}}, {2, {8, 8}}};
  std::vector<ApplyPartition> Parts = partitionMatches(Cs);
  ASSERT_EQ(Parts.size(), 2u);
  EXPECT_EQ(partitionOf(Parts, 0), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(partitionOf(Parts, 1), (std::vector<uint32_t>{2}));
}

TEST(ApplyPartitionTest, EmptyClosuresFormSingletons) {
  std::vector<MatchClosure> Cs = {{0, {}}, {1, {}}, {2, {5}}, {3, {5}}};
  std::vector<ApplyPartition> Parts = partitionMatches(Cs);
  ASSERT_EQ(Parts.size(), 3u);
  EXPECT_EQ(partitionOf(Parts, 0), (std::vector<uint32_t>{0}));
  EXPECT_EQ(partitionOf(Parts, 1), (std::vector<uint32_t>{1}));
  EXPECT_EQ(partitionOf(Parts, 2), (std::vector<uint32_t>{2, 3}));
}

TEST(ApplyPartitionTest, OutputNormalizedRegardlessOfInputOrder) {
  // Closures arrive with scrambled MatchIdx payloads; partitions must come
  // out ordered by smallest member index, members ascending.
  std::vector<MatchClosure> Cs = {
      {5, {100}}, {2, {200, 201}}, {9, {100}}, {0, {201}}};
  std::vector<ApplyPartition> Parts = partitionMatches(Cs);
  ASSERT_EQ(Parts.size(), 2u);
  EXPECT_EQ(partitionOf(Parts, 0), (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(partitionOf(Parts, 1), (std::vector<uint32_t>{5, 9}));
}

TEST(ApplyPartitionTest, LargeAdversarialChainCollapsesToOnePartition) {
  // 256 matches, each sharing one class with its successor: a single
  // transitive component no matter how the unions interleave.
  std::vector<MatchClosure> Cs;
  for (uint32_t I = 0; I < 256; ++I)
    Cs.push_back({I, {I, I + 1}});
  std::vector<ApplyPartition> Parts = partitionMatches(Cs);
  ASSERT_EQ(Parts.size(), 1u);
  ASSERT_EQ(Parts[0].Matches.size(), 256u);
  for (uint32_t I = 0; I < 256; ++I)
    EXPECT_EQ(Parts[0].Matches[I], I);
}

//===----------------------------------------------------------------------===//
// Saturation differential: every bench model, thread counts 1/2/4/8
//===----------------------------------------------------------------------===//

TEST(ParallelApplyDifferentialTest, SaturationIdenticalOnAllBenchModels) {
  for (const models::BenchmarkModel &M : models::allModels()) {
    const std::string Baseline = saturationFingerprint(M.FlatCsg, 1);
    for (size_t Threads : ThreadCounts) {
      if (Threads == 1)
        continue;
      ASSERT_EQ(saturationFingerprint(M.FlatCsg, Threads), Baseline)
          << M.Name << " diverges at NumThreads=" << Threads;
    }
  }
}

TEST(ParallelApplyDifferentialTest, RerunAtFixedThreadCountIsDeterministic) {
  const TermPtr &T = models::modelByName("3362402:gear").FlatCsg;
  const std::string First = saturationFingerprint(T, 4);
  ASSERT_EQ(saturationFingerprint(T, 4), First);
}

//===----------------------------------------------------------------------===//
// Extraction differential: scratch derivation at every thread count
//===----------------------------------------------------------------------===//

TEST(ParallelExtractDifferentialTest, ScratchTopKIdenticalOnAllBenchModels) {
  AstSizeCost Cost;
  for (const models::BenchmarkModel &M : models::allModels()) {
    EGraph G;
    G.addTerm(M.FlatCsg);
    G.rebuild();
    Runner(testLimits(1)).run(G, pipelineRules());
    std::string Baseline;
    for (size_t Threads : ThreadCounts) {
      KBestExtractor E(G, Cost, 5, Threads);
      std::string Fp = extractionFingerprint(G, E);
      if (Threads == 1)
        Baseline = std::move(Fp);
      else
        ASSERT_EQ(Fp, Baseline)
            << M.Name << " diverges at NumThreads=" << Threads;
    }
  }
}

//===----------------------------------------------------------------------===//
// End-to-end synthesis differential
//===----------------------------------------------------------------------===//

TEST(ParallelPipelineDifferentialTest, SynthesisIdenticalAcrossThreads) {
  const TermPtr &T = models::modelByName("3362402:gear").FlatCsg;
  std::string Baseline;
  for (size_t Threads : ThreadCounts) {
    SynthesisOptions Opts;
    Opts.Limits.NumThreads = Threads;
    SynthesisResult R = Synthesizer(Opts).synthesize(T);
    std::ostringstream Os;
    for (const RankedTerm &P : R.Programs)
      Os << P.Cost << ' ' << printSexp(P.T) << "\n";
    if (Threads == 1)
      Baseline = Os.str();
    else
      ASSERT_EQ(Os.str(), Baseline)
          << "synthesis diverges at NumThreads=" << Threads;
  }
}
