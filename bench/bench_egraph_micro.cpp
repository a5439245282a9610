//===-- bench/bench_egraph_micro.cpp - Engine microbenchmarks -------------===//
//
// google-benchmark measurements of the e-graph engine, plus the two
// single-step figures:
//
//  * Figure 7: one firing of the affine-lifting rule on
//    Union(Trans(1,2,3,c), Trans(1,2,3,c')) — the e-graph must gain the
//    lifted Translate node in the root class.
//  * Figure 9: the two-cube pipeline: fold rule, determinize, function
//    inference — the list class must gain the Mapi node.
//
// The microbenchmarks cover addTerm throughput, merge+rebuild, e-matching,
// and one-best/k-best extraction. The saturation stress case is NOT a
// google-benchmark loop: it runs once, instrumented, and reports one JSON
// row per Runner iteration (nodes, matches, seconds) plus one row per
// rewrite rule (search/apply time, match counts) so a regression in a
// single iteration or rule is visible in the BENCH trajectory instead of
// hiding inside an opaque total.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "cad/Term.h"
#include "egraph/Extract.h"
#include "egraph/Runner.h"
#include "rewrites/Rules.h"
#include "solvers/FunctionSolver.h"
#include "synth/Cost.h"
#include "synth/Determinize.h"
#include "synth/Inference.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string_view>

using namespace shrinkray;

namespace {

/// A right-nested union chain of n translated cubes.
TermPtr chain(int N) {
  std::vector<TermPtr> Cubes;
  for (int I = 1; I <= N; ++I)
    Cubes.push_back(tTranslate(2.0 * I, 0, 0, tUnit()));
  return tUnionAll(Cubes);
}

void BM_AddTermChain(benchmark::State &State) {
  TermPtr T = chain(static_cast<int>(State.range(0)));
  for (auto _ : State) {
    EGraph G;
    benchmark::DoNotOptimize(G.addTerm(T));
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_AddTermChain)->Arg(16)->Arg(64)->Arg(256)->Complexity();

void BM_MergeRebuild(benchmark::State &State) {
  // Merge n leaf pairs under shared parents and restore congruence.
  const int N = static_cast<int>(State.range(0));
  for (auto _ : State) {
    State.PauseTiming();
    EGraph G;
    std::vector<EClassId> As, Bs;
    for (int I = 0; I < N; ++I) {
      TermPtr A = tTranslate(I, 0, 0, tUnit());
      TermPtr B = tTranslate(I, 1, 0, tUnit());
      As.push_back(G.addTerm(A));
      Bs.push_back(G.addTerm(B));
      G.addTerm(tScale(2, 2, 2, A));
      G.addTerm(tScale(2, 2, 2, B));
    }
    State.ResumeTiming();
    for (int I = 0; I < N; ++I)
      G.merge(As[I], Bs[I]);
    G.rebuild();
    benchmark::DoNotOptimize(G.numClasses());
  }
}
BENCHMARK(BM_MergeRebuild)->Arg(16)->Arg(64)->Arg(256);

void BM_EMatchLift(benchmark::State &State) {
  EGraph G;
  for (int I = 0; I < static_cast<int>(State.range(0)); ++I)
    G.addTerm(tUnion(tTranslate(I, 2, 3, tUnit()),
                     tTranslate(I, 2, 3, tSphere())));
  G.rebuild();
  Pattern P =
      Pattern::parse("(Union (Translate ?v ?a) (Translate ?v ?b))");
  for (auto _ : State)
    benchmark::DoNotOptimize(P.search(G));
}
BENCHMARK(BM_EMatchLift)->Arg(16)->Arg(64)->Arg(256);

void BM_ExtractOneBest(benchmark::State &State) {
  EGraph G;
  G.addTerm(chain(static_cast<int>(State.range(0))));
  Runner R(RunnerLimits{
        .IterLimit = static_cast<size_t>(2 * State.range(0) + 8)});
  R.run(G, pipelineRules());
  AstSizeCost Cost;
  for (auto _ : State) {
    KBestExtractor Ex(G, Cost, 1);
    benchmark::DoNotOptimize(Ex.extract(0));
  }
}
BENCHMARK(BM_ExtractOneBest)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_ExtractKBest(benchmark::State &State) {
  EGraph G;
  EClassId Root = G.addTerm(chain(16));
  Runner R(RunnerLimits{.IterLimit = 40});
  R.run(G, pipelineRules());
  AstSizeCost Cost;
  for (auto _ : State) {
    KBestExtractor Ex(G, Cost, static_cast<size_t>(State.range(0)));
    benchmark::DoNotOptimize(Ex.extract(Root));
  }
}
BENCHMARK(BM_ExtractKBest)->Arg(1)->Arg(5)->Arg(10)
    ->Unit(benchmark::kMillisecond);

void BM_TrigSolver(benchmark::State &State) {
  FunctionSolver S;
  std::vector<double> Ys;
  for (int I = 0; I < static_cast<int>(State.range(0)); ++I)
    Ys.push_back(7.07 * std::sin(degToRad(30.0 * I + 45.0)));
  for (auto _ : State)
    benchmark::DoNotOptimize(S.fitTrig(Ys));
}
BENCHMARK(BM_TrigSolver)->Arg(6)->Arg(12)->Arg(24);

void BM_PolySolverNoisy(benchmark::State &State) {
  FunctionSolver S;
  std::vector<double> Ys;
  for (int I = 0; I < static_cast<int>(State.range(0)); ++I)
    Ys.push_back(5.0 * (I + 1) + (I % 2 ? 8e-4 : -8e-4));
  for (auto _ : State)
    benchmark::DoNotOptimize(S.fitPoly(Ys, 1));
}
BENCHMARK(BM_PolySolverNoisy)->Arg(8)->Arg(32)->Arg(128);

//===----------------------------------------------------------------------===//
// Saturation stress case: one instrumented run, one JSON row per
// iteration and per rule.
//===----------------------------------------------------------------------===//

void runSaturationStress(bench::JsonReport &Report) {
  const int N = 32;
  EGraph G;
  G.addTerm(chain(N));
  Runner R(RunnerLimits{.IterLimit = static_cast<size_t>(2 * N + 8)});
  RunnerReport Run = R.run(G, pipelineRules());

  std::printf("\nsaturation stress (chain n=%d): %zu iterations, %.3fs\n",
              N, Run.numIterations(), Run.Seconds);
  std::printf("%6s | %8s | %8s | %8s | %9s\n", "iter", "nodes", "matches",
              "applied", "sec");
  for (size_t I = 0; I < Run.Iterations.size(); ++I) {
    const IterationStats &S = Run.Iterations[I];
    std::printf("%6zu | %8zu | %8zu | %8zu | %9.4f\n", I, S.Nodes,
                S.Matches, S.Applied, S.Seconds);
    Report.row()
        .add("kind", "iteration")
        .add("iter", I)
        .add("nodes", S.Nodes)
        .add("classes", S.Classes)
        .add("matches", S.Matches)
        .add("applied", S.Applied)
        .add("time_sec", S.Seconds);
  }
  // Per-rule breakdown, heaviest searchers first; rules that never
  // matched stay out of the report to keep the trajectory readable.
  std::vector<const RuleStats *> ByCost;
  for (const RuleStats &S : Run.Rules)
    if (S.Matches > 0)
      ByCost.push_back(&S);
  std::sort(ByCost.begin(), ByCost.end(),
            [](const RuleStats *A, const RuleStats *B) {
              return A->SearchSec + A->ApplySec > B->SearchSec + B->ApplySec;
            });
  for (const RuleStats *S : ByCost)
    Report.row()
        .add("kind", "rule")
        .add("rule", S->Name)
        .add("search_sec", S->SearchSec)
        .add("apply_sec", S->ApplySec)
        .add("matches", S->Matches)
        .add("applied", S->Applied)
        .add("full_searches", S->FullSearches)
        .add("incremental_searches", S->IncrementalSearches)
        .add("bans", S->Bans);
  Report.top()
      .add("saturation_iters", Run.numIterations())
      .add("saturation_sec", Run.Seconds)
      .add("saturation_search_sec", Run.SearchSec)
      .add("saturation_apply_sec", Run.ApplySec)
      .add("saturation_rebuild_sec", Run.RebuildSec)
      .add("saturation_nodes", G.numNodes());
}

//===----------------------------------------------------------------------===//
// Figure 7 and Figure 9 single-step checks (run once at startup; they
// print PASS/FAIL lines before the benchmark table).
//===----------------------------------------------------------------------===//

bool checkFigure7() {
  EGraph G;
  TermPtr C1 = tSphere(), C2 = tCylinder();
  EClassId Root = G.addTerm(
      tUnion(tTranslate(1, 2, 3, C1), tTranslate(1, 2, 3, C2)));
  // A single firing of the lifting rule (the Figure 7 step).
  for (Rewrite &R : liftingRules())
    if (R.name() == "lift-Translate-over-Union")
      R.run(G);
  return G.representsTerm(Root, tTranslate(1, 2, 3, tUnion(C1, C2)));
}

bool checkFigure9() {
  // Two translated cubes: fold rule, determinize, function inference.
  EGraph G;
  G.addTerm(tUnion(tTranslate(2, 0, 0, tUnit()),
                   tTranslate(4, 0, 0, tUnit())));
  Runner R(RunnerLimits{.IterLimit = 8});
  R.run(G, foldRules());

  Pattern FoldPat = Pattern::parse("(Fold Union Empty ?l)");
  auto Matches = FoldPat.search(G);
  if (Matches.empty())
    return false;
  EClassId ListClass = G.find(Matches[0].second[Symbol("l")]);
  std::vector<ChainDecomposition> Ds = determinize(G, ListClass);
  if (Ds.empty())
    return false;
  FunctionSolver Solver;
  std::vector<InferenceRecord> Recs =
      inferFunctions(G, ListClass, Ds[0], Solver);
  G.rebuild();
  return !Recs.empty();
}

} // namespace

int main(int Argc, char **Argv) {
  bench::JsonReport Report("egraph_micro");
  bool Fig7 = checkFigure7(), Fig9 = checkFigure9();
  std::printf("Figure 7 single rule firing : %s\n", Fig7 ? "PASS" : "FAIL");
  std::printf("Figure 9 two-cube pipeline  : %s\n", Fig9 ? "PASS" : "FAIL");

  // Default to a short measurement window: the microbenchmarks here track
  // order-of-magnitude trends, not nanosecond precision, and the BENCH
  // trajectory cares about total harness wall time. An explicit
  // --benchmark_min_time on the command line still wins.
  std::vector<char *> Args(Argv, Argv + Argc);
  // Plain-double spelling: older google-benchmark releases reject the
  // suffixed "0.05s" form.
  char MinTime[] = "--benchmark_min_time=0.05";
  bool HasMinTime = false;
  for (char *A : Args)
    if (std::string_view(A).rfind("--benchmark_min_time", 0) == 0)
      HasMinTime = true;
  if (!HasMinTime)
    Args.push_back(MinTime);
  int BenchArgc = static_cast<int>(Args.size());
  benchmark::Initialize(&BenchArgc, Args.data());
  benchmark::RunSpecifiedBenchmarks();

  runSaturationStress(Report);
  Report.top().add("figure7_pass", Fig7).add("figure9_pass", Fig9);
  return Report.write() && Fig7 && Fig9 ? 0 : 1;
}
