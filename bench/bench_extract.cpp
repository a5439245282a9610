//===-- bench/bench_extract.cpp - Extraction-engine benchmark -------------===//
//
// Per-phase timing of the extraction engine on Table 1's tail models (the
// models where, after the PR-2 matching speedups, extraction and the
// solvers dominate end-to-end synthesis — see ROADMAP.md). For each model
// the harness reports JSON rows keyed by (model, kind):
//
//   synth_rewrite / synth_solve / synth_extract
//       phase breakdown of one full Synthesizer run (SynthesisStats);
//   saturate_warm / saturate_rest
//       saturation in two stages (a few iterations, then the rest), so the
//       rows stay comparable with earlier trajectories;
//   onebest_oracle
//       the whole-graph fixed-point one-best oracle (tests/oracles);
//   kbest_scratch / kbest_oracle
//       the k-best engine on the saturated graph vs the fixed-point
//       k-best oracle;
//   pipeline_serial
//       saturation from scratch, then a from-scratch k-best derivation.
//
// At each model's root the engine's ranking is cross-checked against the
// k-best oracle, and its head cost against the one-best oracle, before
// timing is reported.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "egraph/Runner.h"
#include "models/Models.h"
#include "oracles/ReferenceExtract.h"
#include "rewrites/Rules.h"

using namespace shrinkray;
using namespace shrinkray::bench;
using namespace shrinkray::models;

namespace {

constexpr size_t TopK = 5;

/// Tail models: slowest end-to-end after the PR-2 matching speedups.
const char *const TailModels[] = {
    "3432939:nintendo-slot",
    "3362402:gear",
    "510849:wardrobe",
};

double timeRow(JsonReport &Report, const std::string &Model,
               const char *Kind, double Seconds, size_t Classes,
               size_t Nodes) {
  JsonObject &Row = Report.row()
                        .add("model", Model)
                        .add("kind", Kind)
                        .add("time_sec", Seconds)
                        .add("classes", Classes)
                        .add("nodes", Nodes);
  addResourceFields(Row);
  std::printf("  %-18s %8.4f s   (%zu classes, %zu nodes)\n", Kind, Seconds,
              Classes, Nodes);
  return Seconds;
}

/// Terms equal per ranked position — the cheap cross-check that the timed
/// engines computed the same answer.
bool sameRanking(const std::vector<RankedTerm> &A,
                 const std::vector<RankedTerm> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].Cost != B[I].Cost || !termEquals(A[I].T, B[I].T))
      return false;
  return true;
}

} // namespace

int main() {
  JsonReport Report("extract");
  std::printf("== Extraction engine on Table 1 tail models ==\n");
  const AstSizeCost Cost;
  bool AllIdentical = true;
  double EngineTotal = 0.0, OracleTotal = 0.0;

  for (const char *Name : TailModels) {
    const BenchmarkModel M = modelByName(Name);
    std::printf("\n-- %s --\n", Name);

    // One full pipeline run, phase-attributed.
    SynthesisResult R = Synthesizer().synthesize(M.FlatCsg);
    timeRow(Report, Name, "synth_rewrite", R.Stats.RewriteSeconds,
            R.Stats.EClasses, R.Stats.ENodes);
    timeRow(Report, Name, "synth_solve", R.Stats.SolveSeconds,
            R.Stats.EClasses, R.Stats.ENodes);
    timeRow(Report, Name, "synth_extract", R.Stats.ExtractSeconds,
            R.Stats.EClasses, R.Stats.ENodes);

    // Staged saturation: a few iterations, then the rest.
    EGraph G;
    EClassId Root = G.addTerm(M.FlatCsg);
    G.rebuild();
    const std::vector<Rewrite> Rules = pipelineRules();

    WallTimer WarmTimer;
    Runner Warm(RunnerLimits{.IterLimit = 6});
    Warm.run(G, Rules);
    timeRow(Report, Name, "saturate_warm", WarmTimer.seconds(),
            G.numClasses(), G.numNodes());

    WallTimer RestTimer;
    Runner Rest(RunnerLimits{});
    Rest.run(G, Rules);
    timeRow(Report, Name, "saturate_rest", RestTimer.seconds(),
            G.numClasses(), G.numNodes());

    WallTimer OneOracleTimer;
    ReferenceExtractor OneOracle(G, Cost);
    timeRow(Report, Name, "onebest_oracle", OneOracleTimer.seconds(),
            G.numClasses(), G.numNodes());

    WallTimer KScratchTimer;
    KBestExtractor KScratch(G, Cost, TopK);
    double KSec = timeRow(Report, Name, "kbest_scratch",
                          KScratchTimer.seconds(), G.numClasses(),
                          G.numNodes());

    WallTimer KOracleTimer;
    ReferenceKBestExtractor KOracle(G, Cost, TopK);
    double KOracleSec =
        timeRow(Report, Name, "kbest_oracle", KOracleTimer.seconds(),
                G.numClasses(), G.numNodes());

    EngineTotal += KSec;
    OracleTotal += KOracleSec;

    // Cross-checks at the root: the engine's ranking equals the k-best
    // oracle's, and its head costs what the one-best oracle found.
    const std::vector<RankedTerm> Ranked = KScratch.extract(Root);
    bool Identical = sameRanking(Ranked, KOracle.extract(Root)) &&
                     !Ranked.empty() &&
                     OneOracle.bestCost(Root) == Ranked.front().Cost;
    if (!Identical)
      std::printf("  !! engine/oracle DISAGREE on %s\n", Name);
    AllIdentical &= Identical;
  }

  // The whole pipeline tail on one thread: full saturation from scratch,
  // then a from-scratch top-k derivation of the final graph.
  // rewrite_apply_sec and extract_sec are gated fields in
  // tools/bench_diff.py. This loop deliberately runs AFTER the per-model
  // sections above: the rows up there gate against baselines measured
  // without this extra workload in front of them — perturbing their
  // warm-up state would read as a regression in code that did not change.
  std::printf("\n== Pipeline ==\n");
  for (const char *Name : TailModels) {
    const BenchmarkModel M = modelByName(Name);
    EGraph GT;
    GT.addTerm(M.FlatCsg);
    GT.rebuild();
    WallTimer ApplyTimer;
    RunnerReport Rep = Runner().run(GT, pipelineRules());
    double SaturateSec = ApplyTimer.seconds();
    WallTimer ExtractTimer;
    KBestExtractor KBest(GT, Cost, TopK);
    double ExtractSec = ExtractTimer.seconds();

    JsonObject &Row = Report.row();
    Row.add("model", Name)
        .add("kind", "pipeline_serial")
        .add("time_sec", SaturateSec + ExtractSec)
        .add("rewrite_apply_sec", Rep.ApplySec)
        .add("extract_sec", ExtractSec)
        .add("classes", GT.numClasses())
        .add("nodes", GT.numNodes());
    addResourceFields(Row);
    std::printf("  %-18s %-18s %8.4f s   (apply %.4f s, extract %.4f s)\n",
                Name, "pipeline_serial", SaturateSec + ExtractSec,
                Rep.ApplySec, ExtractSec);
  }

  std::printf("\nk-best engine total %.4f s vs oracle total %.4f s (%.1fx)\n",
              EngineTotal, OracleTotal,
              EngineTotal > 0 ? OracleTotal / EngineTotal : 0.0);
  Report.top()
      .add("models", sizeof(TailModels) / sizeof(TailModels[0]))
      .add("top_k", TopK)
      .add("kbest_total_sec", EngineTotal)
      .add("kbest_oracle_total_sec", OracleTotal)
      .add("identical_to_oracle", AllIdentical);
  return Report.write() && AllIdentical ? 0 : 1;
}
