//===-- bench/bench_ablation.cpp - Design-choice ablations ----------------===//
//
// Ablations for the pipeline's design choices (not a paper table; this
// quantifies why each pipeline phase exists). Each configuration runs the
// full corpus and reports how many models expose structure in top-5 and
// the average size reduction:
//
//   full            — the shipped pipeline
//   no-sorting      — list manipulation disabled (Sec. 4.3 off)
//   no-loop-inf     — nested-loop inference disabled (Sec. 5 off)
//   no-irregular    — irregular-grid fallback disabled
//   low-fuel        — IterLimit 8 (saturation starved)
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "models/Models.h"

using namespace shrinkray;
using namespace shrinkray::bench;
using namespace shrinkray::models;

namespace {

struct AblationResult {
  int Structured = 0;
  double AvgReduction = 0.0;
  double TotalSeconds = 0.0;
};

AblationResult runCorpus(const SynthesisOptions &Base) {
  AblationResult Out;
  std::vector<BenchmarkModel> Corpus = allModels();
  for (const BenchmarkModel &M : Corpus) {
    SynthesisOptions Opts = Base;
    SynthesisResult R = Synthesizer(Opts).synthesize(M.FlatCsg);
    size_t Rank = R.structureRank();
    if (Rank == 0 && M.ExpectStructure) {
      Opts.Cost = CostKind::RewardLoops;
      SynthesisResult R2 = Synthesizer(Opts).synthesize(M.FlatCsg);
      Rank = R2.structureRank();
      Out.TotalSeconds += R2.Stats.Seconds;
    }
    Out.Structured += Rank > 0 ? 1 : 0;
    Out.AvgReduction += reductionPct(
        termSize(M.FlatCsg),
        R.Programs.empty() ? termSize(M.FlatCsg) : termSize(R.best()));
    Out.TotalSeconds += R.Stats.Seconds;
  }
  Out.AvgReduction /= static_cast<double>(Corpus.size());
  return Out;
}

} // namespace

int main() {
  JsonReport Report("ablation");
  std::printf("== Ablations over the 16-model corpus ==\n\n");
  std::printf("%-14s | %-10s | %-13s | %s\n", "config", "structure",
              "avg size red.", "time(s)");
  printRule('-', 60);

  auto report = [&Report](const char *Name, const AblationResult &R) {
    std::printf("%-14s | %6d/16  | %12.1f%% | %7.1f\n", Name, R.Structured,
                R.AvgReduction, R.TotalSeconds);
    Report.row()
        .add("config", Name)
        .add("structured", R.Structured)
        .add("avg_size_reduction_pct", R.AvgReduction)
        .add("time_sec", R.TotalSeconds);
  };

  SynthesisOptions Full;
  report("full", runCorpus(Full));

  SynthesisOptions NoSort = Full;
  NoSort.EnableListSorting = false;
  report("no-sorting", runCorpus(NoSort));

  SynthesisOptions NoLoops = Full;
  NoLoops.EnableLoopInference = false;
  report("no-loop-inf", runCorpus(NoLoops));

  SynthesisOptions NoIrregular = Full;
  NoIrregular.EnableIrregular = false;
  report("no-irregular", runCorpus(NoIrregular));

  SynthesisOptions LowFuel = Full;
  LowFuel.Limits.IterLimit = 8;
  report("low-fuel", runCorpus(LowFuel));

  std::printf("\nexpected shape: 'full' dominates; low-fuel loses the "
              "long-chain models (gear) because fold extension needs ~n "
              "iterations; no-loop-inf keeps n1 loops but loses n2 grids' "
              "nesting\n");
  return Report.write() ? 0 : 1;
}
