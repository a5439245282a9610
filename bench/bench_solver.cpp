//===-- bench/bench_solver.cpp - Solver step breakdown --------------------===//
//
// Per-model timing of the solver's steps (sequence profiling, family
// pruning, fitting) across the 16-model Table 1 corpus, plus the recorded
// duplicate-element pathology: a Union of three identical translated
// cubes, which before input canonicalization drove the fold-list rules
// into an unbounded blowup (~90 s / OOM) and now must synthesize in well
// under a second.
//
// The pathology row is a hard gate: this harness exits nonzero when the
// three-identical-cubes model takes >= 1 s end to end, when its duplicate
// operands are not collapsed, or when its best program is not the single
// deduplicated element. The per-model rows join the blocking bench_diff
// gate in CI (threshold: see .github/workflows/ci.yml).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "models/Models.h"

using namespace shrinkray;
using namespace shrinkray::bench;
using namespace shrinkray::models;

namespace {

void printHeader() {
  std::printf("%-28s | %7s | %7s %7s %7s %7s | %2s | %5s\n", "model", "t(s)",
              "slv(s)", "pre(s)", "prn(s)", "fit(s)", "r", "sound");
  printRule('-', 94);
}

void printRow(const std::string &Name, const MeasuredRow &Row) {
  std::printf("%-28s | %7.3f | %7.3f %7.3f %7.3f %7.3f | %2zu | %5s\n",
              Name.c_str(), Row.TimeSec, Row.SolveSec, Row.SolvePreprocessSec,
              Row.SolvePruneSec, Row.SolveFitSec, Row.Rank,
              Row.Sound ? "yes" : "NO");
}

/// The duplicate-element pathology input (also committed as
/// examples/sexp/three_identical_cubes.sexp): union is idempotent, so the
/// whole model reduces to one translated cube — but pre-canonicalization
/// the union-idem merge made the element's list self-referential and the
/// fold-list rules grew lists without bound.
TermPtr threeIdenticalCubes() {
  std::vector<TermPtr> Cubes;
  for (int I = 0; I < 3; ++I)
    Cubes.push_back(tTranslate(1, 2, 3, tUnit()));
  return tUnionAll(Cubes);
}

} // namespace

int main() {
  JsonReport Report("solver");
  std::printf("== Solver pipeline: per-stage breakdown over the Table 1 "
              "corpus ==\n\n");
  printHeader();

  double SumTime = 0.0, SumSolve = 0.0;
  double SumPre = 0.0, SumPrune = 0.0, SumFit = 0.0;
  int SoundCount = 0;
  std::vector<BenchmarkModel> Corpus = allModels();

  for (const BenchmarkModel &M : Corpus) {
    SynthesisOptions Opts;
    MeasuredRow Row = measureModel(M.FlatCsg, Opts);
    printRow(M.Name, Row);
    JsonObject &JRow = Report.row();
    JRow.add("model", M.Name);
    addMeasuredFields(JRow, Row);

    SumTime += Row.TimeSec;
    SumSolve += Row.SolveSec;
    SumPre += Row.SolvePreprocessSec;
    SumPrune += Row.SolvePruneSec;
    SumFit += Row.SolveFitSec;
    SoundCount += Row.Sound ? 1 : 0;
  }
  printRule('-', 94);

  // The pathology model. End-to-end wall clock (not just Stats.Seconds) so
  // a hang anywhere in the pipeline trips the gate.
  bool PathologyOk = true;
  const double PathologyBudgetSec = 1.0;
  {
    WallTimer Timer;
    SynthesisOptions Opts;
    TermPtr Input = threeIdenticalCubes();
    SynthesisResult R = Synthesizer(Opts).synthesize(Input);
    double Elapsed = Timer.seconds();

    MeasuredRow Row;
    Row.InputNodes = termSize(Input);
    Row.InputPrims = termPrimitives(Input);
    Row.InputDepth = termDepth(Input);
    Row.TimeSec = R.Stats.Seconds;
    Row.RewriteSec = R.Stats.RewriteSeconds;
    Row.SolveSec = R.Stats.SolveSeconds;
    Row.ExtractSec = R.Stats.ExtractSeconds;
    Row.SolvePreprocessSec = R.Stats.SolvePreprocessSeconds;
    Row.SolvePruneSec = R.Stats.SolvePruneSeconds;
    Row.SolveFitSec = R.Stats.SolveFitSeconds;
    if (!R.Programs.empty()) {
      Row.OutputNodes = termSize(R.best());
      Row.OutputPrims = termPrimitives(R.best());
      Row.OutputDepth = termDepth(R.best());
      EvalResult Flat = evalToFlatCsg(R.best());
      if (Flat) {
        geom::SampleOptions SampleOpts;
        SampleOpts.NumPoints = 4000;
        SampleOpts.MismatchTolerance = 0.002;
        Row.Sound = geom::sampleEquivalent(Input, Flat.Value, SampleOpts);
      }
    }
    printRow("pathology:3-ident-cubes", Row);

    if (Elapsed >= PathologyBudgetSec) {
      std::fprintf(stderr,
                   "[bench_solver] FAIL: pathology took %.3f s (budget %.1f "
                   "s)\n",
                   Elapsed, PathologyBudgetSec);
      PathologyOk = false;
    }
    if (R.Stats.DedupedPrimitives != 2) {
      std::fprintf(stderr,
                   "[bench_solver] FAIL: expected 2 deduped primitives, got "
                   "%zu\n",
                   R.Stats.DedupedPrimitives);
      PathologyOk = false;
    }
    if (R.Programs.empty() || termPrimitives(R.best()) != 1) {
      std::fprintf(stderr, "[bench_solver] FAIL: pathology best program is "
                           "not the single deduplicated element\n");
      PathologyOk = false;
    }

    JsonObject &JRow = Report.row();
    JRow.add("model", "pathology:three_identical_cubes");
    addMeasuredFields(JRow, Row);
    JRow.add("wall_sec", Elapsed)
        .add("deduped_prims", R.Stats.DedupedPrimitives)
        .add("enodes", R.Stats.ENodes);
  }

  std::printf("\n== Summary ==\n");
  std::printf("total time        : %.2f s\n", SumTime);
  std::printf("solver inference  : %.2f s  (profile %.3f + prune %.3f + fit "
              "%.3f + determinize/insert)\n",
              SumSolve, SumPre, SumPrune, SumFit);
  std::printf("soundness         : %d/%zu\n", SoundCount, Corpus.size());
  std::printf("pathology gate    : %s (< %.1f s, dedup, single element)\n",
              PathologyOk ? "ok" : "FAILED", PathologyBudgetSec);

  Report.top()
      .add("total_time_sec", SumTime)
      .add("solve_sec", SumSolve)
      .add("solve_preprocess_sec", SumPre)
      .add("solve_prune_sec", SumPrune)
      .add("solve_fit_sec", SumFit)
      .add("sound", SoundCount)
      .add("models", Corpus.size())
      .add("pathology_ok", PathologyOk);
  bool Wrote = Report.write();
  return (Wrote && PathologyOk) ? 0 : 1;
}
