//===-- synth/Synthesizer.h - The ShrinkRay pipeline ------------*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end ShrinkRay pipeline (paper Figure 5): build an e-graph from
/// the flat CSG, saturate it with the syntactic rewrites, determinize and
/// sort fold lists, invoke the arithmetic solvers to insert Mapi/nested-Fold
/// programs, and extract the top-k LambdaCAD programs under a cost function.
///
/// Typical use:
/// \code
///   SynthesisResult R = Synthesizer().synthesize(flatCsg);
///   for (const RankedTerm &P : R.Programs)
///     std::cout << prettyPrint(P.T) << "\n";
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_SYNTH_SYNTHESIZER_H
#define SHRINKRAY_SYNTH_SYNTHESIZER_H

#include "egraph/Runner.h"
#include "synth/Cost.h"
#include "synth/Inference.h"
#include "synth/ListManip.h"

namespace shrinkray {

/// Pipeline configuration.
struct SynthesisOptions {
  RunnerLimits Limits;         ///< rewriting fuel (paper's `fuel`)
  SolverOptions Solver;        ///< epsilon band etc.
  size_t TopK = 5;             ///< programs to return (paper uses 5)
  CostKind Cost = CostKind::AstSize;
  bool EnableLoopInference = true;
  bool EnableIrregular = true;
  bool EnableListSorting = true;
  size_t MaxFoldSites = 256;   ///< guard against pathological inputs
  /// Export a warm-start snapshot (SynthesisResult::Snapshot) capturing
  /// the post-saturation, pre-solve pipeline state. Captured only when
  /// the saturation round stopped on a deterministic reason (never
  /// TimeLimit or a cancellation). Pure bookkeeping: the synthesis itself
  /// is byte-identical either way.
  bool CaptureSnapshot = false;
  /// Export the final e-graph's debug dump (SynthesisResult::GraphDump).
  /// Differential tests byte-compare warm and cold dumps with this; it is
  /// far too expensive for production runs.
  bool KeepGraphDump = false;
};

/// A warm-start seed for Synthesizer::synthesizeWarm: the blobs a previous
/// run captured (SynthesisResult::Snapshot), plus what the caller — the
/// service snapshot tier — already validated about the pairing.
struct WarmStart {
  std::string Graph;   ///< e-graph snapshot (EGraph::serialize bytes)
  std::string Cursors; ///< saturation continuation (serializeRunnerCursors)
  /// True when the request's input is byte-identical to the captured
  /// run's input (the caller compares exact input hashes); false for the
  /// localized-edit path, which re-seeds the changed term and resumes
  /// saturation until the graph closes over it.
  bool SameInput = false;
};

/// Statistics of one synthesis run.
struct SynthesisStats {
  /// True when the run's cancellation token (SynthesisOptions::Limits.
  /// Cancel — a deadline or an explicit service-side cancel) fired before
  /// the pipeline finished. The result is then *partial*: programs come
  /// from whatever the e-graph held at the cancellation point (always
  /// well-formed, equivalent terms — just not necessarily the ones a full
  /// run would rank first).
  bool Cancelled = false;
  RunnerReport Rewriting;      ///< saturation report
  /// Primitives removed by input canonicalization (duplicate Union
  /// operands; union is idempotent). 0 for duplicate-free inputs, where
  /// canonicalization is the identity.
  size_t DedupedPrimitives = 0;
  size_t FoldSites = 0;        ///< fold contexts examined
  size_t Decompositions = 0;   ///< determinized lists solved
  std::vector<InferenceRecord> Records; ///< programs the solvers inserted
  size_t ENodes = 0;           ///< final graph size
  size_t EClasses = 0;
  double Seconds = 0.0;        ///< end-to-end wall clock
  // Per-phase wall clock. The three phases cover nearly all of Seconds;
  // the remainder is graph setup.
  double RewriteSeconds = 0.0; ///< equality saturation (Runner)
  double SolveSeconds = 0.0;   ///< determinize + solver inference + sorting
  double ExtractSeconds = 0.0; ///< top-k derivation + extract (one pass)
  // Saturation sub-phases (RunnerReport totals): compiled-group search,
  // memo-filtered apply, and rebuild + dirty-log compaction.
  double RewriteSearchSeconds = 0.0;
  double RewriteApplySeconds = 0.0;
  double RewriteRebuildSeconds = 0.0;
  // The solver's share of SolveSeconds (SolveBreakdown totals): sequence
  // profiling, family pruning, and fitting the surviving families. The
  // remainder of SolveSeconds is determinization, graph insertion, and
  // the multi-index loop fits.
  double SolvePreprocessSeconds = 0.0;
  double SolvePruneSeconds = 0.0;
  double SolveFitSeconds = 0.0;
  // Warm-start accounting (synthesizeWarm). A warm run that aborts falls
  // back to the cold pipeline; its result is then exactly the cold result
  // with WarmStartAborted set.
  bool WarmStart = false;        ///< run started from a restored snapshot
  bool WarmStartEdit = false;    ///< warm run re-seeded an edited input
  bool WarmStartAborted = false; ///< warm attempt failed; result is cold
  size_t WarmResumedIters = 0;   ///< saturation iterations run on resume
  size_t WarmSkippedIters = 0;   ///< captured iterations the resume skipped
  double WarmRestoreSeconds = 0.0; ///< graph + cursor restore time
};

/// The warm-start state a run exports when SynthesisOptions::
/// CaptureSnapshot is set: everything a later near-miss request needs to
/// restore the pipeline at its post-saturation, pre-solve point.
struct SynthesisSnapshot {
  bool Present = false; ///< false when capture was skipped (see options doc)
  std::string Graph;    ///< e-graph at the capture point
  std::string Cursors;  ///< saturation continuation state
  StopReason Stop = StopReason::Saturated; ///< why saturation stopped
  uint64_t IterationsDone = 0;             ///< absolute iterations consumed
};

/// The top-k programs plus run statistics.
struct SynthesisResult {
  std::vector<RankedTerm> Programs; ///< cheapest first; never empty on
                                    ///< success (index 0 == best)
  SynthesisStats Stats;
  SynthesisSnapshot Snapshot; ///< warm-start capture (CaptureSnapshot)
  std::string GraphDump;      ///< final-graph dump (KeepGraphDump)

  const TermPtr &best() const {
    assert(!Programs.empty() && "synthesis produced no programs");
    return Programs.front().T;
  }

  /// Rank (1-based) of the first program exposing loop structure, or 0
  /// when none does (Table 1 column `r`).
  size_t structureRank() const;
};

/// The ShrinkRay synthesizer.
class Synthesizer {
public:
  explicit Synthesizer(SynthesisOptions Opts = {}) : Opts(Opts) {}

  /// Lifts a flat CSG model into parameterized LambdaCAD programs.
  /// \p FlatCsg must satisfy isFlatCsg().
  SynthesisResult synthesize(const TermPtr &FlatCsg) const;

  /// Like synthesize(), but restores \p W instead of saturating from
  /// scratch: the captured graph comes back up, the (possibly edited)
  /// input is re-seeded, saturation resumes from the stored cursors only
  /// as far as the request needs, and extraction derives once on the
  /// finished graph exactly as a cold run does. The warm result is
  /// identical to the cold one — same programs, same ranks, and for
  /// same-input requests the same final graph byte-for-byte — because
  /// restore-then-continue replays the exact mutation sequence the cold
  /// run would have performed past the capture point. Any validation
  /// failure, or a resumed edit that fails to re-saturate, falls back to
  /// the cold pipeline (Stats.WarmStartAborted).
  SynthesisResult synthesizeWarm(const TermPtr &FlatCsg,
                                 const WarmStart &W) const;

  const SynthesisOptions &options() const { return Opts; }

private:
  SynthesisResult synthesizeImpl(const TermPtr &FlatCsg, const WarmStart *W,
                                 bool &Aborted) const;

  SynthesisOptions Opts;
};

/// Syntactic loop summary of a synthesized program (Table 1 columns n-l/f).
struct LoopSummary {
  bool HasLoops = false;
  std::string Notation; ///< e.g. "n1,60" or "n2,2,3"; ";"-joined if several
  std::string Forms;    ///< e.g. "d1", "d2", "theta"; ","-joined unique
};

/// Summarizes the loops and closed-form classes appearing in \p Program.
LoopSummary describeLoops(const TermPtr &Program);

} // namespace shrinkray

#endif // SHRINKRAY_SYNTH_SYNTHESIZER_H
