//===-- perfbench/src/Metrics.h - Clocks, percentiles, records --*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What one benchmark run measures: the per-request record each workload
/// fills in, the per-layer figures the library's own statistics give for a
/// request, and the process clocks behind the end-to-end metrics.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_METRICS_H
#define PERFBENCH_METRICS_H

#include "cad/Term.h"
#include "synth/Synthesizer.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic seconds since an arbitrary epoch.
double nowSec();
/// Monotonic seconds at process start (main's first line records it).
double processStartSec();
void markProcessStart();
/// User + system CPU seconds of the whole process, all threads.
double processCpuSec();
/// Peak resident set of the process so far, in MiB.
double peakRssMb();

/// Linear-interpolated percentile (0..100) of \p V; 0 for an empty set.
double percentile(std::vector<double> V, double Pct);
double median(std::vector<double> V);

/// The figures the library reports for one request, per layer. Set only
/// in a traced run; zero where the layer did not run for the request.
struct Figures {
  bool Synthesized = false; ///< a pipeline ran (not a cache hit)
  double SaturateMs = 0, SearchMs = 0, ApplyMs = 0, RebuildMs = 0;
  double ExtractMs = 0, SolveMs = 0, FitMs = 0, PruneMs = 0;
  double Iterations = 0, Matches = 0, Applied = 0, ENodes = 0;
  double FoldSites = 0, Inferences = 0;
  bool Warm = false, WarmEdit = false, WarmAbort = false;
  double ResumedIters = 0, WarmRestoreMs = 0;
  bool InService = false; ///< went through a SynthesisService
  double QueueMs = 0, RunMs = 0;
  bool OverRpc = false; ///< went through the RPC server
  double RttMs = 0, OverheadMs = 0, CodecUs = 0, ResponseKb = 0;
  double SexpParseMs = -1, ScadParseMs = -1, PrintMs = -1; ///< -1: not timed

  /// Copies the pipeline figures out of \p S.
  void take(const shrinkray::SynthesisStats &S);
};

/// One program as a request returned it.
struct Program {
  shrinkray::TermPtr T; ///< parsed program (wire programs are parsed later)
  std::string Sexp;     ///< canonical s-expression (filled before checks)
  double Cost = 0.0;
};

/// One timed request.
struct Record {
  uint64_t Id = 0;  ///< position in the timed phase
  std::string Kind;   ///< request class: "model", "job", "edit", "undo", ...
  std::string Family; ///< shape family of the input
  std::string Source; ///< the text the program received
  bool IsScad = false;
  shrinkray::CostKind Cost = shrinkray::CostKind::AstSize;
  size_t TopK = 5;
  uint64_t InputNodes = 0; ///< AST nodes of the flat input
  double LatencyMs = 0.0;
  double DoneSec = 0.0;    ///< completion time (nowSec)
  double DoneCpuSec = 0.0; ///< process CPU seconds at completion
  bool CacheHit = false;
  bool Failed = false;   ///< the request itself failed
  std::string Error;     ///< why it failed, or why a check rejected it
  bool CheckFailed = false;
  bool WantCold = false; ///< compare with a direct cold synthesis
  std::vector<Program> Programs;
  Figures F;
};

/// Everything a workload run hands back to the reporting code.
struct RunResult {
  std::vector<Record> Records;
  std::vector<double> SetupSec; ///< one per set-up repetition
  double StartSec = 0.0;    ///< start of the timed phase (nowSec)
  double StartCpuSec = 0.0; ///< process CPU seconds at that start
  double TimedSec = 0.0;
  double PeakRssMb = 0.0;
  size_t RoundSize = 0;  ///< requests in one pass over the request cycle
  /// Completions per window: jobs_per_s, cpu_ms_per_job and
  /// latency_p50_ms are medians over consecutive windows of this many
  /// completions (a round, or a round per caller), so a few seconds of
  /// interference from outside the process move them less.
  size_t WindowSize = 0;
  unsigned Rounds = 0;   ///< whole rounds timed
  double TailPct = 90.0; ///< which percentile latency_tail_ms reports
  /// Per-layer counters measured around the timed phase (counter deltas).
  double CacheHits = 0, SnapshotHits = 0, CacheStores = 0, SnapshotStores = 0;
  double TermsInterned = 0, InternHits = 0;
};

/// Stamps \p Rec as completed now, for a request started at \p Start.
void stamp(Record &Rec, double Start);

/// Sums the Matches/Applied columns of a saturation report.
void sumIterations(const shrinkray::RunnerReport &R, double &Matches,
                   double &Applied);

} // namespace perfbench

#endif // PERFBENCH_METRICS_H
