//===-- perfbench/src/Metrics.cpp - Clocks, percentiles, records ----------===//

#include "Metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sys/resource.h>

using namespace perfbench;

namespace {
double ProcessStart = 0.0;
} // namespace

double perfbench::nowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void perfbench::markProcessStart() { ProcessStart = nowSec(); }
double perfbench::processStartSec() { return ProcessStart; }

double perfbench::processCpuSec() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const struct timeval &T) {
    return static_cast<double>(T.tv_sec) +
           1e-6 * static_cast<double>(T.tv_usec);
  };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

double perfbench::peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double perfbench::percentile(std::vector<double> V, double Pct) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Pct / 100.0 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double perfbench::median(std::vector<double> V) {
  return percentile(std::move(V), 50.0);
}

void perfbench::stamp(Record &Rec, double Start) {
  Rec.DoneSec = nowSec();
  Rec.DoneCpuSec = processCpuSec();
  Rec.LatencyMs = (Rec.DoneSec - Start) * 1e3;
}

void perfbench::sumIterations(const shrinkray::RunnerReport &R,
                              double &Matches, double &Applied) {
  for (const shrinkray::IterationStats &I : R.Iterations) {
    Matches += static_cast<double>(I.Matches);
    Applied += static_cast<double>(I.Applied);
  }
}

void Figures::take(const shrinkray::SynthesisStats &S) {
  Synthesized = true;
  SaturateMs = S.RewriteSeconds * 1e3;
  SearchMs = S.RewriteSearchSeconds * 1e3;
  ApplyMs = S.RewriteApplySeconds * 1e3;
  RebuildMs = S.RewriteRebuildSeconds * 1e3;
  ExtractMs = S.ExtractSeconds * 1e3;
  SolveMs = S.SolveSeconds * 1e3;
  FitMs = S.SolveFitSeconds * 1e3;
  PruneMs = S.SolvePruneSeconds * 1e3;
  Iterations = static_cast<double>(S.Rewriting.numIterations());
  sumIterations(S.Rewriting, Matches, Applied);
  ENodes = static_cast<double>(S.ENodes);
  FoldSites = static_cast<double>(S.FoldSites);
  Inferences = static_cast<double>(S.Records.size());
  Warm = S.WarmStart;
  WarmEdit = S.WarmStartEdit;
  WarmAbort = S.WarmStartAborted;
  ResumedIters = static_cast<double>(S.WarmResumedIters);
  WarmRestoreMs = S.WarmRestoreSeconds * 1e3;
}
