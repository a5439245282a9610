//===-- perfbench/src/main.cpp - The repository benchmark -----------------===//
//
// Runs one workload for one seed and prints its metrics:
//
//   perfbench --workload large-models|batch-corpus|edit-session
//             [--seed N] [--seconds S] [--trace 0|1]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones, and
// the spans go to the Chrome trace-event file
// .bench_out/trace-<workload>-<seed>.json. Exit code 0 when every request
// succeeded and passed every check, 1 otherwise, 2 on bad usage.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "synth/Synthesizer.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

using namespace shrinkray;
using namespace perfbench;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload large-models|batch-corpus|"
               "edit-session [--seed N] [--seconds S] [--trace 0|1]\n");
}

double mean(double Sum, double N) { return N > 0 ? Sum / N : 0.0; }

/// Medians over windows of R.WindowSize consecutive completions of the
/// completion rate (1/s), of the CPU time per completion (ms) and of the
/// median latency (ms).
void windowMedians(const RunResult &R, double &Rate, double &CpuMs,
                   double &P50Ms) {
  std::vector<const Record *> Done;
  for (const Record &Rec : R.Records)
    if (!Rec.Failed)
      Done.push_back(&Rec);
  std::sort(Done.begin(), Done.end(), [](const Record *A, const Record *B) {
    return A->DoneSec < B->DoneSec;
  });
  std::vector<double> Rates, Cpus, P50s;
  double T = R.StartSec, Cpu = R.StartCpuSec;
  double N = static_cast<double>(R.WindowSize);
  for (size_t End = R.WindowSize; R.WindowSize && End <= Done.size();
       End += R.WindowSize) {
    const Record &Last = *Done[End - 1];
    Rates.push_back(N / (Last.DoneSec - T));
    Cpus.push_back((Last.DoneCpuSec - Cpu) * 1e3 / N);
    std::vector<double> Lat;
    for (size_t I = End - R.WindowSize; I < End; ++I)
      Lat.push_back(Done[I]->LatencyMs);
    P50s.push_back(median(Lat));
    T = Last.DoneSec;
    Cpu = Last.DoneCpuSec;
  }
  Rate = median(Rates);
  CpuMs = median(Cpus);
  P50Ms = median(P50s);
}

std::vector<Metric> endToEnd(const RunResult &R) {
  std::vector<double> Lat;
  double InNodes = 0, OutNodes = 0, Loops = 0;
  for (const Record &Rec : R.Records) {
    if (Rec.Failed)
      continue;
    Lat.push_back(Rec.LatencyMs);
    if (Rec.Programs.empty())
      continue;
    InNodes += static_cast<double>(Rec.InputNodes);
    OutNodes += static_cast<double>(termSize(Rec.Programs.front().T));
    for (const Program &P : Rec.Programs)
      if (describeLoops(P.T).HasLoops) {
        ++Loops;
        break;
      }
  }
  double Rate = 0, CpuMs = 0, P50Ms = 0;
  windowMedians(R, Rate, CpuMs, P50Ms);
  return {
      {"setup_s", median(R.SetupSec), "s"},
      {"jobs_per_s", Rate, "1/s"},
      {"latency_p50_ms", P50Ms, "ms"},
      {"latency_tail_ms", percentile(Lat, R.TailPct), "ms"},
      {"cpu_ms_per_job", CpuMs, "ms"},
      {"peak_rss_mb", R.PeakRssMb, "MiB"},
      {"size_reduction_pct",
       InNodes > 0 ? 100.0 * (1.0 - OutNodes / InNodes) : 0.0, "%"},
      // Per round, so the figure does not depend on how many rounds fit.
      {"loops_recovered", mean(Loops, R.Rounds), "count"},
  };
}

/// A running mean.
struct Mean {
  double Sum = 0, N = 0;
  void add(double V) {
    Sum += V;
    ++N;
  }
  double get() const { return mean(Sum, N); }
};

std::vector<Metric> perLayer(const RunResult &R) {
  Mean Saturate, Search, Apply, Rebuild, Extract, Solve, Fit, Prune;
  Mean Iterations, Matches, Applied, ENodes, FoldSites, Inferences;
  Mean Resumed, Restore, Queue, Run, Rtt, Overhead, Codec, Response;
  Mean ScadParse, SexpParse, Print;
  double WarmEdits = 0, WarmAborts = 0;
  for (const Record &Rec : R.Records) {
    const Figures &F = Rec.F;
    if (F.Synthesized) {
      Saturate.add(F.SaturateMs);
      Search.add(F.SearchMs);
      Apply.add(F.ApplyMs);
      Rebuild.add(F.RebuildMs);
      Extract.add(F.ExtractMs);
      Solve.add(F.SolveMs);
      Fit.add(F.FitMs);
      Prune.add(F.PruneMs);
      Iterations.add(F.Iterations);
      Matches.add(F.Matches);
      Applied.add(F.Applied);
      ENodes.add(F.ENodes);
      FoldSites.add(F.FoldSites);
      Inferences.add(F.Inferences);
      WarmEdits += F.WarmEdit ? 1 : 0;
      WarmAborts += F.WarmAbort ? 1 : 0;
      if (F.Warm) {
        Resumed.add(F.ResumedIters);
        Restore.add(F.WarmRestoreMs);
      }
    }
    if (F.InService) {
      Queue.add(F.QueueMs);
      Run.add(F.RunMs);
    }
    if (F.OverRpc) {
      Rtt.add(F.RttMs);
      Overhead.add(F.OverheadMs);
      Codec.add(F.CodecUs);
      Response.add(F.ResponseKb);
    }
    if (F.ScadParseMs >= 0)
      ScadParse.add(F.ScadParseMs);
    if (F.SexpParseMs >= 0)
      SexpParse.add(F.SexpParseMs);
    if (F.PrintMs >= 0)
      Print.add(F.PrintMs);
  }
  double Interned = R.TermsInterned, Hits = R.InternHits;
  return {
      {"egraph.saturate_ms", Saturate.get(), "ms"},
      {"egraph.search_ms", Search.get(), "ms"},
      {"egraph.apply_ms", Apply.get(), "ms"},
      {"egraph.rebuild_ms", Rebuild.get(), "ms"},
      {"egraph.iterations", Iterations.get(), "count"},
      {"egraph.matches", Matches.get(), "count"},
      {"egraph.applied", Applied.get(), "count"},
      {"egraph.applied_per_match", mean(Applied.Sum, Matches.Sum), "ratio"},
      {"egraph.extract_ms", Extract.get(), "ms"},
      {"egraph.enodes", ENodes.get(), "count"},
      {"egraph.resumed_iters", Resumed.get(), "count"},
      {"synth.fold_sites", FoldSites.get(), "count"},
      {"synth.inferences", Inferences.get(), "count"},
      {"solvers.solve_ms", Solve.get(), "ms"},
      {"solvers.fit_ms", Fit.get(), "ms"},
      {"solvers.prune_ms", Prune.get(), "ms"},
      {"service.queue_ms", Queue.get(), "ms"},
      {"service.run_ms", Run.get(), "ms"},
      {"service.cache_hits", R.CacheHits, "count"},
      {"service.snapshot_hits", R.SnapshotHits, "count"},
      {"service.warm_restore_ms", Restore.get(), "ms"},
      {"service.warm_edits", WarmEdits, "count"},
      {"service.warm_aborts", WarmAborts, "count"},
      {"service.cache_stores", R.CacheStores, "count"},
      {"service.snapshot_stores", R.SnapshotStores, "count"},
      {"server.rtt_ms", Rtt.get(), "ms"},
      {"server.overhead_ms", Overhead.get(), "ms"},
      {"server.codec_us", Codec.get(), "us"},
      {"server.response_kb", Response.get(), "KiB"},
      {"scad.parse_ms", ScadParse.get(), "ms"},
      {"cad.parse_ms", SexpParse.get(), "ms"},
      {"cad.print_ms", Print.get(), "ms"},
      {"cad.terms_interned", Interned, "count"},
      {"cad.intern_hit_rate", mean(Hits, Hits + Interned), "ratio"},
  };
}

/// Per-family latency (and, traced, e-graph size) to standard error: where
/// a run's time went, by input family.
void printFamilies(const RunResult &R) {
  std::map<std::string, std::vector<const Record *>> ByFamily;
  for (const Record &Rec : R.Records)
    ByFamily[Rec.Kind + " " + Rec.Family].push_back(&Rec);
  for (const auto &[Name, Recs] : ByFamily) {
    std::vector<double> Lat;
    double ENodes = 0;
    for (const Record *Rec : Recs) {
      Lat.push_back(Rec->LatencyMs);
      ENodes = std::max(ENodes, Rec->F.ENodes);
    }
    std::fprintf(stderr,
                 "  %-26s n=%-5zu p50 %9.3f ms  max %9.3f ms  e-nodes max "
                 "%.0f\n",
                 Name.c_str(), Recs.size(), median(Lat),
                 percentile(Lat, 100.0), ENodes);
  }
}

void printResult(bool Correct, size_t Attempted, size_t Failed,
                 const std::vector<Metric> &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              Correct ? "true" : "false", Attempted, Failed);
  for (size_t I = 0; I < Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                Metrics[I].Unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  markProcessStart();
  RunConfig C;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    const char *V = I + 1 < Argc ? Argv[I + 1] : nullptr;
    if (!V) {
      usage();
      return 2;
    }
    ++I;
    if (Arg == "--workload")
      C.Workload = V;
    else if (Arg == "--seed")
      C.Seed = std::strtoull(V, nullptr, 10);
    else if (Arg == "--seconds")
      C.Seconds = std::atof(V);
    else if (Arg == "--trace")
      C.Trace = std::strcmp(V, "0") != 0;
    else {
      usage();
      return 2;
    }
  }
  if (C.Seconds <= 0.0) {
    usage();
    return 2;
  }
  C.Threads = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));

  Tracer T(C.Trace);
  RunResult R;
  if (C.Workload == "large-models")
    R = runLargeModels(C, T);
  else if (C.Workload == "batch-corpus")
    R = runBatchCorpus(C, T);
  else if (C.Workload == "edit-session")
    R = runEditSession(C, T);
  else {
    usage();
    return 2;
  }

  std::string Log;
  bool Correct = checkRun(R, C, Log);
  size_t Failed = 0;
  for (const Record &Rec : R.Records) {
    if (Rec.Failed && Failed < 5)
      std::fprintf(stderr, "request %llu failed: %s\n",
                   static_cast<unsigned long long>(Rec.Id), Rec.Error.c_str());
    Failed += Rec.Failed || Rec.CheckFailed;
  }
  std::fputs(Log.c_str(), stderr);

  std::vector<Metric> E2E = endToEnd(R);
  std::fprintf(stderr,
               "%s seed %llu: %zu requests in %u rounds of %zu, %.2f s timed, "
               "tail = p%g; set-ups",
               C.Workload.c_str(), static_cast<unsigned long long>(C.Seed),
               R.Records.size(), R.Rounds, R.RoundSize, R.TimedSec, R.TailPct);
  for (double S : R.SetupSec)
    std::fprintf(stderr, " %.3f", S);
  std::fprintf(stderr, " s\n");
  for (const Metric &M : E2E)
    std::fprintf(stderr, "  %-20s %12.4f %s\n", M.Name.c_str(), M.Value,
                 M.Unit.c_str());
  printFamilies(R);

  std::vector<Metric> Reported = E2E;
  if (C.Trace) {
    Reported = perLayer(R);
    ::mkdir(".bench_out", 0755);
    std::string TraceOut = ".bench_out/trace-" + C.Workload + "-" +
                           std::to_string(C.Seed) + ".json";
    std::vector<std::pair<std::string, std::string>> Info = {
        {"workload", C.Workload}, {"seed", std::to_string(C.Seed)}};
    // The traced run's own end-to-end figures: compared with an untraced
    // run of the same seed they give the tracing overhead.
    for (const Metric &M : E2E)
      Info.push_back({"traced." + M.Name, std::to_string(M.Value)});
    if (!T.write(TraceOut, Reported, Info)) {
      std::fprintf(stderr, "cannot write %s\n", TraceOut.c_str());
      Correct = false;
    } else {
      std::fprintf(stderr, "trace: %zu spans -> %s\n", T.numSpans(),
                   TraceOut.c_str());
    }
  }
  printResult(Correct, R.Records.size(), Failed, Reported);
  return Correct && Failed == 0 && !R.Records.empty() ? 0 : 1;
}
