//===-- perfbench/src/Workloads.h - The benchmark's workloads ---*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads. Each is closed loop (every caller waits for its
/// reply before sending the next request), sets itself up several times
/// and keeps the last set-up, then times whole rounds of its request cycle
/// until the run length has passed. See README.md for their make-up.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Metrics.h"
#include "Trace.h"

#include <string>

namespace perfbench {

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  unsigned Threads = 4; ///< service workers and callers, check threads
};

RunResult runLargeModels(const RunConfig &C, Tracer &T);
RunResult runBatchCorpus(const RunConfig &C, Tracer &T);
RunResult runEditSession(const RunConfig &C, Tracer &T);

/// Runs every output check over \p R after the timed phase, on
/// C.Threads threads: geometry and cost on every record, cold equality on
/// the records that asked for it, then the self-test. Marks failing
/// records; returns false when any check or the self-test failed.
bool checkRun(RunResult &R, const RunConfig &C, std::string &Log);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
