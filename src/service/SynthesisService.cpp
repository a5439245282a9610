//===-- service/SynthesisService.cpp - Concurrent job scheduler -----------===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Worker-pool implementation of the synthesis service. One mutex guards
/// the queue and the job table; synthesis itself runs outside the lock,
/// so the lock is only ever held for queue surgery. Cancellation is
/// token-based: cancel() (and the per-job deadline) flips the token the
/// Runner and Synthesizer poll, so no thread is ever interrupted — a
/// cancelled job parks its partial result like any other completion.
///
//===----------------------------------------------------------------------===//

#include "service/SynthesisService.h"

#include "cad/Eval.h"
#include "cad/Sexp.h"
#include "rewrites/Rules.h"
#include "scad/ScadParser.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace shrinkray;
using namespace shrinkray::service;

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// Lockstep walk counting numeric-leaf value differences between the
/// captured input \p A and the request input \p B. Returns false on any
/// structural mismatch — everything except numeric leaf values (operator
/// kinds, symbol spellings, arities) must agree. Int/Float respellings of
/// one value are not an edit, matching the value-level input hash.
bool countNumericEdits(const Term &A, const Term &B, size_t &Edits) {
  const Op &OA = A.op();
  const Op &OB = B.op();
  const bool NumA = OA.kind() == OpKind::Int || OA.kind() == OpKind::Float;
  const bool NumB = OB.kind() == OpKind::Int || OB.kind() == OpKind::Float;
  if (NumA != NumB)
    return false;
  if (NumA) {
    if (OA.numericValue() != OB.numericValue())
      ++Edits;
  } else {
    if (OA.kind() != OB.kind())
      return false;
    switch (OA.kind()) {
    case OpKind::Var:
    case OpKind::External:
    case OpKind::PatVar:
      if (OA.symbol() != OB.symbol())
        return false;
      break;
    case OpKind::OpRef:
      if (OA.referencedOp() != OB.referencedOp())
        return false;
      break;
    default:
      break;
    }
  }
  if (A.numChildren() != B.numChildren())
    return false;
  for (size_t I = 0; I < A.numChildren(); ++I)
    if (!countNumericEdits(*A.child(I), *B.child(I), Edits))
      return false;
  return true;
}

} // namespace

SynthesisService::SynthesisService(ServiceConfig Cfg)
    : Cfg(Cfg), Cache(Cfg.CacheDir, Cfg.CacheLimits),
      RulesFp(ruleDatabaseFingerprint(pipelineRules())) {
  // More workers than hardware threads would only oversubscribe the
  // machine and run slower than fewer.
  const size_t HW = std::max(1u, std::thread::hardware_concurrency());
  const size_t N = Cfg.NumWorkers == 0 ? HW : std::min(Cfg.NumWorkers, HW);
  Workers.reserve(N);
  for (size_t I = 0; I < N; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

SynthesisService::~SynthesisService() {
  {
    std::lock_guard<std::mutex> Lock(M);
    Stopping = true;
    // Ask running jobs to wind down...
    for (auto &[Id, J] : Jobs)
      if (J->State != JobState::Done)
        J->Token.cancel();
    // ...and complete still-queued jobs as Cancelled right here: the
    // workers exit on Stopping without draining the queue, and a thread
    // blocked in wait() on an abandoned Pending job would otherwise
    // sleep through teardown and then race the condvar's destruction.
    for (JobId Id : Queue) {
      Job &J = *Jobs.find(Id)->second;
      if (J.State == JobState::Pending) {
        J.Outcome.St = JobOutcome::Status::Cancelled;
        J.State = JobState::Done;
        noteDoneLocked(J.Outcome);
      }
    }
    Queue.clear();
  }
  WorkCV.notify_all();
  DoneCV.notify_all();
  for (std::thread &T : Workers)
    T.join();
}

SynthesisService::JobId SynthesisService::enqueueLocked(JobSpec Spec) {
  JobId Id = NextId++;
  auto J = std::make_unique<Job>();
  J->Spec = std::move(Spec);
  J->Submitted = Clock::now();
  Jobs.emplace(Id, std::move(J));
  Queue.push_back(Id);
  ++Counters.Submitted;
  return Id;
}

SynthesisService::JobId SynthesisService::submit(JobSpec Spec) {
  JobId Id;
  {
    std::lock_guard<std::mutex> Lock(M);
    Id = enqueueLocked(std::move(Spec));
  }
  WorkCV.notify_one();
  return Id;
}

std::optional<SynthesisService::JobId>
SynthesisService::trySubmit(JobSpec Spec) {
  JobId Id;
  {
    std::lock_guard<std::mutex> Lock(M);
    if (Draining ||
        (Cfg.MaxQueueDepth != 0 && Queue.size() >= Cfg.MaxQueueDepth)) {
      ++Counters.Rejected;
      return std::nullopt;
    }
    Id = enqueueLocked(std::move(Spec));
  }
  WorkCV.notify_one();
  return Id;
}

void SynthesisService::noteDoneLocked(const JobOutcome &Out) {
  ++Counters.Completed;
  switch (Out.St) {
  case JobOutcome::Status::CacheHit:
    ++Counters.CacheHits;
    break;
  case JobOutcome::Status::Succeeded:
    ++Counters.Succeeded;
    break;
  case JobOutcome::Status::Cancelled:
    ++Counters.Cancelled;
    break;
  case JobOutcome::Status::Failed:
    ++Counters.Failed;
    break;
  }
}

WaitResult SynthesisService::tryWait(JobId Id) {
  std::unique_lock<std::mutex> Lock(M);
  auto It = Jobs.find(Id);
  if (It == Jobs.end())
    return WaitResult{WaitResult::Status::Unknown, nullptr};
  Job &J = *It->second;
  DoneCV.wait(Lock, [&] { return J.State == JobState::Done; });
  return WaitResult{WaitResult::Status::Done, &J.Outcome};
}

WaitResult SynthesisService::waitFor(JobId Id, double Seconds) {
  std::unique_lock<std::mutex> Lock(M);
  auto It = Jobs.find(Id);
  if (It == Jobs.end())
    return WaitResult{WaitResult::Status::Unknown, nullptr};
  Job &J = *It->second;
  // wait_for re-evaluates the predicate after every wakeup (spurious or
  // not) and once more at the deadline, so a completion racing the
  // timeout is always reported as Done.
  bool Done = DoneCV.wait_for(Lock, std::chrono::duration<double>(Seconds),
                              [&] { return J.State == JobState::Done; });
  if (!Done)
    return WaitResult{WaitResult::Status::Timeout, nullptr};
  return WaitResult{WaitResult::Status::Done, &J.Outcome};
}

JobPhase SynthesisService::poll(JobId Id) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Jobs.find(Id);
  if (It == Jobs.end())
    return JobPhase::Unknown;
  switch (It->second->State) {
  case JobState::Pending:
    return JobPhase::Pending;
  case JobState::Running:
    return JobPhase::Running;
  case JobState::Done:
    break;
  }
  return JobPhase::Done;
}

void SynthesisService::beginDrain() {
  std::lock_guard<std::mutex> Lock(M);
  Draining = true;
}

bool SynthesisService::awaitIdle(double TimeoutSec) {
  std::unique_lock<std::mutex> Lock(M);
  // Every transition that can complete the predicate (a job finishing,
  // including the cancelled-while-queued path) notifies DoneCV, so
  // waiting on it observes idleness without polling.
  return DoneCV.wait_for(Lock, std::chrono::duration<double>(TimeoutSec),
                         [&] { return Queue.empty() && RunningJobs == 0; });
}

ServiceStats SynthesisService::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  ServiceStats S = Counters;
  S.QueueDepth = Queue.size();
  S.Running = RunningJobs;
  S.Draining = Draining;
  return S;
}

const JobOutcome &SynthesisService::wait(JobId Id) {
  std::unique_lock<std::mutex> Lock(M);
  auto It = Jobs.find(Id);
  if (It == Jobs.end()) {
    // A stale or foreign id is a caller bug, but this is a public API:
    // fail loudly in every build mode rather than dereferencing end().
    std::fprintf(stderr, "SynthesisService::wait: unknown job id %llu\n",
                 static_cast<unsigned long long>(Id));
    std::abort();
  }
  Job &J = *It->second;
  DoneCV.wait(Lock, [&] { return J.State == JobState::Done; });
  return J.Outcome;
}

bool SynthesisService::cancel(JobId Id) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Jobs.find(Id);
  if (It == Jobs.end() || It->second->State == JobState::Done)
    return false;
  It->second->Token.cancel();
  return true;
}

void SynthesisService::workerLoop() {
  for (;;) {
    Job *J = nullptr;
    {
      std::unique_lock<std::mutex> Lock(M);
      WorkCV.wait(Lock, [&] { return Stopping || !Queue.empty(); });
      if (Stopping)
        return;
      JobId Id = Queue.front();
      Queue.pop_front();
      J = Jobs.find(Id)->second.get();
      J->State = JobState::Running;
      J->Outcome.QueueSec = secondsBetween(J->Submitted, Clock::now());
      if (J->Token.cancelled()) {
        // Cancelled while still queued: complete without running.
        J->Spec = JobSpec();
        J->Outcome.St = JobOutcome::Status::Cancelled;
        J->State = JobState::Done;
        noteDoneLocked(J->Outcome);
        DoneCV.notify_all();
        continue;
      }
      ++RunningJobs;
    }
    const auto RunStart = Clock::now();
    runJob(*J);
    // The outcome is retained for the service's lifetime; the request
    // (its source text above all) is not read again.
    J->Spec = JobSpec();
    {
      std::lock_guard<std::mutex> Lock(M);
      --RunningJobs;
      J->Outcome.RunSec = secondsBetween(RunStart, Clock::now());
      J->State = JobState::Done;
      noteDoneLocked(J->Outcome);
    }
    DoneCV.notify_all();
  }
}

void SynthesisService::runJob(Job &J) {
  JobOutcome &Out = J.Outcome;

  // --- Resolve the input to flat CSG ----------------------------------
  TermPtr Flat = J.Spec.Input;
  if (!Flat) {
    if (J.Spec.SourceIsScad) {
      scad::ScadResult R = scad::parseScad(J.Spec.Source);
      if (!R) {
        Out.St = JobOutcome::Status::Failed;
        Out.Error = "scad: " + R.Error;
        return;
      }
      Flat = R.Value;
    } else {
      ParseResult R = parseSexp(J.Spec.Source);
      if (!R) {
        Out.St = JobOutcome::Status::Failed;
        Out.Error = R.Error;
        return;
      }
      if (isFlatCsg(R.Value)) {
        Flat = R.Value;
      } else {
        EvalResult E = evalToFlatCsg(R.Value);
        if (!E) {
          Out.St = JobOutcome::Status::Failed;
          Out.Error = "input does not flatten: " + E.Error;
          return;
        }
        Flat = E.Value;
      }
    }
  }
  if (!isFlatCsg(Flat)) {
    Out.St = JobOutcome::Status::Failed;
    Out.Error = "input is not flat CSG";
    return;
  }

  SynthesisOptions Opts = J.Spec.Options;

  // --- Result cache ----------------------------------------------------
  // The key is computed before the token is attached: cancellation state
  // is per-request, not part of the result's identity.
  CacheKey Key = makeCacheKey(Flat, RulesFp, Opts);
  if (Cfg.EnableCache) {
    if (std::optional<std::vector<RankedTerm>> Hit = Cache.lookup(Key)) {
      Out.St = JobOutcome::Status::CacheHit;
      Out.Result.Programs = std::move(*Hit);
      return;
    }
  }

  // --- Warm-start planning (snapshot tier) -----------------------------
  // A near-miss request — same saturation-shaping key, but deeper fuel, a
  // different cost function, or a small numeric edit — restores the
  // captured pipeline state instead of saturating from scratch. The
  // Synthesizer validates everything again and falls back to cold on any
  // mismatch, so planning here is best-effort.
  const bool SnapshotTier = Cfg.EnableWarmStart;
  CacheKey SnapKey;
  uint64_t ExactHash = 0;
  WarmStart WS;
  bool WarmPlanned = false;
  if (SnapshotTier) {
    SnapKey = makeSnapshotKey(Flat, RulesFp, Opts);
    ExactHash = exactTermFingerprint(Flat);
    if (std::optional<SnapshotEntry> Entry = Cache.lookupSnapshot(SnapKey)) {
      const bool SameInput = Entry->InputHash == ExactHash;
      // The request must not ask for less fuel than the capture consumed,
      // and the capture must have stopped deterministically.
      bool Usable = Opts.Limits.IterLimit >= Entry->IterationsDone &&
                    (Entry->Stop == StopReason::Saturated ||
                     Entry->Stop == StopReason::IterLimit ||
                     Entry->Stop == StopReason::NodeLimit);
      if (Usable && !SameInput) {
        // An edit re-seeds new nodes into the restored graph; a
        // *saturated* capture closes over them by resuming, and an
        // iteration-limited one qualifies only with fuel to spare (the
        // Synthesizer then demands a quiescent resumed tail). The edit
        // must also be small and purely numeric — the structure key says
        // it is, but keys hash and the walk is the proof.
        size_t Edits = 0;
        ParseResult Stored = parseSexp(Entry->InputSexp);
        Usable = (Entry->Stop == StopReason::Saturated ||
                  (Entry->Stop == StopReason::IterLimit &&
                   Opts.Limits.IterLimit > Entry->IterationsDone)) &&
                 Stored && countNumericEdits(*Stored.Value, *Flat, Edits) &&
                 Edits >= 1 && Edits <= Cfg.WarmMaxEditedLeaves;
      }
      if (Usable) {
        WS.Graph = std::move(Entry->Graph);
        WS.Cursors = std::move(Entry->Cursors);
        WS.SameInput = SameInput;
        WarmPlanned = true;
      }
    }
  }

  // --- Run the pipeline -------------------------------------------------
  if (J.Spec.DeadlineSec > 0.0)
    J.Token.armDeadline(J.Spec.DeadlineSec);
  Opts.Limits.Cancel = J.Token;
  Opts.CaptureSnapshot = SnapshotTier;

  Out.Result = WarmPlanned ? Synthesizer(Opts).synthesizeWarm(Flat, WS)
                           : Synthesizer(Opts).synthesize(Flat);
  if (Out.Result.Stats.Cancelled) {
    Out.St = JobOutcome::Status::Cancelled;
    return; // partial results are never cached
  }
  Out.St = JobOutcome::Status::Succeeded;
  // A run truncated by the runner's wall-clock safety valve is as
  // machine- and load-dependent as a deadline cancellation: caching it
  // would permanently serve this machine's partial result to every
  // process sharing the cache. Iteration/node limits are deterministic
  // in (input, options) and stay cacheable.
  const bool WallClockTruncated =
      Out.Result.Stats.Rewriting.Stop == StopReason::TimeLimit;
  if (Cfg.EnableCache && !WallClockTruncated)
    Cache.store(Key, Out.Result.Programs);
  // Park the warm-start capture in the snapshot tier. The Synthesizer
  // skips capture for non-deterministic stops and for warm runs whose
  // state equals the snapshot they restored, so Present already implies
  // "new, deterministic state worth keeping".
  if (SnapshotTier && Out.Result.Snapshot.Present && !WallClockTruncated) {
    SnapshotEntry E;
    E.InputHash = ExactHash;
    E.InputSexp = printSexp(Flat);
    E.Stop = Out.Result.Snapshot.Stop;
    E.IterationsDone = Out.Result.Snapshot.IterationsDone;
    E.Cursors = std::move(Out.Result.Snapshot.Cursors);
    E.Graph = std::move(Out.Result.Snapshot.Graph);
    Out.Result.Snapshot.Present = false; // blobs moved out
    Cache.storeSnapshot(SnapKey, E);
  }
}
