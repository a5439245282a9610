//===-- perfbench/src/Workloads.cpp - The benchmark's workloads -----------===//

#include "Workloads.h"

#include "Checks.h"
#include "Generators.h"

#include "cad/Eval.h"
#include "cad/Sexp.h"
#include "scad/ScadParser.h"
#include "server/Client.h"
#include "server/Server.h"
#include "service/SynthesisService.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <thread>

using namespace shrinkray;
using namespace perfbench;

namespace {

/// Salt for the warm-up inputs, so they never equal a timed input.
constexpr uint64_t kWarmupSalt = 0x77a2u;

/// Set-ups per run; setup_s is their median.
constexpr unsigned kSetupReps = 3;

/// Runs F(I) for I in [0, N) on \p Threads threads.
template <typename Fn> void parallelFor(size_t N, unsigned Threads, Fn F) {
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < std::max(1u, Threads); ++T)
    Pool.emplace_back([&] {
      for (size_t I = Next++; I < N; I = Next++)
        F(I);
    });
  for (std::thread &T : Pool)
    T.join();
}

std::vector<Program> programsOf(const std::vector<RankedTerm> &Ranked) {
  std::vector<Program> Out;
  Out.reserve(Ranked.size());
  for (const RankedTerm &P : Ranked)
    Out.push_back(Program{P.T, std::string(), P.Cost});
  return Out;
}

/// The cad.print probe: prints every returned program as the server does.
double timePrint(const std::vector<RankedTerm> &Ranked) {
  double Start = nowSec();
  size_t Bytes = 0;
  for (const RankedTerm &P : Ranked)
    Bytes += printSexp(P.T).size();
  static std::atomic<size_t> Sink{0}; // keeps the printing from being elided
  Sink += Bytes;
  return (nowSec() - Start) * 1e3;
}

std::vector<std::pair<std::string, double>> rootArgs(const Record &R) {
  const Figures &F = R.F;
  std::vector<std::pair<std::string, double>> A = {
      {"latency_ms", R.LatencyMs}, {"cache_hit", R.CacheHit ? 1.0 : 0.0}};
  if (F.Synthesized) {
    A.insert(A.end(), {{"saturate_ms", F.SaturateMs},
                       {"search_ms", F.SearchMs},
                       {"apply_ms", F.ApplyMs},
                       {"rebuild_ms", F.RebuildMs},
                       {"extract_ms", F.ExtractMs},
                       {"solve_ms", F.SolveMs},
                       {"iterations", F.Iterations},
                       {"matches", F.Matches},
                       {"applied", F.Applied},
                       {"enodes", F.ENodes},
                       {"fold_sites", F.FoldSites},
                       {"inferences", F.Inferences},
                       {"warm", F.Warm ? 1.0 : 0.0},
                       {"warm_edit", F.WarmEdit ? 1.0 : 0.0},
                       {"warm_abort", F.WarmAbort ? 1.0 : 0.0},
                       {"resumed_iters", F.ResumedIters}});
  }
  if (F.InService)
    A.insert(A.end(), {{"queue_ms", F.QueueMs}, {"run_ms", F.RunMs}});
  if (F.OverRpc)
    A.insert(A.end(), {{"rtt_ms", F.RttMs},
                       {"overhead_ms", F.OverheadMs},
                       {"codec_us", F.CodecUs},
                       {"response_kb", F.ResponseKb}});
  return A;
}

void noteInternDelta(RunResult &Out, const TermInternStats &Before) {
  TermInternStats After = termInternStats();
  Out.TermsInterned = static_cast<double>(After.Unique - Before.Unique);
  Out.InternHits = static_cast<double>(After.Hits - Before.Hits);
}

//===----------------------------------------------------------------------===//
// large-models: the CLI's path, one model at a time
//===----------------------------------------------------------------------===//

/// The shrinkray CLI's path for an s-expression source: parse, flatten a
/// structured input, synthesize with default options but one engine
/// thread. With the default four threads, interleaved runs of this
/// workload were both slower (6.1-8.2 against 8.4-9.0 requests/s, and
/// 142-151 against 111-118 ms of CPU per request) and three times as
/// spread across runs, because every parallel phase waits for its slowest
/// thread on a shared machine.
bool cliSynthesize(const std::string &Source, SynthesisResult &Out,
                   std::string &Error, Tracer &T, uint64_t Req, uint64_t Root,
                   double *ParseMs) {
  double Start = nowSec();
  TermPtr Flat;
  {
    Span S(T, "cad.parse", Req, Root, 0);
    ParseResult P = parseSexp(Source);
    if (!P) {
      Error = P.Error;
      return false;
    }
    Flat = P.Value;
    if (!isFlatCsg(Flat)) {
      EvalResult E = evalToFlatCsg(Flat);
      if (!E) {
        Error = "input does not flatten: " + E.Error;
        return false;
      }
      Flat = E.Value;
    }
  }
  if (ParseMs)
    *ParseMs = (nowSec() - Start) * 1e3;
  Span S(T, "synth.synthesize", Req, Root, 0);
  SynthesisOptions Opts;
  Opts.Limits.NumThreads = 1;
  Out = Synthesizer(Opts).synthesize(Flat);
  return true;
}

} // namespace

RunResult perfbench::runLargeModels(const RunConfig &C, Tracer &T) {
  RunResult Out;
  Out.TailPct = 90.0;
  Tracer Off(false);
  Rng R(C.Seed);
  std::vector<std::vector<Input>> Rounds;
  for (unsigned Rep = 0; Rep < kSetupReps; ++Rep) {
    double Start = Rep == 0 ? processStartSec() : nowSec();
    // Inputs for about four times the expected request rate; a faster
    // machine generates more between rounds.
    R = Rng(C.Seed);
    Rounds.clear();
    size_t Want = static_cast<size_t>(std::ceil(C.Seconds * 2.0)) + 2;
    for (size_t I = 0; I < Want; ++I)
      Rounds.push_back(largeModelsRound(R));
    // Untimed warm-up: the costliest families of a round no timed request
    // repeats, so the heap and the page tables have grown before timing.
    Rng W(C.Seed ^ kWarmupSalt);
    for (const Input &In : largeModelsRound(W)) {
      if (In.Family != "ring~fullnoise" && In.Family != "gear" &&
          In.Family != "dividers")
        continue;
      SynthesisResult Res;
      std::string Error;
      cliSynthesize(In.Source, Res, Error, Off, 0, 0, nullptr);
    }
    Out.SetupSec.push_back(nowSec() - Start);
  }
  Out.RoundSize = Out.WindowSize = Rounds.front().size();

  TermInternStats Intern0 = termInternStats();
  Out.StartCpuSec = processCpuSec();
  double T0 = Out.StartSec = nowSec();
  uint64_t Id = 0;
  for (unsigned Round = 0;; ++Round) {
    if (Round > 0 && nowSec() - T0 >= C.Seconds)
      break;
    if (Round == Rounds.size())
      Rounds.push_back(largeModelsRound(R));
    for (const Input &In : Rounds[Round]) {
      Record Rec;
      Rec.Id = Id;
      Rec.Kind = "model";
      Rec.Family = In.Family;
      Rec.Source = In.Source;
      uint64_t Root = T.begin("request", Id, 0, 0);
      SynthesisResult Res;
      double ParseMs = 0.0;
      double Start = nowSec();
      bool Ok = cliSynthesize(In.Source, Res, Rec.Error, T, Id, Root,
                              T.on() ? &ParseMs : nullptr);
      stamp(Rec, Start);
      if (!Ok) {
        Rec.Failed = true;
      } else {
        Rec.Programs = programsOf(Res.Programs);
        if (T.on()) {
          Rec.F.take(Res.Stats);
          Rec.F.SexpParseMs = ParseMs;
          Rec.F.PrintMs = timePrint(Res.Programs);
        }
      }
      T.end(Root, rootArgs(Rec));
      Out.Records.push_back(std::move(Rec));
      ++Id;
    }
    Out.Rounds = Round + 1;
  }
  Out.TimedSec = nowSec() - T0;
  Out.PeakRssMb = peakRssMb();
  noteInternDelta(Out, Intern0);
  return Out;
}

//===----------------------------------------------------------------------===//
// batch-corpus: one in-process SynthesisService, N workers, N callers
//===----------------------------------------------------------------------===//

namespace {

service::JobSpec batchJob(const Input &In) {
  service::JobSpec J;
  J.Name = In.Family;
  J.Source = In.Source;
  J.Options.Limits.NumThreads = 1; // every job pins one engine thread
  return J;
}

void noteCacheDelta(RunResult &Out, const service::ResultCache::Stats &A,
                    const service::ResultCache::Stats &B) {
  Out.CacheHits = static_cast<double>(B.Hits - A.Hits);
  Out.SnapshotHits = static_cast<double>(B.SnapshotHits - A.SnapshotHits);
  Out.CacheStores = static_cast<double>(B.Stores - A.Stores);
  Out.SnapshotStores =
      static_cast<double>(B.SnapshotStores - A.SnapshotStores);
}

} // namespace

RunResult perfbench::runBatchCorpus(const RunConfig &C, Tracer &T) {
  RunResult Out;
  Out.TailPct = 99.0;
  std::unique_ptr<service::SynthesisService> Svc;
  for (unsigned Rep = 0; Rep < kSetupReps; ++Rep) {
    Svc.reset();
    double Start = Rep == 0 ? processStartSec() : nowSec();
    service::ServiceConfig Cfg;
    Cfg.NumWorkers = C.Threads;
    Cfg.EnableCache = true;
    Svc = std::make_unique<service::SynthesisService>(Cfg);
    // Untimed warm-up: two rounds no timed request repeats.
    Rng W(C.Seed ^ kWarmupSalt);
    std::vector<service::SynthesisService::JobId> Ids;
    for (uint64_t Serial : {4094u, 4095u})
      for (const Input &In : batchCorpusRound(W, Serial))
        Ids.push_back(Svc->submit(batchJob(In)));
    for (auto Id : Ids)
      Svc->wait(Id);
    Out.SetupSec.push_back(nowSec() - Start);
  }

  // The shared request cycle: callers take inputs in order, a round of
  // the 16 shapes at a time, and stop at the first round boundary after
  // the run length.
  std::mutex Mu;
  std::deque<Record> Recs;
  std::vector<Input> Current;
  Rng R(C.Seed);
  uint64_t Next = 0, Serial = 0;
  bool Stop = false;
  size_t RoundSize = 0;
  double T0 = 0.0;
  auto Take = [&](Record *&Rec, Input &In) {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Stop)
      return false;
    if (Current.empty() || Next % RoundSize == 0) {
      if (Next > 0 && nowSec() - T0 >= C.Seconds) {
        Stop = true;
        return false;
      }
      Current = batchCorpusRound(R, Serial++);
    }
    In = Current[Next % RoundSize];
    Recs.emplace_back();
    Rec = &Recs.back();
    Rec->Id = Next;
    ++Next;
    return true;
  };
  {
    Rng Probe(0);
    RoundSize = batchCorpusRound(Probe, 0).size();
  }

  service::ResultCache::Stats Cache0 = Svc->cache().stats();
  TermInternStats Intern0 = termInternStats();
  Out.StartCpuSec = processCpuSec();
  T0 = Out.StartSec = nowSec();
  std::vector<std::thread> Callers;
  for (unsigned Th = 0; Th < C.Threads; ++Th)
    Callers.emplace_back([&, Th] {
      Record *Rec = nullptr;
      Input In;
      while (Take(Rec, In)) {
        Rec->Kind = "job";
        Rec->Family = In.Family;
        Rec->Source = In.Source;
        uint64_t Root = T.begin("request", Rec->Id, 0, Th);
        double Start = nowSec();
        service::SynthesisService::JobId Id;
        {
          Span S(T, "service.submit", Rec->Id, Root, Th);
          Id = Svc->submit(batchJob(In));
        }
        const service::JobOutcome *O;
        {
          Span S(T, "service.wait", Rec->Id, Root, Th);
          O = &Svc->wait(Id);
        }
        stamp(*Rec, Start);
        if (!O->ok() || O->St == service::JobOutcome::Status::Cancelled) {
          Rec->Failed = true;
          Rec->Error = O->Error.empty() ? "job cancelled" : O->Error;
        } else {
          Rec->CacheHit = O->St == service::JobOutcome::Status::CacheHit;
          Rec->Programs = programsOf(O->Result.Programs);
        }
        if (T.on()) {
          Rec->F.InService = true;
          Rec->F.QueueMs = O->QueueSec * 1e3;
          Rec->F.RunMs = O->RunSec * 1e3;
          if (O->St == service::JobOutcome::Status::Succeeded)
            Rec->F.take(O->Result.Stats);
          double P0 = nowSec();
          {
            Span S(T, "cad.parse", Rec->Id, Root, Th);
            parseSexp(In.Source);
          }
          Rec->F.SexpParseMs = (nowSec() - P0) * 1e3;
          Span S(T, "cad.print", Rec->Id, Root, Th);
          Rec->F.PrintMs = timePrint(O->Result.Programs);
        }
        T.end(Root, rootArgs(*Rec));
      }
    });
  for (std::thread &Th : Callers)
    Th.join();
  Out.TimedSec = nowSec() - T0;
  Out.PeakRssMb = peakRssMb();
  noteInternDelta(Out, Intern0);
  noteCacheDelta(Out, Cache0, Svc->cache().stats());
  Out.RoundSize = RoundSize;
  Out.WindowSize = RoundSize * C.Threads;
  Out.Rounds = static_cast<unsigned>(Next / RoundSize);
  // A seeded eighth of the jobs is re-synthesized cold after the run.
  for (Record &Rec : Recs) {
    Rng Sample(C.Seed * 0x9e3779b97f4a7c15ULL + Rec.Id);
    Rec.WantCold = Sample.nextBelow(8) == 0;
    Out.Records.push_back(std::move(Rec));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// edit-session: one client over JSONL RPC to an in-process server
//===----------------------------------------------------------------------===//

namespace {

/// A port the kernel just handed out on 127.0.0.1 (0 on failure).
uint16_t freeLoopbackPort() {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return 0;
  struct sockaddr_in A {};
  A.sin_family = AF_INET;
  A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  A.sin_port = 0;
  socklen_t Len = sizeof(A);
  uint16_t Port = 0;
  if (::bind(Fd, reinterpret_cast<struct sockaddr *>(&A), sizeof(A)) == 0 &&
      ::getsockname(Fd, reinterpret_cast<struct sockaddr *>(&A), &Len) == 0)
    Port = ntohs(A.sin_port);
  ::close(Fd);
  return Port;
}

/// An in-process server on an ephemeral loopback port, with one client
/// connection to it.
class Endpoint {
public:
  Endpoint() = default;
  Endpoint(const Endpoint &) = delete;
  Endpoint &operator=(const Endpoint &) = delete;
  ~Endpoint() { stop(); }

  bool start(std::string &Error) {
    server::ServerConfig Cfg;
    Cfg.Service.NumWorkers = 2;
    Cfg.Service.MaxQueueDepth = 64;
    // One engine thread per job, as in large-models: the service would
    // give the one job in flight every core, and parallel phases that
    // wait for their slowest thread spread a shared machine's noise.
    Cfg.Service.JobNumThreads = 1;
    Srv = std::make_unique<server::Server>(Cfg);
    uint16_t Port = freeLoopbackPort();
    if (Port == 0) {
      Error = "no free loopback port";
      return false;
    }
    Thread = std::thread([this, Port] { Srv->runTcp(Port); });
    double Deadline = nowSec() + 10.0;
    while (!Conn.connect("127.0.0.1", Port, Error)) {
      if (nowSec() > Deadline)
        return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return Conn.hello("perfbench", Error);
  }

  void stop() {
    Conn.close();
    if (Srv)
      Srv->requestStop();
    if (Thread.joinable())
      Thread.join();
    Srv.reset();
  }

  server::Server &server() { return *Srv; }
  server::ClientConnection &conn() { return Conn; }

private:
  std::unique_ptr<server::Server> Srv;
  std::thread Thread;
  server::ClientConnection Conn;
};

/// A version of a design: how many loop edits and which body moves led to
/// it from the design the session started with.
struct Version {
  ScadDesign D;
  unsigned Loops = 0;   ///< loop edits so far
  double Walk[3] = {};  ///< body dimensions' distance from the start
};

/// One design's edit history: undo moves the cursor back, redo forward,
/// and an edit drops the redo tail.
struct History {
  ScadDesign Start;
  std::vector<Version> Versions;
  size_t Cur = 0;

  const Version &current() const { return Versions[Cur]; }
  void push(const Version &V) {
    Versions.resize(Cur + 1);
    Versions.push_back(V);
    ++Cur;
  }
};

/// One scripted request of the session.
enum class Step { Edit, Undo, Redo, Cost, TopK, Loop };

/// The per-round script, one block per design. Every block holds one loop
/// edit, so each round starts its design's warm edits from a fresh
/// snapshot and costs the same as the last. By their latency the 17
/// requests of a round sort into cache hits (undo, redo: 5), rack edits
/// (2), grid edits (4) and gear edits and switches (6), so the median
/// falls a third of the way into the grid edits and the 95th percentile
/// well inside the gear requests: no reported percentile sits on the
/// boundary between two classes.
const std::vector<std::vector<Step>> &script() {
  using S = Step;
  static const std::vector<std::vector<Step>> Blocks = {
      {S::Loop, S::Edit, S::Undo, S::Redo, S::Cost, S::TopK, S::Edit, S::Edit},
      {S::Edit, S::Undo, S::Edit, S::Loop, S::Edit},
      {S::Edit, S::Undo, S::Redo, S::Loop}};
  return Blocks;
}

const char *stepName(Step S) {
  switch (S) {
  case Step::Edit:
    return "edit";
  case Step::Undo:
    return "undo";
  case Step::Redo:
    return "redo";
  case Step::Cost:
    return "cost-switch";
  case Step::TopK:
    return "topk-switch";
  case Step::Loop:
    return "loop-edit";
  }
  return "?";
}

/// Body moves stay within this many quarter-unit steps (times the
/// design's scale) of the starting design, so a session's cost does not
/// drift however many rounds it runs.
constexpr unsigned kWalkSteps = 12;

class Session {
public:
  Session(uint64_t Seed) : R(Seed) {
    for (const ScadDesign &D : sessionDesigns(R)) {
      History H;
      H.Start = D;
      H.Versions.push_back(Version{D});
      Designs.push_back(H);
      Seen.insert(D.scad());
    }
  }

  size_t numDesigns() const { return Designs.size(); }
  const ScadDesign &current(size_t D) const {
    return Designs[D].current().D;
  }

  /// Applies \p S to design \p D; returns the request's cost and k.
  void apply(size_t D, Step S, CostKind &Cost, size_t &TopK) {
    History &H = Designs[D];
    Cost = CostKind::AstSize;
    TopK = 5;
    switch (S) {
    case Step::Undo:
      H.Cur -= H.Cur > 0 ? 1 : 0;
      return;
    case Step::Redo:
      H.Cur += H.Cur + 1 < H.Versions.size() ? 1 : 0;
      return;
    case Step::Cost:
      Cost = CostKind::RewardLoops;
      return;
    case Step::TopK:
      TopK = 3;
      return;
    case Step::Edit:
      H.push(bodyEdit(H, H.current()));
      return;
    case Step::Loop: {
      Version V = H.current();
      ++V.Loops;
      V.D = make(H.Start, V);
      H.push(Seen.insert(V.D.scad()).second ? V : bodyEdit(H, V));
      return;
    }
    }
  }

private:
  /// The design \p V describes. A loop edit moves every repeated part, so
  /// it runs cold and the next edits resume from a fresh snapshot: the
  /// gear's teeth and the grid's sockets step through four radii or
  /// pitches, and the rack toggles between 10 and 11 slots, its pitch
  /// stepping every second edit so that neither count's earlier snapshot
  /// is close enough to resume.
  static ScadDesign make(const ScadDesign &Start, const Version &V) {
    ScadDesign D = Start;
    double Step = 0.25 * Start.Scale;
    switch (D.K) {
    case ScadDesign::Kind::Gear:
      D.Offset += Step * (V.Loops % 4);
      break;
    case ScadDesign::Kind::Grid: {
      double Move = Step * (V.Loops % 4);
      D.Pitch += Move;
      D.Body[0] += Move * (D.Count - 1);
      D.Body[1] += Move * 3;
      break;
    }
    case ScadDesign::Kind::Rack:
      D.Count += static_cast<int>(V.Loops % 2);
      D.Pitch += Step * (V.Loops / 2 % 2);
      D.Body[0] = 2 * D.Part[2] + D.Pitch * D.Count;
      break;
    }
    for (unsigned Dim = 0; Dim < 3; ++Dim)
      D.Body[Dim] += V.Walk[Dim];
    return D;
  }

  /// \p From with one body dimension moved by one to three steps, turning
  /// back at the walk's bounds, into a design never requested before, so
  /// only undo and redo hit the cache.
  Version bodyEdit(const History &H, const Version &From) {
    // Only dimensions an edit changes in at most four numeric leaves of
    // the flat model: the warm-edit path's limit.
    unsigned Dims = From.D.K == ScadDesign::Kind::Gear ? 3 : 2;
    double Step = 0.25 * H.Start.Scale;
    for (unsigned Try = 0;; ++Try) {
      Version V = From;
      unsigned Dim = static_cast<unsigned>(R.nextBelow(Dims));
      double Move = Step * static_cast<double>(1 + R.nextBelow(3));
      double W = V.Walk[Dim] + (R.nextBelow(2) ? Move : -Move);
      // Should every nearby design have been requested, the bounds widen
      // a step per try.
      double Bound = Step * (kWalkSteps + (Try > 64 ? Try - 64 : 0));
      if (std::fabs(W) > Bound)
        W = 2 * V.Walk[Dim] - W;
      V.Walk[Dim] = W;
      V.D = make(H.Start, V);
      if (Seen.insert(V.D.scad()).second)
        return V;
    }
  }

  Rng R;
  std::vector<History> Designs;
  std::set<std::string> Seen;
};

/// Submits and waits over \p Conn; fills \p Rec's outcome.
bool rpcRequest(server::ClientConnection &Conn, const server::Request &Sub,
                Record &Rec, uint64_t &Job, server::RemoteOutcome &Outcome,
                Tracer &T, uint64_t Root) {
  std::string Error;
  std::optional<server::JsonValue> Resp;
  {
    Span S(T, "rpc.submit", Rec.Id, Root, 0);
    Resp = Conn.call(Sub, Error);
  }
  const server::JsonValue *Ok = Resp ? Resp->get("ok") : nullptr;
  const server::JsonValue *JobV = Resp ? Resp->get("job") : nullptr;
  if (!Resp || !Ok || !Ok->asBool() || !JobV) {
    Rec.Error = Resp ? "submit refused: " + server::writeJson(*Resp)
                     : "submit failed: " + Error;
    return false;
  }
  Job = static_cast<uint64_t>(JobV->asNumber());
  server::Request Wait;
  Wait.K = server::Request::Kind::Wait;
  Wait.Job = Job;
  Wait.TimeoutSec = 120.0;
  std::optional<server::RemoteOutcome> Out;
  {
    Span S(T, "rpc.wait", Rec.Id, Root, 0);
    std::optional<server::JsonValue> W = Conn.call(Wait, Error);
    if (W)
      Out = server::ClientConnection::outcomeFrom(*W);
  }
  if (!Out) {
    Rec.Error = "wait failed: " + Error;
    return false;
  }
  Outcome = std::move(*Out);
  return true;
}

/// The per-layer probes of one edit-session request, on its own frames:
/// the codec, the scad parser and the printer, timed by the benchmark.
void probeEditRequest(server::Server &Srv, const server::Request &Sub,
                      uint64_t Job, Record &Rec, Tracer &T, uint64_t Root) {
  service::WaitResult W = Srv.service().tryWait(Job);
  if (W.St != service::WaitResult::Status::Done)
    return;
  const service::JobOutcome &O = *W.Outcome;
  Rec.F.InService = true;
  Rec.F.QueueMs = O.QueueSec * 1e3;
  Rec.F.RunMs = O.RunSec * 1e3;
  if (O.St == service::JobOutcome::Status::Succeeded)
    Rec.F.take(O.Result.Stats);
  {
    Span S(T, "server.codec", Rec.Id, Root, 0);
    double Start = nowSec();
    server::Request Wait;
    Wait.K = server::Request::Kind::Wait;
    Wait.Job = Job;
    std::string SubFrame = server::encodeRequest(Sub);
    std::string WaitFrame = server::encodeRequest(Wait);
    server::ParsedRequest PS = server::parseRequest(SubFrame);
    server::ParsedRequest PW = server::parseRequest(WaitFrame);
    std::string Resp = server::outcomeResponse("wait", Job, O);
    server::JsonParseResult J = server::parseJson(Resp);
    std::optional<server::RemoteOutcome> Back =
        server::ClientConnection::outcomeFrom(J.Value);
    Rec.F.CodecUs = (nowSec() - Start) * 1e6;
    Rec.F.ResponseKb = static_cast<double>(Resp.size()) / 1024.0;
    if (!PS.Ok || !PW.Ok || !J || !Back) {
      Rec.CheckFailed = true;
      Rec.Error = "the codec does not round-trip the session's frames";
    }
  }
  {
    Span S(T, "scad.parse", Rec.Id, Root, 0);
    double Start = nowSec();
    scad::parseScad(Rec.Source);
    Rec.F.ScadParseMs = (nowSec() - Start) * 1e3;
  }
  Span S(T, "cad.print", Rec.Id, Root, 0);
  Rec.F.PrintMs = timePrint(O.Result.Programs);
}

} // namespace

RunResult perfbench::runEditSession(const RunConfig &C, Tracer &T) {
  RunResult Out;
  Out.TailPct = 95.0;
  Endpoint E;
  std::unique_ptr<Session> S;
  for (unsigned Rep = 0; Rep < kSetupReps; ++Rep) {
    E.stop();
    double Start = Rep == 0 ? processStartSec() : nowSec();
    std::string Error;
    if (!E.start(Error)) {
      Record Rec;
      Rec.Failed = true;
      Rec.Error = "server start-up failed: " + Error;
      Out.Records.push_back(std::move(Rec));
      return Out;
    }
    // Each design is shrunk once, cold, before the session starts.
    S = std::make_unique<Session>(C.Seed);
    for (size_t D = 0; D < S->numDesigns(); ++D) {
      server::Request Sub;
      Sub.K = server::Request::Kind::Submit;
      Sub.Name = S->current(D).family();
      Sub.Source = S->current(D).scad();
      Sub.SourceIsScad = true;
      if (!E.conn().submitAndWait(Sub, Error)) {
        Record Rec;
        Rec.Failed = true;
        Rec.Error = "cold shrink failed: " + Error;
        Out.Records.push_back(std::move(Rec));
        return Out;
      }
    }
    Out.SetupSec.push_back(nowSec() - Start);
  }

  const auto &Blocks = script();
  for (const auto &B : Blocks)
    Out.RoundSize += B.size();
  Out.WindowSize = Out.RoundSize;
  service::ResultCache::Stats Cache0 = E.server().service().cache().stats();
  TermInternStats Intern0 = termInternStats();
  Out.StartCpuSec = processCpuSec();
  double T0 = Out.StartSec = nowSec();
  uint64_t Id = 0;
  for (unsigned Round = 0;; ++Round) {
    if (Round > 0 && nowSec() - T0 >= C.Seconds)
      break;
    for (size_t D = 0; D < Blocks.size(); ++D)
      for (Step St : Blocks[D]) {
        Record Rec;
        Rec.Id = Id++;
        Rec.Kind = stepName(St);
        S->apply(D, St, Rec.Cost, Rec.TopK);
        Rec.Family = S->current(D).family();
        Rec.Source = S->current(D).scad();
        Rec.IsScad = true;
        Rec.WantCold = true;
        server::Request Sub;
        Sub.K = server::Request::Kind::Submit;
        Sub.Name = Rec.Family;
        Sub.Source = Rec.Source;
        Sub.SourceIsScad = true;
        Sub.TopK = Rec.TopK;
        Sub.Cost = Rec.Cost;
        uint64_t Root = T.begin("request", Rec.Id, 0, 0);
        uint64_t Job = 0;
        server::RemoteOutcome O;
        double Start = nowSec();
        bool Ok = rpcRequest(E.conn(), Sub, Rec, Job, O, T, Root);
        stamp(Rec, Start);
        if (Ok && !O.ok()) {
          Ok = false;
          Rec.Error = "job failed: " + O.Error;
        }
        if (!Ok) {
          Rec.Failed = true;
        } else {
          Rec.CacheHit = O.Status == "cache-hit";
          for (const server::RemoteOutcome::Program &P : O.Programs)
            Rec.Programs.push_back(Program{nullptr, P.Sexp, P.Cost});
          if (T.on()) {
            Rec.F.OverRpc = true;
            Rec.F.RttMs = Rec.LatencyMs;
            Rec.F.OverheadMs = Rec.LatencyMs - (O.QueueSec + O.RunSec) * 1e3;
            probeEditRequest(E.server(), Sub, Job, Rec, T, Root);
          }
        }
        T.end(Root, rootArgs(Rec));
        Out.Records.push_back(std::move(Rec));
      }
    Out.Rounds = Round + 1;
  }
  Out.TimedSec = nowSec() - T0;
  Out.PeakRssMb = peakRssMb();
  noteInternDelta(Out, Intern0);
  noteCacheDelta(Out, Cache0, E.server().service().cache().stats());
  E.stop();
  return Out;
}

//===----------------------------------------------------------------------===//
// Checks after the timed phase
//===----------------------------------------------------------------------===//

namespace {

TermPtr flatInput(const Record &Rec, std::string &Error) {
  if (Rec.IsScad) {
    scad::ScadResult R = scad::parseScad(Rec.Source);
    if (!R)
      Error = "input does not parse: " + R.Error;
    return R.Value;
  }
  ParseResult P = parseSexp(Rec.Source);
  if (!P) {
    Error = "input does not parse: " + P.Error;
    return nullptr;
  }
  if (isFlatCsg(P.Value))
    return P.Value;
  EvalResult E = evalToFlatCsg(P.Value);
  if (!E)
    Error = "input does not flatten: " + E.Error;
  return E.Value;
}

std::string coldKey(const Record &Rec) {
  return std::to_string(static_cast<int>(Rec.Cost)) + ":" +
         std::to_string(Rec.TopK) + ":" + Rec.Source;
}

} // namespace

bool perfbench::checkRun(RunResult &R, const RunConfig &C, std::string &Log) {
  // Flat inputs, one per distinct source.
  std::map<std::string, TermPtr> Inputs;
  std::map<std::string, std::string> InputErrors;
  for (const Record &Rec : R.Records)
    if (!Rec.Failed && !Inputs.count(Rec.Source)) {
      std::string Error;
      Inputs[Rec.Source] = flatInput(Rec, Error);
      InputErrors[Rec.Source] = Error;
    }
  auto Fail = [](Record &Rec, const std::string &Why) {
    if (!Rec.CheckFailed)
      Rec.Error = Why;
    Rec.CheckFailed = true;
  };

  Checker Check;
  parallelFor(R.Records.size(), C.Threads, [&](size_t I) {
    Record &Rec = R.Records[I];
    if (Rec.Failed)
      return;
    const TermPtr &In = Inputs.find(Rec.Source)->second;
    if (!In) {
      Fail(Rec, InputErrors.find(Rec.Source)->second);
      return;
    }
    Rec.InputNodes = termSize(In);
    std::string Error;
    if (!completePrograms(Rec.Programs, Error)) {
      Fail(Rec, Error);
      return;
    }
    std::string Why = Check.checkPrograms(In, Rec.Cost, Rec.Programs);
    if (!Why.empty())
      Fail(Rec, Why);
  });

  // Cold equality: one direct synthesis per distinct request.
  std::map<std::string, std::vector<Program>> Cold;
  std::vector<const Record *> ColdFirst;
  for (const Record &Rec : R.Records)
    if (!Rec.Failed && Rec.WantCold && Inputs[Rec.Source] &&
        Cold.emplace(coldKey(Rec), std::vector<Program>()).second)
      ColdFirst.push_back(&Rec);
  parallelFor(ColdFirst.size(), C.Threads, [&](size_t I) {
    const Record &Rec = *ColdFirst[I];
    Cold.find(coldKey(Rec))->second = coldSynthesis(
        Inputs.find(Rec.Source)->second, Rec.Cost, Rec.TopK);
  });
  size_t ColdCompared = 0;
  for (Record &Rec : R.Records) {
    if (Rec.Failed || !Rec.WantCold || !Inputs[Rec.Source])
      continue;
    ++ColdCompared;
    std::string Why = checkSameAs(Rec.Programs, Cold[coldKey(Rec)]);
    if (!Why.empty())
      Fail(Rec, Why);
  }

  size_t Rejected = 0;
  for (const Record &Rec : R.Records)
    if (Rec.CheckFailed) {
      if (++Rejected <= 5)
        Log += "check failed: request " + std::to_string(Rec.Id) + " (" +
               Rec.Kind + ", " + Rec.Family + "): " + Rec.Error + "\n";
    }
  Log += "checks: " + std::to_string(R.Records.size()) + " requests, " +
         std::to_string(Check.structural()) + " flattenings identical, " +
         std::to_string(Check.sampled()) + " sampled, " +
         std::to_string(ColdCompared) + " compared with " +
         std::to_string(Cold.size()) + " cold runs, " +
         std::to_string(Rejected) + " rejected\n";

  // Self-test on the first passing output whose ranks differ in cost.
  bool SelfOk = false;
  for (const Record &Rec : R.Records) {
    if (Rec.Failed || Rec.CheckFailed || !ranksDiffer(Rec.Programs))
      continue;
    const std::vector<Program> *ColdRef =
        Rec.WantCold ? &Cold[coldKey(Rec)] : nullptr;
    SelfOk = selfTest(Check, Inputs[Rec.Source], Rec.Cost, Rec.Programs,
                      ColdRef, Log);
    break;
  }
  if (!SelfOk)
    Log += "self-test: FAILED\n";
  return SelfOk && Rejected == 0;
}
