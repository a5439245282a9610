//===-- bench/bench_service.cpp - RPC front-end latency/throughput --------===//
//
// Measures the JSONL RPC server end to end — client socket to worker pool
// and back — under concurrent clients, against a real TCP listener on
// 127.0.0.1. Three passes over a small fixed corpus of quick models (the
// pipeline itself is benched elsewhere; this harness isolates the
// request path):
//
//   rpc_cold_c1  — one client, first sight of each model: full pipeline
//                  behind one request each, populating the cache;
//   rpc_warm_c1  — one client hammering the warm cache: pure per-request
//                  overhead (framing, admission, scheduling, wait);
//   rpc_warm_c4  — four concurrent clients on their own connections:
//                  request-path contention.
//
// Per-pass rows report p50/p95 request latency and jobs/sec; time_sec
// (the pass wall clock) is the CI-gated column. Hard gates besides the
// thresholds: every request must succeed, and the warm passes must
// actually hit the cache — a cold warm pass fails the harness.
//
// Emits BENCH_service.json (schema in docs/BENCHMARKS.md).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "server/Client.h"
#include "server/Server.h"

#include <algorithm>
#include <atomic>
#include <thread>

using namespace shrinkray;
using namespace shrinkray::bench;
using namespace shrinkray::server;

namespace {

/// Quick distinct models: small enough that a request is dominated by
/// the request path on the warm passes, distinct enough for one cache
/// entry each.
const char *kCorpus[] = {
    "(Union Unit (Translate (Vec3 2 0 0) Unit))",
    "(Union (Translate (Vec3 0 2 0) Unit) (Union Unit "
    "(Translate (Vec3 0 4 0) Unit)))",
    "(Union (Translate (Vec3 1 1 0) (Scale (Vec3 2 1 1) Unit)) Unit)",
};
constexpr size_t kCorpusSize = sizeof(kCorpus) / sizeof(kCorpus[0]);

struct PassStats {
  std::vector<double> LatencySec; ///< per request
  double WallSec = 0.0;
  size_t Ok = 0, CacheHits = 0, Failures = 0;
};

double percentile(std::vector<double> Sorted, double P) {
  if (Sorted.empty())
    return 0.0;
  std::sort(Sorted.begin(), Sorted.end());
  size_t Idx = static_cast<size_t>(P * static_cast<double>(Sorted.size() - 1));
  return Sorted[Idx];
}

/// One client thread's share of a pass: its own connection, \p Requests
/// submits round-robin over the corpus, every one awaited to completion.
void clientWorker(uint16_t Port, const std::string &Identity, size_t Requests,
                  PassStats &Out, std::atomic<bool> &Failed) {
  ClientConnection Conn;
  std::string Error;
  if (!Conn.connect("127.0.0.1", Port, Error) ||
      !Conn.hello(Identity, Error)) {
    std::fprintf(stderr, "[bench] %s: %s\n", Identity.c_str(), Error.c_str());
    Failed = true;
    return;
  }
  for (size_t I = 0; I < Requests; ++I) {
    Request R;
    R.K = Request::Kind::Submit;
    R.Name = "m" + std::to_string(I % kCorpusSize);
    R.Source = kCorpus[I % kCorpusSize];
    R.TopK = 3;
    WallTimer T;
    std::optional<RemoteOutcome> Res = Conn.submitAndWait(R, Error);
    double Sec = T.seconds();
    if (!Res) {
      std::fprintf(stderr, "[bench] %s request %zu: %s\n", Identity.c_str(),
                   I, Error.c_str());
      Failed = true;
      return;
    }
    Out.LatencySec.push_back(Sec);
    if (Res->Status == "failed")
      ++Out.Failures;
    else
      ++Out.Ok;
    if (Res->Status == "cache-hit")
      ++Out.CacheHits;
  }
}

/// Runs one pass with \p Clients concurrent connections, \p RequestsEach
/// per client; merges the per-client stats.
PassStats runPass(uint16_t Port, const char *Kind, size_t Clients,
                  size_t RequestsEach, std::atomic<bool> &Failed) {
  std::vector<PassStats> PerClient(Clients);
  WallTimer Wall;
  std::vector<std::thread> Threads;
  for (size_t C = 0; C < Clients; ++C)
    Threads.emplace_back(clientWorker, Port,
                         std::string(Kind) + "/c" + std::to_string(C),
                         RequestsEach, std::ref(PerClient[C]),
                         std::ref(Failed));
  for (std::thread &T : Threads)
    T.join();
  PassStats Merged;
  Merged.WallSec = Wall.seconds();
  for (PassStats &S : PerClient) {
    Merged.LatencySec.insert(Merged.LatencySec.end(), S.LatencySec.begin(),
                             S.LatencySec.end());
    Merged.Ok += S.Ok;
    Merged.CacheHits += S.CacheHits;
    Merged.Failures += S.Failures;
  }
  return Merged;
}

void addRow(JsonReport &Report, const char *Kind, size_t Clients,
            const PassStats &S) {
  double JobsPerSec =
      S.WallSec > 0
          ? static_cast<double>(S.LatencySec.size()) / S.WallSec
          : 0.0;
  std::printf("%-12s | %zu clients | %4zu reqs | p50 %7.3f ms | p95 %7.3f ms"
              " | %8.1f jobs/s | %zu hits\n",
              Kind, Clients, S.LatencySec.size(),
              1e3 * percentile(S.LatencySec, 0.50),
              1e3 * percentile(S.LatencySec, 0.95), JobsPerSec, S.CacheHits);
  Report.row()
      .add("kind", Kind)
      .add("clients", Clients)
      .add("requests", S.LatencySec.size())
      .add("time_sec", S.WallSec)
      .add("p50_ms", 1e3 * percentile(S.LatencySec, 0.50))
      .add("p95_ms", 1e3 * percentile(S.LatencySec, 0.95))
      .add("jobs_per_sec", JobsPerSec)
      .add("cache_hits", S.CacheHits)
      .add("failures", S.Failures);
}

} // namespace

int main() {
  JsonReport Report("service");

  ServerConfig Cfg;
  Cfg.Service.NumWorkers = 4;
  Cfg.Service.MaxQueueDepth = 256;
  Cfg.DrainGraceSec = 30.0;
  Server S(Cfg);
  std::atomic<uint16_t> Port{0};
  std::thread ServerThread([&] { S.runTcp(0, &Port); });
  for (int I = 0; I < 500 && Port == 0; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  if (Port == 0) {
    std::fprintf(stderr, "[bench] server never bound\n");
    return 1;
  }

  std::atomic<bool> Failed{false};

  // Cold: each model once, populating the cache.
  PassStats Cold = runPass(Port, "rpc_cold_c1", 1, kCorpusSize, Failed);
  addRow(Report, "rpc_cold_c1", 1, Cold);

  // Warm single-client: pure request-path overhead. Request counts are
  // sized so the pass wall clock clears bench_diff's min-time floor
  // (~0.05 s) — the row must be gateable, not timer noise.
  PassStats Warm1 = runPass(Port, "rpc_warm_c1", 1, 2000, Failed);
  addRow(Report, "rpc_warm_c1", 1, Warm1);

  // Warm concurrent: four connections contending on the request path.
  PassStats Warm4 = runPass(Port, "rpc_warm_c4", 4, 1000, Failed);
  addRow(Report, "rpc_warm_c4", 4, Warm4);

  S.requestStop();
  ServerThread.join();

  const size_t Total =
      Cold.LatencySec.size() + Warm1.LatencySec.size() + Warm4.LatencySec.size();
  const size_t Succeeded = Cold.Ok + Warm1.Ok + Warm4.Ok;
  // Hard gates: transport intact, every request succeeded, and the warm
  // passes were actually warm (a cold warm pass means the cache tier or
  // the server-side keying broke — a correctness failure, not jitter).
  const bool WarmWasWarm =
      Warm1.CacheHits == Warm1.LatencySec.size() &&
      Warm4.CacheHits == Warm4.LatencySec.size();
  if (!WarmWasWarm)
    std::printf("WARM PASS RAN COLD: %zu/%zu + %zu/%zu hits\n",
                Warm1.CacheHits, Warm1.LatencySec.size(), Warm4.CacheHits,
                Warm4.LatencySec.size());

  Report.top()
      .add("requests", Total)
      .add("succeeded", Succeeded)
      .add("warm_pass_all_hits", WarmWasWarm)
      .add("cold_jobs_per_sec",
           Cold.WallSec > 0
               ? static_cast<double>(Cold.LatencySec.size()) / Cold.WallSec
               : 0.0)
      .add("warm_c4_jobs_per_sec",
           Warm4.WallSec > 0
               ? static_cast<double>(Warm4.LatencySec.size()) / Warm4.WallSec
               : 0.0);
  addResourceFields(Report.top());

  bool Wrote = Report.write();
  bool Pass = Wrote && !Failed && Succeeded == Total && WarmWasWarm;
  return Pass ? 0 : 1;
}
