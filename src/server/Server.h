//===-- server/Server.h - JSONL RPC front end over the service --*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The network front end of the synthesis service: a framed JSONL RPC
/// server speaking the Protocol.h grammar over stdio (one session on
/// stdin/stdout) or TCP (127.0.0.1, one thread per connection).
///
/// Layering: handleFrame() is the entire request semantics — one request
/// line in, one response line out, given a per-connection Session — and
/// is transport-free, so the protocol tests and the fuzz sweep drive it
/// directly without sockets. The transports (runStdio/runTcp) only move
/// bytes and enforce the frame cap.
///
/// Traffic management (the part the in-process scheduler never needed):
///
///  * admission — submits pass the per-client token bucket
///    (AdmissionController) and then SynthesisService::trySubmit's
///    bounded queue; refusals are explicit `rejected: quota` /
///    `rejected: queue_full` responses, never unbounded buffering.
///  * bounded waits — wait requests are served in stop-aware slices and
///    clamped to MaxWaitTimeoutSec, so no connection thread can be
///    parked forever.
///  * graceful drain — requestStop() (the SIGTERM handler sets it) stops
///    admission (`rejected: draining`), lets in-flight jobs finish for
///    up to DrainGraceSec, cancels the rest via service teardown, and
///    flushes a stats line to stderr.
///
/// Nothing a peer sends can crash the process: every malformed frame
/// degrades to an error response (see Protocol.h), and handleFrame is
/// exception-proof at its boundary.
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_SERVER_SERVER_H
#define SHRINKRAY_SERVER_SERVER_H

#include "server/Admission.h"
#include "server/Protocol.h"
#include "service/SynthesisService.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

namespace shrinkray {
namespace server {

struct ServerConfig {
  /// The wrapped scheduler's configuration. MaxQueueDepth is the
  /// admission bound (0 would disable backpressure; the serve tool
  /// defaults it to 64).
  service::ServiceConfig Service;
  /// Per-client token-bucket quota; Capacity 0 = no quotas.
  QuotaConfig Quota;
  /// Bound on distinct client-id buckets kept at once (LRU-evicted).
  size_t MaxClients = 4096;
  /// Wait timeout applied when a wait request names none.
  double DefaultWaitTimeoutSec = 30.0;
  /// Hard ceiling on any single wait request's blocking time.
  double MaxWaitTimeoutSec = 600.0;
  /// Frame cap; longer request lines are answered with an error and the
  /// connection is closed (framing is lost past an oversized line).
  size_t MaxFrameBytes = kMaxFrameBytes;
  /// How long a drain waits for in-flight jobs before cancelling them.
  double DrainGraceSec = 20.0;
  /// Log connections and drain progress to stderr.
  bool Verbose = false;
};

/// One server instance: the scheduler, the admission gate, and the two
/// transports. Thread-safe throughout (transports call handleFrame from
/// many connection threads).
class Server {
public:
  /// Per-connection state: the quota identity the handshake established.
  struct Session {
    std::string Client = "anon";
    bool SaidHello = false;
  };

  explicit Server(ServerConfig Cfg);

  /// One request frame (no trailing newline) -> one response line (no
  /// trailing newline). Never throws, never aborts, for any input.
  std::string handleFrame(Session &S, std::string_view Line);

  /// Serves one session over stdin/stdout until EOF or requestStop().
  /// Returns a process exit code.
  int runStdio();

  /// Serves TCP connections on 127.0.0.1:\p Port (0 = ephemeral) until
  /// requestStop(). The bound port is reported through \p BoundPort
  /// (atomic: the caller polls it from another thread) and announced on
  /// stderr as "listening on 127.0.0.1:<port>".
  int runTcp(uint16_t Port, std::atomic<uint16_t> *BoundPort = nullptr);

  /// Initiates drain-and-exit; callable from any thread and from a
  /// signal handler's flag-forwarding thread. Idempotent.
  void requestStop() { Stop.store(true, std::memory_order_release); }
  bool stopping() const { return Stop.load(std::memory_order_acquire); }

  service::SynthesisService &service() { return Svc; }

  /// The stats-op payload: server counters, service counters, cache
  /// counters, and the per-client table.
  JsonValue statsJson();

  /// Writes the human-readable drain/stats summary to stderr.
  void flushStats();

private:
  /// Monotonic seconds since server construction (token-bucket clock).
  double nowSec() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Epoch)
        .count();
  }

  std::string handleParsed(Session &S, const ParsedRequest &P);
  std::string handleSubmit(Session &S, const Request &R);
  std::string handleWait(const Request &R);

  /// Runs the drain sequence after the serve loop exits.
  void drain();

  ServerConfig Cfg;
  std::chrono::steady_clock::time_point Epoch;
  service::SynthesisService Svc;
  AdmissionController Admission;
  std::atomic<bool> Stop{false};
  /// Set once drain completed: connection threads exit unconditionally.
  std::atomic<bool> HardStop{false};
  std::atomic<uint64_t> Frames{0};
  std::atomic<uint64_t> BadFrames{0};
  std::atomic<uint64_t> Connections{0};
};

} // namespace server
} // namespace shrinkray

#endif // SHRINKRAY_SERVER_SERVER_H
