//===-- perfbench/src/Trace.h - In-memory span recorder ---------*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans for the traced run. A request gets a root span, and each call the
/// benchmark makes into a library module gets a child span. Spans carry a
/// name, start, end, parent span and request id; the per-request figures
/// the library returns ride on the root span. Spans stay in memory and are
/// written once, at exit, as Chrome trace-event JSON. When tracing is off
/// every call is a branch on one flag.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

class Tracer {
public:
  explicit Tracer(bool On) : On(On) {}

  bool on() const { return On; }

  /// Opens a span; returns its id (0 when tracing is off).
  uint64_t begin(const char *Name, uint64_t Request, uint64_t Parent,
                 unsigned Thread);
  /// Closes span \p Id and attaches \p Args to it.
  void end(uint64_t Id, std::vector<std::pair<std::string, double>> Args = {});

  /// Writes the spans as Chrome trace-event JSON, with \p Summary (the
  /// per-layer metrics) and \p Info under "otherData". Returns false on
  /// an I/O error.
  bool write(const std::string &Path, const std::vector<Metric> &Summary,
             const std::vector<std::pair<std::string, std::string>> &Info)
      const;

  size_t numSpans() const;

private:
  struct SpanRec {
    const char *Name;
    uint64_t Request, Parent;
    unsigned Thread;
    double Start, End;
    std::vector<std::pair<std::string, double>> Args;
  };

  bool On;
  mutable std::mutex M;
  std::vector<SpanRec> Spans;
};

/// Scoped child span.
class Span {
public:
  Span(Tracer &T, const char *Name, uint64_t Request, uint64_t Parent,
       unsigned Thread)
      : T(T), Id(T.begin(Name, Request, Parent, Thread)) {}
  ~Span() { T.end(Id); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  uint64_t id() const { return Id; }

private:
  Tracer &T;
  uint64_t Id;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
