//===-- perfbench/src/Trace.cpp - In-memory span recorder -----------------===//

#include "Trace.h"

#include "Metrics.h"

#include "server/Json.h"

#include <fstream>

using namespace perfbench;
using shrinkray::server::JsonValue;

uint64_t Tracer::begin(const char *Name, uint64_t Request, uint64_t Parent,
                       unsigned Thread) {
  if (!On)
    return 0;
  double Now = nowSec();
  std::lock_guard<std::mutex> Lock(M);
  Spans.push_back(SpanRec{Name, Request, Parent, Thread, Now, Now, {}});
  return Spans.size(); // ids are 1-based; 0 means "no span"
}

void Tracer::end(uint64_t Id,
                 std::vector<std::pair<std::string, double>> Args) {
  if (!On || Id == 0)
    return;
  double Now = nowSec();
  std::lock_guard<std::mutex> Lock(M);
  SpanRec &S = Spans[Id - 1];
  S.End = Now;
  for (auto &A : Args)
    S.Args.push_back(std::move(A));
}

size_t Tracer::numSpans() const {
  std::lock_guard<std::mutex> Lock(M);
  return Spans.size();
}

bool Tracer::write(
    const std::string &Path, const std::vector<Metric> &Summary,
    const std::vector<std::pair<std::string, std::string>> &Info) const {
  std::lock_guard<std::mutex> Lock(M);
  double Epoch = Spans.empty() ? 0.0 : Spans.front().Start;
  JsonValue Events = JsonValue::array();
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRec &S = Spans[I];
    JsonValue E = JsonValue::object();
    E.set("name", JsonValue::string(S.Name));
    E.set("cat", JsonValue::string(S.Parent == 0 ? "request" : "call"));
    E.set("ph", JsonValue::string("X"));
    E.set("ts", JsonValue::number((S.Start - Epoch) * 1e6));
    E.set("dur", JsonValue::number((S.End - S.Start) * 1e6));
    E.set("pid", JsonValue::number(1));
    E.set("tid", JsonValue::number(S.Thread));
    JsonValue Args = JsonValue::object();
    Args.set("span", JsonValue::number(static_cast<double>(I + 1)));
    Args.set("parent", JsonValue::number(static_cast<double>(S.Parent)));
    Args.set("request", JsonValue::number(static_cast<double>(S.Request)));
    for (const auto &A : S.Args)
      Args.set(A.first, JsonValue::number(A.second));
    E.set("args", std::move(Args));
    Events.push(std::move(E));
  }
  JsonValue Layers = JsonValue::object();
  for (const Metric &Mt : Summary) {
    JsonValue V = JsonValue::object();
    V.set("value", JsonValue::number(Mt.Value));
    V.set("unit", JsonValue::string(Mt.Unit));
    Layers.set(Mt.Name, std::move(V));
  }
  JsonValue Other = JsonValue::object();
  for (const auto &KV : Info)
    Other.set(KV.first, JsonValue::string(KV.second));
  Other.set("per_layer", std::move(Layers));
  JsonValue Root = JsonValue::object();
  Root.set("traceEvents", std::move(Events));
  Root.set("displayTimeUnit", JsonValue::string("ms"));
  Root.set("otherData", std::move(Other));
  std::ofstream Out(Path);
  Out << shrinkray::server::writeJson(Root) << "\n";
  return static_cast<bool>(Out);
}
