//===-- perfbench/src/Checks.cpp - Property checks on outputs -------------===//

#include "Checks.h"

#include "cad/Eval.h"
#include "cad/Sexp.h"
#include "geom/Sample.h"
#include "linalg/Vec3.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <unordered_map>

using namespace shrinkray;
using namespace perfbench;

namespace {

bool closeCost(double A, double B) {
  return std::fabs(A - B) <= 1e-9 * std::max(1.0, std::fabs(A));
}

/// Collects the operands of a spine of \p Kind nodes rooted at \p T.
void spine(const TermPtr &T, OpKind Kind, std::vector<TermPtr> &Out) {
  if (T->kind() == Kind) {
    for (const TermPtr &Kid : T->children())
      spine(Kid, Kind, Out);
    return;
  }
  Out.push_back(T);
}

/// An affine map p -> A p + B, accumulated from the root down.
struct Affine {
  Mat3 A;
  Vec3 B{0, 0, 0};
};

Vec3 literalVec(const TermPtr &V) {
  return {V->child(0)->op().numericValue(), V->child(1)->op().numericValue(),
          V->child(2)->op().numericValue()};
}

void spell(double V, std::string &Out) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.9g,", std::fabs(V) < 1e-9 ? 0.0 : V);
  Out += Buf;
}

/// Canonical spelling of flat CSG \p T under the map \p M: transforms are
/// pushed down to the primitives (an affine map distributes over union,
/// difference and intersection), union and intersection spines become
/// sorted operand lists, an Empty union operand is dropped, and numbers
/// print to nine significant digits. Equal spellings denote the same solid.
std::string canonical(const TermPtr &T, const Affine &M) {
  switch (T->kind()) {
  case OpKind::Translate: {
    Affine N = M;
    N.B = M.A * literalVec(T->child(0)) + M.B;
    return canonical(T->child(1), N);
  }
  case OpKind::Scale: {
    Affine N = M;
    N.A = M.A * Mat3::scale(literalVec(T->child(0)));
    return canonical(T->child(1), N);
  }
  case OpKind::Rotate: {
    Affine N = M;
    N.A = M.A * Mat3::rotXyz(literalVec(T->child(0)));
    return canonical(T->child(1), N);
  }
  case OpKind::Union:
  case OpKind::Inter: {
    std::vector<TermPtr> Operands;
    spine(T, T->kind(), Operands);
    std::vector<std::string> Parts;
    for (const TermPtr &O : Operands)
      if (!(T->kind() == OpKind::Union && O->kind() == OpKind::Empty))
        Parts.push_back(canonical(O, M));
    if (Parts.empty())
      return "Empty";
    if (Parts.size() == 1)
      return Parts.front();
    std::sort(Parts.begin(), Parts.end());
    std::string Out = T->kind() == OpKind::Union ? "U[" : "I[";
    for (const std::string &P : Parts)
      Out += P + ";";
    return Out + "]";
  }
  case OpKind::Diff:
    return "D[" + canonical(T->child(0), M) + ";" +
           canonical(T->child(1), M) + "]";
  default: {
    // A primitive, Empty or External leaf, placed by M.
    std::string Out = T->op().str() + "{";
    for (int I = 0; I < 3; ++I)
      for (int J = 0; J < 3; ++J)
        spell(M.A.M[I][J], Out);
    spell(M.B.X, Out);
    spell(M.B.Y, Out);
    spell(M.B.Z, Out);
    return Out + "}";
  }
  }
}

std::string canonical(const TermPtr &T) { return canonical(T, Affine()); }

/// \p T with its first solid primitive (pre-order) moved by half a unit
/// along each axis of the primitive's own frame.
TermPtr movePrimitive(const TermPtr &T, bool &Done) {
  if (Done)
    return T;
  switch (T->kind()) {
  case OpKind::Unit:
  case OpKind::Cylinder:
  case OpKind::Sphere:
  case OpKind::Hexagon:
    Done = true;
    return tTranslate(0.5, 0.5, 0.5, T);
  default:
    break;
  }
  std::vector<TermPtr> Kids;
  for (const TermPtr &Kid : T->children())
    Kids.push_back(movePrimitive(Kid, Done));
  if (Kids.empty())
    return T;
  return makeTerm(T->op(), std::move(Kids));
}

/// "" when the reported costs are the programs' costs, in non-decreasing
/// order, and the first is no dearer than the input.
std::string checkCosts(const TermPtr &Input, CostKind Cost,
                       const std::vector<Program> &Programs) {
  if (Programs.empty())
    return "no programs returned";
  char Buf[160];
  for (size_t I = 0; I < Programs.size(); ++I) {
    double Actual = termCost(Programs[I].T, Cost);
    if (!closeCost(Actual, Programs[I].Cost)) {
      std::snprintf(Buf, sizeof(Buf),
                    "rank %zu reports cost %.17g but costs %.17g", I + 1,
                    Programs[I].Cost, Actual);
      return Buf;
    }
    if (I > 0 && Programs[I].Cost < Programs[I - 1].Cost &&
        !closeCost(Programs[I].Cost, Programs[I - 1].Cost)) {
      std::snprintf(Buf, sizeof(Buf),
                    "rank %zu costs %.17g, less than rank %zu (%.17g)", I + 1,
                    Programs[I].Cost, I, Programs[I - 1].Cost);
      return Buf;
    }
  }
  double InputCost = termCost(Input, Cost);
  if (Programs.front().Cost > InputCost &&
      !closeCost(Programs.front().Cost, InputCost)) {
    std::snprintf(Buf, sizeof(Buf), "best costs %.17g, more than input %.17g",
                  Programs.front().Cost, InputCost);
    return Buf;
  }
  return "";
}

} // namespace

double perfbench::termCost(const TermPtr &T, CostKind Kind) {
  const CostFn &Fn = costFn(Kind);
  std::unordered_map<const void *, double> Memo;
  std::function<double(const TermPtr &)> Rec = [&](const TermPtr &N) {
    auto It = Memo.find(N.get());
    if (It != Memo.end())
      return It->second;
    std::vector<double> Kids;
    Kids.reserve(N->numChildren());
    for (const TermPtr &Kid : N->children())
      Kids.push_back(Rec(Kid));
    double C = Fn.cost(N->op(), Kids);
    Memo.emplace(N.get(), C);
    return C;
  };
  return Rec(T);
}

std::string Checker::agrees(const TermPtr &Input, const TermPtr &Program) {
  EvalResult Flat = evalToFlatCsg(Program);
  if (!Flat)
    return "program does not flatten: " + Flat.Error;
  auto Key = std::make_pair(static_cast<const void *>(Input.get()),
                            static_cast<const void *>(Flat.Value.get()));
  {
    std::lock_guard<std::mutex> Lock(M);
    auto It = Verdicts.find(Key);
    if (It != Verdicts.end())
      return It->second;
  }
  std::string Verdict;
  bool Sample =
      Flat.Value != Input && canonical(Flat.Value) != canonical(Input);
  if (Sample) {
    geom::SampleOptions Opts;
    Opts.MismatchTolerance = kMismatchTolerance;
    geom::SampleReport R = geom::compareBySampling(Input, Flat.Value, Opts);
    if (!R.Equivalent) {
      char Buf[128];
      std::snprintf(Buf, sizeof(Buf),
                    "flattened program disagrees with the input on %zu of "
                    "%zu sampled points",
                    R.Mismatches, R.Points);
      Verdict = Buf;
    }
  }
  std::lock_guard<std::mutex> Lock(M);
  ++(Sample ? Sampled : Structural);
  Verdicts.emplace(Key, Verdict);
  Keep.push_back(Input);
  Keep.push_back(Flat.Value);
  return Verdict;
}

std::string Checker::checkPrograms(const TermPtr &Input, CostKind Cost,
                                   const std::vector<Program> &Programs) {
  std::string Why = checkCosts(Input, Cost, Programs);
  if (!Why.empty())
    return Why;
  for (size_t I = 0; I < Programs.size(); ++I) {
    Why = agrees(Input, Programs[I].T);
    if (!Why.empty())
      return "rank " + std::to_string(I + 1) + ": " + Why;
  }
  return "";
}

size_t Checker::sampled() const {
  std::lock_guard<std::mutex> Lock(M);
  return Sampled;
}

size_t Checker::structural() const {
  std::lock_guard<std::mutex> Lock(M);
  return Structural;
}

std::string perfbench::checkSameAs(const std::vector<Program> &Got,
                                   const std::vector<Program> &Cold) {
  if (Got.size() != Cold.size())
    return "returned " + std::to_string(Got.size()) + " programs, cold run " +
           std::to_string(Cold.size());
  for (size_t I = 0; I < Got.size(); ++I) {
    if (Got[I].Sexp != Cold[I].Sexp)
      return "rank " + std::to_string(I + 1) + " differs from the cold run";
    if (std::memcmp(&Got[I].Cost, &Cold[I].Cost, sizeof(double)) != 0)
      return "rank " + std::to_string(I + 1) +
             " cost differs from the cold run";
  }
  return "";
}

std::vector<Program> perfbench::coldSynthesis(const TermPtr &Flat,
                                              CostKind Cost, size_t TopK) {
  SynthesisOptions Opts;
  Opts.Cost = Cost;
  Opts.TopK = TopK;
  Opts.Limits.NumThreads = 1;
  SynthesisResult R = Synthesizer(Opts).synthesize(Flat);
  std::vector<Program> Out;
  for (const RankedTerm &P : R.Programs)
    Out.push_back(Program{P.T, printSexp(P.T), P.Cost});
  return Out;
}

bool perfbench::completePrograms(std::vector<Program> &Programs,
                                 std::string &Error) {
  for (Program &P : Programs) {
    if (!P.T) {
      ParseResult R = parseSexp(P.Sexp);
      if (!R) {
        Error = "returned program does not parse: " + R.Error;
        return false;
      }
      P.T = R.Value;
    }
    if (P.Sexp.empty())
      P.Sexp = printSexp(P.T);
  }
  return true;
}

bool perfbench::ranksDiffer(const std::vector<Program> &Programs) {
  for (size_t I = 0; I + 1 < Programs.size(); ++I)
    if (!closeCost(Programs[I].Cost, Programs[I + 1].Cost))
      return true;
  return false;
}

bool perfbench::selfTest(Checker &C, const TermPtr &Input, CostKind Cost,
                         const std::vector<Program> &Programs,
                         const std::vector<Program> *Cold, std::string &Log) {
  bool Ok = true;
  auto Expect = [&](const char *Case, const char *Check,
                    const std::string &Why) {
    Log += std::string("self-test: ") + Case + " -> " + Check + ": " +
           (Why.empty() ? "ACCEPTED (fault)" : "rejected (" + Why + ")") +
           "\n";
    Ok = Ok && !Why.empty();
  };
  auto Whole = [&](const char *Case, const std::vector<Program> &Bad) {
    Expect(Case, "all property checks", C.checkPrograms(Input, Cost, Bad));
    if (Cold)
      Expect(Case, "cold equality", checkSameAs(Bad, *Cold));
  };

  // A moved primitive: the geometry check must see it.
  std::vector<Program> Moved = Programs;
  bool Done = false;
  Moved[0].T = movePrimitive(Moved[0].T, Done);
  Moved[0].Sexp = printSexp(Moved[0].T);
  Expect("moved primitive", "geometry", C.agrees(Input, Moved[0].T));
  Whole("moved primitive", Moved);

  // Swapped ranks: the first adjacent pair whose costs differ.
  size_t Pair = Programs.size();
  for (size_t I = 0; I + 1 < Programs.size(); ++I)
    if (!closeCost(Programs[I].Cost, Programs[I + 1].Cost)) {
      Pair = I;
      break;
    }
  if (Pair == Programs.size()) {
    Log += "self-test: swapped ranks -> no two ranks differ in cost\n";
    Ok = false;
  } else {
    std::vector<Program> Swapped = Programs;
    std::swap(Swapped[Pair], Swapped[Pair + 1]);
    Expect("swapped ranks", "cost order", checkCosts(Input, Cost, Swapped));
    Whole("swapped ranks", Swapped);
  }

  // A changed cost: the cost check must see it.
  std::vector<Program> Recosted = Programs;
  Recosted[0].Cost += 1.0;
  Expect("changed cost", "cost", checkCosts(Input, Cost, Recosted));
  Whole("changed cost", Recosted);
  return Ok;
}
