//===-- oracles/ReferenceExtract.cpp - Extraction oracles -----------------===//
//
// The fixed-point oracles and the helpers only they use: a total order on
// e-nodes for the one-best tie-break, map-keyed node costing, and the
// term-materializing per-class k-best combine.
//
//===----------------------------------------------------------------------===//

#include "oracles/ReferenceExtract.h"

#include <cassert>
#include <queue>

using namespace shrinkray;

namespace {

/// Three-way total order on operators (kind, then payload). Symbol payloads
/// compare by spelling so the order does not depend on interning order.
int opCompare(const Op &A, const Op &B) {
  if (A.kind() != B.kind())
    return A.kind() < B.kind() ? -1 : 1;
  switch (A.kind()) {
  case OpKind::Int:
    if (A.intValue() != B.intValue())
      return A.intValue() < B.intValue() ? -1 : 1;
    return 0;
  case OpKind::Float:
    if (A.floatValue() != B.floatValue())
      return A.floatValue() < B.floatValue() ? -1 : 1;
    return 0;
  case OpKind::Var:
  case OpKind::External:
  case OpKind::OpRef:
  case OpKind::PatVar:
    return A.symbol().str().compare(B.symbol().str());
  default:
    return 0;
  }
}

/// Three-way total order on e-nodes under the current union-find: operator,
/// then arity, then canonical child ids left to right. Distinct canonical
/// nodes never compare equal, so using this to break cost ties makes the
/// extraction fixpoint unique — the property the differential tests pin.
int enodeCompare(const EGraph &G, const ENode &A, const ENode &B) {
  if (int C = opCompare(A.Operator, B.Operator))
    return C;
  if (A.Children.size() != B.Children.size())
    return A.Children.size() < B.Children.size() ? -1 : 1;
  for (size_t I = 0; I < A.Children.size(); ++I) {
    EClassId CA = G.find(A.Children[I]), CB = G.find(B.Children[I]);
    if (CA != CB)
      return CA < CB ? -1 : 1;
  }
  return 0;
}

/// Cost-table lookup, or nullptr while the class has no cost yet.
inline const double *findCost(const std::unordered_map<EClassId, double> &Costs,
                              EClassId Id) {
  auto It = Costs.find(Id);
  return It == Costs.end() ? nullptr : &It->second;
}

/// Cost of \p Node given the per-class cost table, or nullopt while any
/// child is still unextractable. Children are resolved through find(), so
/// stale node forms cost correctly. \p Kids is caller-owned scratch.
std::optional<double>
nodeCost(const EGraph &G, const CostFn &Fn,
         const std::unordered_map<EClassId, double> &Costs, const ENode &Node,
         std::vector<double> &Kids) {
  Kids.clear();
  for (EClassId Kid : Node.Children) {
    const double *C = findCost(Costs, G.find(Kid));
    if (!C)
      return std::nullopt;
    Kids.push_back(*C);
  }
  return Fn.cost(Node.Operator, Kids);
}

using KTable = std::unordered_map<EClassId, std::vector<ExtractCandidate>>;

/// The candidate list of \p Id, or nullptr while the class has none.
const std::vector<ExtractCandidate> *candList(const KTable &Table,
                                              const EGraph &G, EClassId Id) {
  auto It = Table.find(G.find(Id));
  if (It == Table.end() || It->second.empty())
    return nullptr;
  return &It->second;
}

/// Recomputes the up-to-k cheapest distinct candidates of class \p Id from
/// its children's current candidate lists: one best-first frontier heap
/// over *all* the class's e-nodes ("cube pruning" / lazy k-shortest paths),
/// popping combinations in ascending (cost, node index, combination index)
/// order and deduplicating by value hash, so the k-th distinct program is
/// found after O(k) pops plus duplicates instead of materializing k
/// candidates per node and merging. Deterministic: the heap order is a
/// total order, so ties resolve identically regardless of caller.
///
/// This is the term-materializing combine; the engine runs the row-based
/// KBestExtractor::combineClass, which shares the heap order and dedup
/// semantics but allocates no terms.
std::vector<ExtractCandidate> combineClass(const EGraph &G, const CostFn &Fn,
                                           size_t K, EClassId Id,
                                           const KTable &Table) {
  const std::vector<ENode> &Nodes = G.eclass(Id).Nodes;

  // Resolved child candidate lists, flattened across nodes; a node with a
  // candidate-less child stays unusable this round (Arity == NotUsable).
  constexpr size_t NotUsable = static_cast<size_t>(-1);
  std::vector<const std::vector<ExtractCandidate> *> ChildLists;
  std::vector<std::pair<size_t, size_t>> Span(Nodes.size()); // offset, arity
  for (size_t N = 0; N < Nodes.size(); ++N) {
    const ENode &Node = Nodes[N];
    Span[N] = {ChildLists.size(), Node.Children.size()};
    for (EClassId Kid : Node.Children) {
      const std::vector<ExtractCandidate> *L = candList(Table, G, Kid);
      if (!L) {
        ChildLists.resize(Span[N].first);
        Span[N].second = NotUsable;
        break;
      }
      ChildLists.push_back(L);
    }
  }
  auto kidCand = [&](size_t N, size_t I,
                     const std::vector<size_t> &Ix) -> const ExtractCandidate & {
    return (*ChildLists[Span[N].first + I])[Ix[I]];
  };

  std::vector<double> CostScratch;
  auto comboCost = [&](size_t N, const std::vector<size_t> &Ix) {
    CostScratch.resize(Ix.size());
    for (size_t I = 0; I < Ix.size(); ++I)
      CostScratch[I] = kidCand(N, I, Ix).Cost;
    return Fn.cost(Nodes[N].Operator, CostScratch);
  };

  // Frontier items carry the position they last bumped; successors only
  // bump positions >= Bump, which generates every combination exactly once
  // (canonical non-decreasing bump order) without a visited set.
  struct Item {
    double Cost;
    size_t NodeIdx;
    size_t Bump;
    std::vector<size_t> Ix;
  };
  auto Later = [](const Item &A, const Item &B) {
    if (A.Cost != B.Cost)
      return A.Cost > B.Cost;
    if (A.NodeIdx != B.NodeIdx)
      return A.NodeIdx > B.NodeIdx;
    return A.Ix > B.Ix;
  };
  std::priority_queue<Item, std::vector<Item>, decltype(Later)> Frontier(
      Later);
  for (size_t N = 0; N < Nodes.size(); ++N) {
    if (Span[N].second == NotUsable)
      continue;
    std::vector<size_t> First(Span[N].second, 0);
    double Cost = comboCost(N, First);
    Frontier.push({Cost, N, 0, std::move(First)});
  }

  // A popped combination equals an accepted candidate iff the operator and
  // the child candidate terms match under value equality — checkable
  // without materializing the term, so duplicates cost no allocation. The
  // hash prefilter keeps the scan to (expected) zero term comparisons.
  auto isDupOf = [&](const ExtractCandidate &U, const Op &O, size_t N,
                     const std::vector<size_t> &Ix) {
    const Term &B = *U.T;
    bool ONum = O.kind() == OpKind::Int || O.kind() == OpKind::Float;
    bool BNum = B.kind() == OpKind::Int || B.kind() == OpKind::Float;
    if (ONum || BNum)
      return ONum && BNum && O.numericValue() == B.op().numericValue();
    if (O != B.op() || B.numChildren() != Ix.size())
      return false;
    for (size_t I = 0; I < Ix.size(); ++I)
      if (!termApproxEquals(kidCand(N, I, Ix).T, B.child(I), 0.0))
        return false;
    return true;
  };

  // The class's previous candidate list: in the fixed point's steady
  // state this pass re-derives exactly these candidates, so a 5-element
  // pointer-equality scan answers most term constructions without
  // touching the interner at all.
  const std::vector<ExtractCandidate> *Prev = nullptr;
  if (auto PrevIt = Table.find(Id); PrevIt != Table.end())
    Prev = &PrevIt->second;

  std::vector<ExtractCandidate> Out;
  std::vector<size_t> KidHashes;
  std::vector<const Term *> RawKids;
  while (!Frontier.empty() && Out.size() < K) {
    Item Top = Frontier.top();
    Frontier.pop();
    const ENode &Node = Nodes[Top.NodeIdx];
    const size_t Arity = Top.Ix.size();

    // O(arity): child candidates carry their value hashes already.
    KidHashes.resize(Arity);
    for (size_t I = 0; I < Arity; ++I)
      KidHashes[I] = kidCand(Top.NodeIdx, I, Top.Ix).ValueHash;
    size_t Hash = termValueHashNode(Node.Operator, KidHashes);
    bool Dup = false;
    for (const ExtractCandidate &U : Out)
      if (U.ValueHash == Hash &&
          isDupOf(U, Node.Operator, Top.NodeIdx, Top.Ix)) {
        Dup = true;
        break;
      }
    if (!Dup) {
      // Fixed-point passes re-derive the same candidates over and over;
      // resolve the term against last pass's list (structural identity:
      // same operator, pointer-equal children), then the interner's
      // lock-guarded probe, and only build a child vector when the term
      // really is new. The steady state allocates nothing.
      TermPtr T;
      if (Prev)
        for (const ExtractCandidate &P : *Prev) {
          const Term &PT = *P.T;
          if (P.ValueHash != Hash || PT.op() != Node.Operator ||
              PT.numChildren() != Arity)
            continue;
          bool Same = true;
          for (size_t I = 0; I < Arity; ++I)
            if (PT.child(I).get() != kidCand(Top.NodeIdx, I, Top.Ix).T.get()) {
              Same = false;
              break;
            }
          if (Same) {
            T = P.T;
            break;
          }
        }
      if (!T) {
        RawKids.resize(Arity);
        for (size_t I = 0; I < Arity; ++I)
          RawKids[I] = kidCand(Top.NodeIdx, I, Top.Ix).T.get();
        T = lookupTerm(Node.Operator, RawKids.data(), Arity);
      }
      if (!T) {
        std::vector<TermPtr> Kids(Arity);
        for (size_t I = 0; I < Arity; ++I)
          Kids[I] = kidCand(Top.NodeIdx, I, Top.Ix).T;
        T = makeTerm(Node.Operator, std::move(Kids));
      }
      Out.push_back({Top.Cost, std::move(T), Hash});
    }

    // Expand successors: bump one child index at a time, never before the
    // position this item bumped.
    for (size_t I = Top.Bump; I < Arity; ++I) {
      if (Top.Ix[I] + 1 >= ChildLists[Span[Top.NodeIdx].first + I]->size())
        continue;
      std::vector<size_t> Next = Top.Ix;
      ++Next[I];
      Frontier.push({comboCost(Top.NodeIdx, Next), Top.NodeIdx, I,
                     std::move(Next)});
    }
  }
  return Out;
}

/// Exact equality of candidate lists (cost, hash, then term structure).
bool listsEqual(const std::vector<ExtractCandidate> &A,
                const std::vector<ExtractCandidate> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].Cost != B[I].Cost || A[I].ValueHash != B[I].ValueHash ||
        !termEquals(A[I].T, B[I].T))
      return false;
  return true;
}

/// Builds the chosen-term tree from a choice table.
TermPtr buildFromChoices(
    const EGraph &G, const std::unordered_map<EClassId, ENode> &Choices,
    std::unordered_map<EClassId, TermPtr> &Memo, EClassId Id) {
  Id = G.find(Id);
  auto Hit = Memo.find(Id);
  if (Hit != Memo.end())
    return Hit->second;
  auto It = Choices.find(Id);
  assert(It != Choices.end() && "extracting from a class with no finite cost");
  const ENode &Node = It->second;
  std::vector<TermPtr> Kids;
  Kids.reserve(Node.Children.size());
  for (EClassId Kid : Node.Children)
    Kids.push_back(buildFromChoices(G, Choices, Memo, Kid));
  TermPtr T = makeTerm(Node.Operator, std::move(Kids));
  Memo.emplace(Id, T);
  return T;
}

} // namespace

//===----------------------------------------------------------------------===//
// One-best extraction oracle
//===----------------------------------------------------------------------===//

ReferenceExtractor::ReferenceExtractor(const EGraph &G, const CostFn &Fn)
    : G(G) {
  assert(!G.isDirty() && "extraction on a dirty e-graph");
  // Fixpoint: (cost, choice) pairs only decrease and are bounded below, so
  // this terminates, and the enodeCompare tie-break makes it unique.
  bool Changed = true;
  std::vector<double> KidScratch;
  while (Changed) {
    Changed = false;
    for (EClassId Id : G.classIds()) {
      for (const ENode &Node : G.eclass(Id).Nodes) {
        std::optional<double> C = nodeCost(G, Fn, Costs, Node, KidScratch);
        if (!C)
          continue;
        auto It = Costs.find(Id);
        bool Better = It == Costs.end() || *C < It->second;
        if (!Better && *C == It->second) {
          ENode Canon = G.canonicalize(Node);
          if (enodeCompare(G, Canon, Choices.at(Id)) < 0) {
            Choices.insert_or_assign(Id, std::move(Canon));
            Changed = true;
          }
          continue;
        }
        if (!Better)
          continue;
        Costs[Id] = *C;
        Choices.insert_or_assign(Id, G.canonicalize(Node));
        Changed = true;
      }
    }
  }
}

std::optional<double> ReferenceExtractor::bestCost(EClassId Id) const {
  auto It = Costs.find(G.find(Id));
  if (It == Costs.end())
    return std::nullopt;
  return It->second;
}

TermPtr ReferenceExtractor::extract(EClassId Id) const {
  return build(G.find(Id));
}

const ENode *ReferenceExtractor::choiceNode(EClassId Id) const {
  auto It = Choices.find(G.find(Id));
  return It == Choices.end() ? nullptr : &It->second;
}

TermPtr ReferenceExtractor::build(EClassId Id) const {
  return buildFromChoices(G, Choices, BuildMemo, Id);
}

//===----------------------------------------------------------------------===//
// Top-k extraction oracle
//===----------------------------------------------------------------------===//

ReferenceKBestExtractor::ReferenceKBestExtractor(const EGraph &G,
                                                 const CostFn &Fn, size_t K)
    : G(G), Fn(Fn), K(K) {
  assert(!G.isDirty() && "extraction on a dirty e-graph");
  assert(K >= 1 && "k must be positive");
  // Process classes in ascending one-best-cost order: under a monotone cost
  // function a node's children are cheaper than the node, so a single
  // ordered pass almost always reaches the fixpoint and the loop below
  // exits after the confirming pass.
  ReferenceExtractor OneBest(G, Fn);
  ClassOrder = G.classIds();
  std::stable_sort(ClassOrder.begin(), ClassOrder.end(),
                   [&](EClassId A, EClassId B) {
                     double CA = OneBest.bestCost(A).value_or(1e308);
                     double CB = OneBest.bestCost(B).value_or(1e308);
                     return CA < CB;
                   });
  // Candidate sets only improve (costs shrink or new distinct cheap terms
  // appear) and are bounded, so this terminates; the pass cap is sheer
  // paranoia for pathological graphs.
  const size_t MaxPasses = 4 * G.numClasses() + 8;
  for (size_t Pass = 0; Pass < MaxPasses; ++Pass)
    if (!this->pass())
      break;
}

bool ReferenceKBestExtractor::pass() {
  bool Changed = false;
  for (EClassId Id : ClassOrder) {
    std::vector<ExtractCandidate> New = combineClass(G, Fn, K, Id, Table);
    std::vector<ExtractCandidate> &Slot = Table[Id];
    if (listsEqual(Slot, New))
      continue;
    Slot = std::move(New);
    Changed = true;
  }
  return Changed;
}

std::vector<RankedTerm> ReferenceKBestExtractor::extract(EClassId Id) const {
  std::vector<RankedTerm> Out;
  auto It = Table.find(G.find(Id));
  if (It == Table.end())
    return Out;
  for (const ExtractCandidate &C : It->second)
    Out.push_back({C.T, C.Cost});
  return Out;
}
