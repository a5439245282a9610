//===-- egraph/Extract.cpp - Cost-based extraction ------------------------===//
//
// The one extraction engine: a one-best cost sweep that orders the work,
// then wave-scheduled k-best recombination over a flat row store. The
// whole-graph fixed-point oracles the tests compare it with live in
// tests/oracles.
//
//===----------------------------------------------------------------------===//

#include "egraph/Extract.h"

#include <cassert>
#include <limits>
#include <queue>

using namespace shrinkray;

namespace {

/// Sentinel for "no finite-cost term" in the one-best cost table. Cost
/// functions are finite by contract (monotone sums/maxes of finite leaf
/// costs), so infinity never denotes a real cost.
constexpr double UnsetCost = std::numeric_limits<double>::infinity();

/// One-best cost of every class, indexed by class id: sweeps all classes
/// until no cost improves. Every stored cost is the cost of a real term and
/// only ever decreases, so the sweep ends at the least fixpoint whatever
/// the visiting order (2-8 passes on saturated graphs, the last confirming
/// nothing changed). A non-finite node cost never beats UnsetCost, so a
/// degenerate cost function leaves its classes unextractable.
std::vector<double> oneBestCosts(const EGraph &G, const CostFn &Fn) {
  std::vector<double> Costs(G.numIds(), UnsetCost);
  const std::vector<EClassId> Ids = G.classIds();
  std::vector<double> Kids;
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (EClassId Id : Ids)
      for (const ENode &Node : G.eclass(Id).Nodes) {
        Kids.clear();
        for (EClassId Kid : Node.Children) {
          const double C = Costs[G.find(Kid)];
          if (!(C < UnsetCost))
            break;
          Kids.push_back(C);
        }
        if (Kids.size() != Node.Children.size())
          continue;
        const double C = Fn.cost(Node.Operator, Kids);
        if (C < Costs[Id]) {
          Costs[Id] = C;
          Changed = true;
        }
      }
  }
  return Costs;
}

} // namespace

//===----------------------------------------------------------------------===//
// Top-k extraction
//===----------------------------------------------------------------------===//

KBestExtractor::KBestExtractor(const EGraph &G, const CostFn &Fn, size_t K)
    : G(G), Fn(Fn), K(K), OneBestCosts(oneBestCosts(G, Fn)) {
  assert(!G.isDirty() && "extraction on a dirty e-graph");
  assert(K >= 1 && "k must be positive");
  derive();
}

void KBestExtractor::derive() {
  // Wave-scheduled worklist. Each round selects the pending classes whose
  // node children are all settled (children first, so the common acyclic
  // case recombines every class exactly once), sorts them by (one-best
  // cost, id), and recombines and commits them in that order; parents of
  // changed classes rejoin the pending set. The schedule is a pure
  // function of the graph, and because candidate lists improve
  // monotonically toward a unique least fixpoint (the property the oracle
  // differential tests pin), the table agrees with the oracle's.
  //
  // Readiness is event-driven, not rescanned: a blocked class can only
  // become ready when a pending child commits (or when it is itself
  // re-enqueued), so each round rechecks exactly the classes one of those
  // events touched — the Recheck list. Chain-shaped graphs (flat CSG is
  // mostly chains) produce thousands of tiny waves, and a full
  // ready-scan of Pending per wave made the scheduler quadratic there:
  // ~1.8 s of a 2.4 s nintendo-slot derivation was the rescans alone.
  // Pending-set membership is a dense byte per class id, not a hashed
  // set: isReady probes it once per (node, child), which made the set
  // lookups themselves a measurable slice of the derivation profile.
  std::vector<uint8_t> Pending(G.numIds(), 0);
  size_t NumPending = 0;
  std::vector<EClassId> Recheck;
  // Fallback aid: min-heap of (one-best cost, id) with at least one live
  // entry per pending class (lazy deletion — entries of classes that left
  // the pending set are skipped on pop). One-best costs are fixed for the
  // whole derivation, so the heap's minimum over live entries is exactly
  // the deterministic (cost, id) minimum of Pending; without it every
  // cycle-fallback round rescans the full pending set, which on
  // cycle-heavy graphs (gear) costs more than the combines themselves.
  using PQItem = std::pair<double, EClassId>;
  std::priority_queue<PQItem, std::vector<PQItem>, std::greater<PQItem>>
      CheapestPending;
  auto enqueue = [&](EClassId Id) {
    Id = G.find(Id);
    // no finite cost => can never have candidates
    if (const double C = OneBestCosts[Id]; C < UnsetCost) {
      if (!Pending[Id]) {
        Pending[Id] = 1;
        ++NumPending;
        CheapestPending.emplace(C, Id);
      }
      // Unconditional: a re-enqueue is a readiness event even when the
      // class never left the pending set (its children may have).
      Recheck.push_back(Id);
    }
  };
  for (EClassId Id : G.classIds())
    enqueue(Id);
  if (NumPending == 0)
    return;

  auto isReady = [&](EClassId Id) {
    for (const ENode &Node : G.eclass(Id).Nodes)
      for (EClassId Kid : Node.Children) {
        EClassId C = G.find(Kid);
        if (C != Id && Pending[C])
          return false;
      }
    return true;
  };

  // Wave members sort by (one-best cost, id); the cost is decorated in
  // rather than looked up per comparison.
  std::vector<std::pair<double, EClassId>> Wave;
  std::vector<CandRef> NewList;
  // A cap on recombinations — sheer paranoia for graphs where
  // k-truncation feedback through cycles could oscillate.
  size_t CombinesLeft = (4 * G.numClasses() + 8) * (K + 2);
  while (NumPending != 0) {
    Wave.clear();
    std::sort(Recheck.begin(), Recheck.end());
    Recheck.erase(std::unique(Recheck.begin(), Recheck.end()), Recheck.end());
    for (EClassId Id : Recheck)
      if (Pending[Id] && isReady(Id))
        Wave.emplace_back(OneBestCosts[Id], Id);
    Recheck.clear();
    if (Wave.empty()) {
      // Every pending class sits on a cycle (a blocked class always has a
      // pending child, so nothing outside Recheck can be ready): fall
      // back to the single cheapest member, the (cost, id) minimum of
      // Pending. Its wave-mates stay blocked until it
      // commits, so they re-enter through the recheck of its parents.
      // The heap cannot run dry here: every pending class has a live
      // entry, and Pending is non-empty.
      while (!Pending[CheapestPending.top().second])
        CheapestPending.pop();
      Wave.push_back(CheapestPending.top());
      CheapestPending.pop();
      // The fallback pick consumed the round's recheck knowledge; rebuild
      // it for the next round from the classes its commit will unblock
      // (handled below by the parent walk) — nothing extra needed here.
    } else {
      std::sort(Wave.begin(), Wave.end());
    }

    if (CombinesLeft < Wave.size()) {
      assert(false && "k-best wave scheduler hit its paranoia cap");
      break;
    }
    CombinesLeft -= Wave.size();

    // Recombine and commit in wave order. Members leave the pending set
    // first so a changed wave-mate that references them can re-enqueue
    // them for the next round; a changed list is observable only through
    // referencing e-nodes (the class's parent entries, self-loops
    // included). Every committed class rechecks its still-pending parents
    // — that, plus re-enqueues, is the complete set of readiness
    // transitions. No member is a child of another (a ready class has no
    // pending child), so each recombination reads the table as the wave
    // found it.
    for (const auto &[Cost, Id] : Wave) {
      (void)Cost;
      Pending[Id] = 0;
      --NumPending;
    }
    for (const auto &[Cost, Id] : Wave) {
      (void)Cost;
      combineClass(Id, NewList);
      std::vector<CandRef> &Slot = Table[Id];
      // Row-id equality is structural equality, so list comparison is O(k).
      bool Changed = Slot.size() != NewList.size();
      for (size_t C = 0; !Changed && C < Slot.size(); ++C)
        Changed = Slot[C].Cost != NewList[C].Cost ||
                  Slot[C].Row != NewList[C].Row;
      if (Changed)
        Slot = NewList; // a copy: NewList keeps its capacity for reuse
      // The raw parent entries may be stale or repeat a class: find()
      // canonicalizes each, the Pending bytes ignore a second enqueue,
      // and Recheck is sorted and de-duplicated before the next round.
      for (const auto &[PNode, PClass] : G.eclass(Id).Parents) {
        (void)PNode;
        EClassId P = G.find(PClass);
        if (Changed)
          enqueue(P);
        else if (Pending[P])
          Recheck.push_back(P);
      }
    }
  }
}

std::vector<RankedTerm> KBestExtractor::extract(EClassId Id) const {
  std::vector<RankedTerm> Out;
  auto It = Table.find(G.find(Id));
  if (It == Table.end())
    return Out;
  for (const CandRef &C : It->second)
    Out.push_back({materializeRow(C.Row), C.Cost});
  return Out;
}

uint32_t KBestExtractor::internRow(const Op &O, const uint32_t *Kids, size_t N,
                                   size_t ValueHash) {
  size_t H = O.hash();
  for (size_t I = 0; I < N; ++I)
    hashCombine(H, Kids[I]);
  // Avalanche before probing: payload-free operators hash to small
  // constants and kid row ids are small sequential integers, so the raw
  // combine is near-sequential — which a power-of-two linear-probe table
  // turns into one giant primary-clustering run (measured: ~640 probes
  // per insert on the nintendo graph without this).
  H = static_cast<size_t>(mix64(H));
  // Grow before probing so the insert position found below stays valid.
  if ((Rows.size() + 1) * 4 > RowIndex.size() * 3) {
    std::vector<RowSlot> Old(RowIndex.empty() ? 256 : RowIndex.size() * 2);
    Old.swap(RowIndex);
    const size_t Mask = RowIndex.size() - 1;
    for (const RowSlot &Sl : Old) {
      if (!Sl.RowPlus1)
        continue;
      size_t I = Sl.Hash & Mask;
      while (RowIndex[I].RowPlus1)
        I = (I + 1) & Mask;
      RowIndex[I] = Sl;
    }
  }
  const size_t Mask = RowIndex.size() - 1;
  size_t SlotI = H & Mask;
  for (; RowIndex[SlotI].RowPlus1; SlotI = (SlotI + 1) & Mask) {
    if (RowIndex[SlotI].Hash != H)
      continue;
    const uint32_t R = RowIndex[SlotI].RowPlus1 - 1;
    const CandRow &Row = Rows[R];
    if (Row.Operator != O || Row.KidsEnd - Row.KidsBegin != N)
      continue;
    bool Same = true;
    for (size_t I = 0; I < N; ++I) {
      if (RowKids[Row.KidsBegin + I] != Kids[I]) {
        Same = false;
        break;
      }
    }
    if (Same)
      return R;
  }
  const uint32_t Begin = static_cast<uint32_t>(RowKids.size());
  RowKids.insert(RowKids.end(), Kids, Kids + N);
  Rows.push_back(
      CandRow{O, Begin, static_cast<uint32_t>(RowKids.size()), ValueHash});
  const uint32_t Id = static_cast<uint32_t>(Rows.size() - 1);
  RowIndex[SlotI] = RowSlot{H, Id + 1};
  return Id;
}

bool KBestExtractor::rowValueEq(uint32_t A, uint32_t B) const {
  if (A == B)
    return true; // interned: structural equality is row-id equality
  const CandRow &RA = Rows[A];
  const CandRow &RB = Rows[B];
  // Value-equal rows always hash equal (the hash respects the Int/Float
  // aliasing below), so differing hashes decide without a walk.
  if (RA.ValueHash != RB.ValueHash)
    return false;
  bool ANum = RA.Operator.kind() == OpKind::Int ||
              RA.Operator.kind() == OpKind::Float;
  bool BNum = RB.Operator.kind() == OpKind::Int ||
              RB.Operator.kind() == OpKind::Float;
  if (ANum || BNum)
    return ANum && BNum &&
           RA.Operator.numericValue() == RB.Operator.numericValue();
  if (RA.Operator != RB.Operator)
    return false;
  const size_t NA = RA.KidsEnd - RA.KidsBegin;
  if (NA != RB.KidsEnd - RB.KidsBegin)
    return false;
  for (size_t I = 0; I < NA; ++I)
    if (!rowValueEq(RowKids[RA.KidsBegin + I], RowKids[RB.KidsBegin + I]))
      return false;
  return true;
}

TermPtr KBestExtractor::materializeRow(uint32_t Root) const {
  auto Hit = RowTerms.find(Root);
  if (Hit != RowTerms.end())
    return Hit->second;
  // Iterative, children-first: candidate programs are routinely deeper
  // than any safe recursion budget.
  std::vector<std::pair<uint32_t, uint32_t>> Stack;
  Stack.emplace_back(Root, 0);
  while (!Stack.empty()) {
    auto &[R, NextKid] = Stack.back();
    if (RowTerms.count(R)) {
      Stack.pop_back();
      continue;
    }
    const CandRow &Row = Rows[R];
    const uint32_t N = Row.KidsEnd - Row.KidsBegin;
    if (NextKid < N) {
      const uint32_t Kid = RowKids[Row.KidsBegin + NextKid];
      ++NextKid;
      if (!RowTerms.count(Kid))
        Stack.emplace_back(Kid, 0);
      continue;
    }
    std::vector<TermPtr> Kids;
    Kids.reserve(N);
    for (uint32_t I = 0; I < N; ++I)
      Kids.push_back(RowTerms.at(RowKids[Row.KidsBegin + I]));
    RowTerms.emplace(R, makeTerm(Row.Operator, std::move(Kids)));
    Stack.pop_back();
  }
  return RowTerms.at(Root);
}

void KBestExtractor::combineClass(EClassId Id, std::vector<CandRef> &Out) {
  Out.clear();
  const std::vector<ENode> &Nodes = G.eclass(Id).Nodes;
  // The class's current list: a class recombined again (a cycle member
  // re-enqueued by a changed child) mostly re-derives it.
  auto PrevIt = Table.find(Id);
  const std::vector<CandRef> *Prev =
      PrevIt == Table.end() ? nullptr : &PrevIt->second;

  // Resolved child candidate lists, flattened across nodes; a node with a
  // candidate-less child stays unusable this round (Arity == NotUsable).
  constexpr size_t NotUsable = static_cast<size_t>(-1);
  std::vector<const std::vector<CandRef> *> ChildLists;
  std::vector<std::pair<size_t, size_t>> Span(Nodes.size()); // offset, arity
  for (size_t N = 0; N < Nodes.size(); ++N) {
    const ENode &Node = Nodes[N];
    Span[N] = {ChildLists.size(), Node.Children.size()};
    for (EClassId Kid : Node.Children) {
      auto It = Table.find(G.find(Kid));
      if (It == Table.end() || It->second.empty()) {
        ChildLists.resize(Span[N].first);
        Span[N].second = NotUsable;
        break;
      }
      ChildLists.push_back(&It->second);
    }
  }
  auto kidRef = [&](size_t N, size_t I, uint32_t Choice) -> const CandRef & {
    return (*ChildLists[Span[N].first + I])[Choice];
  };

  // Index combinations live in one flat append-only pool; frontier items
  // reference spans of it, so the heap shuffles 24-byte rows instead of
  // one heap-allocated vector per item.
  std::vector<uint32_t> IxPool;
  struct Item {
    double Cost;
    uint32_t NodeIdx;
    uint32_t Bump;
    uint32_t IxBegin;
    uint32_t Arity;
  };
  auto Later = [&IxPool](const Item &A, const Item &B) {
    if (A.Cost != B.Cost)
      return A.Cost > B.Cost;
    if (A.NodeIdx != B.NodeIdx)
      return A.NodeIdx > B.NodeIdx;
    // Same node, same arity: the old engines' lexicographic Ix order.
    return std::lexicographical_compare(
        IxPool.begin() + B.IxBegin, IxPool.begin() + B.IxBegin + B.Arity,
        IxPool.begin() + A.IxBegin, IxPool.begin() + A.IxBegin + A.Arity);
  };

  std::vector<double> CostScratch;
  auto comboCost = [&](size_t N, uint32_t IxBegin, size_t Arity) {
    CostScratch.resize(Arity);
    for (size_t I = 0; I < Arity; ++I)
      CostScratch[I] = kidRef(N, I, IxPool[IxBegin + I]).Cost;
    return Fn.cost(Nodes[N].Operator, CostScratch);
  };

  std::priority_queue<Item, std::vector<Item>, decltype(Later)> Frontier(
      Later);
  for (size_t N = 0; N < Nodes.size(); ++N) {
    if (Span[N].second == NotUsable)
      continue;
    const uint32_t Begin = static_cast<uint32_t>(IxPool.size());
    IxPool.resize(IxPool.size() + Span[N].second, 0);
    Frontier.push({comboCost(N, Begin, Span[N].second),
                   static_cast<uint32_t>(N), 0, Begin,
                   static_cast<uint32_t>(Span[N].second)});
  }

  // A popped combination equals an accepted candidate iff the operator and
  // the child candidate rows match under value equality — no term is ever
  // materialized. The hash prefilter keeps the scan to (expected) zero
  // row comparisons.
  auto isDupOf = [&](const CandRow &U, const Op &O, size_t N,
                     uint32_t IxBegin, size_t Arity) {
    bool ONum = O.kind() == OpKind::Int || O.kind() == OpKind::Float;
    bool UNum = U.Operator.kind() == OpKind::Int ||
                U.Operator.kind() == OpKind::Float;
    if (ONum || UNum)
      return ONum && UNum && O.numericValue() == U.Operator.numericValue();
    if (O != U.Operator || U.KidsEnd - U.KidsBegin != Arity)
      return false;
    for (size_t I = 0; I < Arity; ++I)
      if (!rowValueEq(kidRef(N, I, IxPool[IxBegin + I]).Row,
                      RowKids[U.KidsBegin + I]))
        return false;
    return true;
  };
  // Operator + kid row ids is full structural identity of a row.
  auto sameRow = [&](uint32_t R, const Op &O,
                     const std::vector<uint32_t> &Kids, size_t ValueHash) {
    const CandRow &Row = Rows[R];
    return Row.ValueHash == ValueHash && Row.Operator == O &&
           std::equal(RowKids.begin() + Row.KidsBegin,
                      RowKids.begin() + Row.KidsEnd, Kids.begin(), Kids.end());
  };

  std::vector<size_t> KidHashes;
  std::vector<uint32_t> KidRows;
  while (!Frontier.empty() && Out.size() < K) {
    Item Top = Frontier.top();
    Frontier.pop();
    const ENode &Node = Nodes[Top.NodeIdx];
    const size_t Arity = Top.Arity;

    // O(arity): child rows carry their value hashes already.
    KidHashes.resize(Arity);
    for (size_t I = 0; I < Arity; ++I)
      KidHashes[I] =
          Rows[kidRef(Top.NodeIdx, I, IxPool[Top.IxBegin + I]).Row].ValueHash;
    size_t Hash = termValueHashNode(Node.Operator, KidHashes);
    bool Dup = false;
    for (const CandRef &U : Out)
      if (Rows[U.Row].ValueHash == Hash &&
          isDupOf(Rows[U.Row], Node.Operator, Top.NodeIdx, Top.IxBegin,
                  Arity)) {
        Dup = true;
        break;
      }
    if (!Dup) {
      KidRows.resize(Arity);
      for (size_t I = 0; I < Arity; ++I)
        KidRows[I] = kidRef(Top.NodeIdx, I, IxPool[Top.IxBegin + I]).Row;
      // Check the previous list's row at this position before probing
      // the row index: on a re-derived list it is usually this very row.
      const size_t Pos = Out.size();
      uint32_t Row =
          Prev && Pos < Prev->size() &&
                  sameRow((*Prev)[Pos].Row, Node.Operator, KidRows, Hash)
              ? (*Prev)[Pos].Row
              : internRow(Node.Operator, KidRows.data(), Arity, Hash);
      Out.push_back({Top.Cost, Row});
    }

    // Expand successors: bump one child index at a time, never before the
    // position this item bumped.
    for (size_t I = Top.Bump; I < Arity; ++I) {
      if (IxPool[Top.IxBegin + I] + 1 >=
          ChildLists[Span[Top.NodeIdx].first + I]->size())
        continue;
      const uint32_t Begin = static_cast<uint32_t>(IxPool.size());
      for (size_t J = 0; J < Arity; ++J)
        IxPool.push_back(IxPool[Top.IxBegin + J]);
      ++IxPool[Begin + I];
      Frontier.push({comboCost(Top.NodeIdx, Begin, Arity), Top.NodeIdx,
                     static_cast<uint32_t>(I), Begin,
                     static_cast<uint32_t>(Arity)});
    }
  }
}
