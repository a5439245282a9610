//===-- solvers/Preprocess.cpp - Input and sequence preprocessing ---------===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Union-operand deduplication over flat CSG terms and the O(n) sequence
/// profile behind the family pruning tests.
///
//===----------------------------------------------------------------------===//

#include "solvers/Preprocess.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>

using namespace shrinkray;

SequenceProfile shrinkray::sequenceProfile(const std::vector<double> &Ys) {
  SequenceProfile P;
  P.N = Ys.size();
  if (P.N == 0)
    return P;
  P.Min = P.Max = Ys[0];
  for (double Y : Ys) {
    P.Min = std::min(P.Min, Y);
    P.Max = std::max(P.Max, Y);
    P.MaxAbs = std::max(P.MaxAbs, std::fabs(Y));
  }
  for (size_t I = 0; I + 2 < P.N; ++I)
    P.MaxAbsD2 =
        std::max(P.MaxAbsD2, std::fabs(Ys[I + 2] - 2.0 * Ys[I + 1] + Ys[I]));
  for (size_t I = 0; I + 3 < P.N; ++I)
    P.MaxAbsD3 = std::max(
        P.MaxAbsD3,
        std::fabs(Ys[I + 3] - 3.0 * Ys[I + 2] + 3.0 * Ys[I + 1] - Ys[I]));
  return P;
}

namespace {

/// A per-spine set of already-seen operands. Terms are interned, so
/// structural equality is pointer identity; holding TermPtr keys keeps the
/// operands alive (no address reuse while the set is in scope).
class SeenOperands {
public:
  /// Returns true when an equal term was already recorded; records it
  /// otherwise.
  bool seenOrRecord(const TermPtr &T) { return !Seen.insert(T).second; }

private:
  std::unordered_set<TermPtr> Seen;
};

TermPtr canonTerm(const TermPtr &T);

/// Walks one Union spine, dropping operands already in \p Seen. Returns
/// nullptr when every operand of this subtree was a duplicate, and the
/// original pointer when nothing changed underneath.
TermPtr dedupeSpine(const TermPtr &T, SeenOperands &Seen) {
  if (T->kind() == OpKind::Union) {
    TermPtr L = dedupeSpine(T->child(0), Seen);
    TermPtr R = dedupeSpine(T->child(1), Seen);
    if (!L)
      return R;
    if (!R)
      return L;
    if (L == T->child(0) && R == T->child(1))
      return T;
    return makeTerm(T->op(), {std::move(L), std::move(R)});
  }
  // A spine operand: canonicalize any deeper Union trees first so equal
  // operands compare equal even when their internals dedupe differently.
  TermPtr C = canonTerm(T);
  if (Seen.seenOrRecord(C))
    return nullptr;
  return C;
}

/// Recursively canonicalizes \p T: every maximal Union tree gets its own
/// operand multiset. Returns the original pointer when nothing changed.
TermPtr canonTerm(const TermPtr &T) {
  if (T->kind() == OpKind::Union) {
    SeenOperands Seen;
    TermPtr Out = dedupeSpine(T, Seen);
    // The first operand is always kept, so a spine never vanishes.
    assert(Out && "union spine deduped to nothing");
    return Out;
  }
  std::vector<TermPtr> Kids;
  bool Changed = false;
  Kids.reserve(T->numChildren());
  for (const TermPtr &Kid : T->children()) {
    Kids.push_back(canonTerm(Kid));
    Changed |= Kids.back() != Kid;
  }
  if (!Changed)
    return T;
  return makeTerm(T->op(), std::move(Kids));
}

} // namespace

TermPtr shrinkray::dedupeUnionOperands(const TermPtr &FlatCsg) {
  return canonTerm(FlatCsg);
}
