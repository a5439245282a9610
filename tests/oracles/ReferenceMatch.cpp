//===-- oracles/ReferenceMatch.cpp - E-matching oracle --------------------===//

#include "oracles/ReferenceMatch.h"

#include <cassert>
#include <functional>

using namespace shrinkray;

namespace {

/// Backtracking e-matcher in continuation-passing style so that sibling
/// subpatterns share one substitution. Superseded by MatchProgram on the
/// hot path; retained as the independent oracle the equivalence tests run
/// the VM against.
class Matcher {
public:
  Matcher(const EGraph &G, std::vector<Subst> &Out) : G(G), Out(Out) {}

  void match(const TermPtr &Pat, EClassId Class) {
    Subst S;
    rec(Pat, Class, S, [&] { Out.push_back(S); });
  }

private:
  const EGraph &G;
  std::vector<Subst> &Out;

  void rec(const TermPtr &Pat, EClassId Class, Subst &S,
           const std::function<void()> &K) {
    Class = G.find(Class);
    if (Pat->kind() == OpKind::PatVar) {
      Symbol Var = Pat->op().symbol();
      if (std::optional<EClassId> Bound = S.get(Var)) {
        if (G.find(*Bound) == Class)
          K();
        return;
      }
      S.bind(Var, Class);
      K();
      S.pop();
      return;
    }
    for (const ENode &Node : G.eclass(Class).Nodes) {
      if (Node.Operator != Pat->op() ||
          Node.Children.size() != Pat->numChildren())
        continue;
      recChildren(Pat, Node, 0, S, K);
    }
  }

  void recChildren(const TermPtr &Pat, const ENode &Node, size_t I, Subst &S,
                   const std::function<void()> &K) {
    if (I == Pat->numChildren()) {
      K();
      return;
    }
    rec(Pat->child(I), Node.Children[I], S,
        [&] { recChildren(Pat, Node, I + 1, S, K); });
  }
};

} // namespace

std::vector<Subst> shrinkray::matchClassReference(const EGraph &G,
                                                  const Pattern &P,
                                                  EClassId Root) {
  assert(!G.isDirty() && "match on a dirty e-graph; call rebuild() first");
  std::vector<Subst> Out;
  Matcher M(G, Out);
  M.match(P.term(), Root);
  return Out;
}
