//===-- synth/Determinize.h - List determinization --------------*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The determinizer (paper Sec. 4.2): fold lists in the e-graph are
/// non-deterministic — the affine reordering rewrites give each element many
/// equivalent representations. The function solvers need one concrete list
/// of vectors, so the determinizer picks, for the whole list, a single
/// consistent affine decomposition: the same sequence of transform kinds and
/// the same base solid for every element.
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_SYNTH_DETERMINIZE_H
#define SHRINKRAY_SYNTH_DETERMINIZE_H

#include "egraph/EGraph.h"
#include "linalg/Vec3.h"

#include <optional>
#include <vector>

namespace shrinkray {

/// One affine layer of a decomposed list element.
struct AffineLayer {
  OpKind Kind = OpKind::Translate; ///< Translate, Scale, or Rotate
  Vec3 V;                          ///< the literal transform vector
};

/// One list element decomposed into affine layers over a base class.
struct AffineChain {
  std::vector<AffineLayer> Layers; ///< outermost first
  EClassId Base = 0;               ///< class of the transformed solid
};

/// A consistent decomposition of a whole fold list: every element has the
/// same layer-kind sequence and the same base class.
struct ChainDecomposition {
  std::vector<OpKind> LayerKinds;  ///< outermost first
  EClassId Base = 0;               ///< shared base class
  /// Vectors[L][I]: the layer-L vector of element I.
  std::vector<std::vector<Vec3>> Vectors;
  /// The element classes, in list order (needed for re-sorting).
  std::vector<EClassId> Elements;
  /// Number of distinct element classes (canonical ids). Duplicate-heavy
  /// lists have UniqueElements << numElements(); the determinizer
  /// enumerates chains once per distinct class, so this is also the
  /// enumeration count behind the decomposition (the determinizer's
  /// dedup awareness).
  size_t UniqueElements = 0;

  size_t numElements() const { return Elements.size(); }
  size_t numLayers() const { return LayerKinds.size(); }
};

/// Walks a Cons spine starting at \p ListClass, returning the element
/// classes, or nullopt if the class does not contain a pure spine (e.g. an
/// unexpanded Concat). Spines are followed through canonical ids; the walk
/// is cycle-guarded.
std::optional<std::vector<EClassId>> spineElements(const EGraph &G,
                                                   EClassId ListClass);

/// Enumerates affine decompositions of one element class, deepest first,
/// up to \p MaxDepth layers and \p MaxChains candidates.
std::vector<AffineChain> enumerateChains(const EGraph &G, EClassId Element,
                                         size_t MaxDepth = 3,
                                         size_t MaxChains = 24);

/// The determinizer: finds consistent decompositions of the list rooted at
/// \p ListClass. Returns up to \p MaxResults decompositions, preferring
/// deeper ones (more exposable structure). Returns an empty vector when the
/// elements share no common decomposition.
std::vector<ChainDecomposition> determinize(const EGraph &G,
                                            EClassId ListClass,
                                            size_t MaxResults = 3);

} // namespace shrinkray

#endif // SHRINKRAY_SYNTH_DETERMINIZE_H
