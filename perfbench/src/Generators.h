//===-- perfbench/src/Generators.h - Seeded benchmark inputs ----*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded generators for the benchmark's inputs. Every family is a
/// parameterized version of a Table 1 shape. A round of a workload always
/// holds the same families with the same loop counts, because counts set
/// most of a model's cost; the seed draws the rest (sizes, pitches, noise,
/// order). Where a shape's cost is chaotic in its dimensions (rotated
/// teeth, slots and dividers) the seed draws only what leaves the cost
/// alone: a power-of-two scale, or nothing. So two seeds give different
/// inputs of nearly the same cost.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GENERATORS_H
#define PERFBENCH_GENERATORS_H

#include "cad/Term.h"
#include "support/Rng.h"

#include <string>
#include <vector>

namespace perfbench {

using shrinkray::Rng;
using shrinkray::TermPtr;

/// One generated request input. Only the text is kept: the program must
/// parse it itself, so no term of it is interned before the request.
struct Input {
  std::string Family; ///< shape family, e.g. "gear" or "grid~noise"
  std::string Source; ///< s-expression text the program receives
};

/// One round of `large-models`: the slowest Table 1 shapes at sub-second
/// sizes, plus mesh-decompiler noise variants, as s-expression sources.
std::vector<Input> largeModelsRound(Rng &R);

/// One round of `batch-corpus`: one model of each of the 16 Table 1
/// shapes at small and mid sizes, as s-expression sources. \p Serial is
/// folded into one coordinate of every model so that no two rounds of a
/// run produce the same input.
std::vector<Input> batchCorpusRound(Rng &R, uint64_t Serial);

/// A design in the `edit-session` workload: an OpenSCAD model whose body
/// dimensions, loop pitch and loop count the session edits.
struct ScadDesign {
  enum class Kind { Gear, Grid, Rack };
  Kind K = Kind::Gear;
  int Count = 0;          ///< teeth, grid columns, or rack slots
  double Pitch = 0.0;     ///< loop spacing (degrees for a gear)
  double Body[3] = {};    ///< the three body dimensions an edit may touch
  double Part[3] = {};    ///< the repeated part's dimensions
  double Offset = 0.0;    ///< radius or first-slot offset
  double Scale = 1.0;     ///< the power of two every length is scaled by

  std::string family() const;
  std::string scad() const;
};

/// The session's designs: fixed designs at a power-of-two scale drawn from
/// \p R, so that every seed's session costs the same.
std::vector<ScadDesign> sessionDesigns(Rng &R);

/// Adds positional noise of at most \p Magnitude to every Translate
/// coordinate, as a mesh decompiler's roundoff does.
TermPtr positionalNoise(const TermPtr &Flat, double Magnitude, Rng &R);

} // namespace perfbench

#endif // PERFBENCH_GENERATORS_H
