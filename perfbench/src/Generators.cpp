//===-- perfbench/src/Generators.cpp - Seeded benchmark inputs ------------===//

#include "Generators.h"

#include "cad/Sexp.h"
#include "models/Models.h"

#include <cmath>
#include <cstdio>

using namespace shrinkray;
using namespace perfbench;

namespace {

/// A multiple of \p Step in [Lo, Hi]: designers use round numbers, and the
/// solvers' closed forms are what the paper reports on such inputs.
double pick(Rng &R, double Lo, double Hi, double Step) {
  uint64_t N = static_cast<uint64_t>(std::floor((Hi - Lo) / Step + 1e-9)) + 1;
  return Lo + Step * static_cast<double>(R.nextBelow(N));
}

TermPtr box(double X, double Y, double Z, double W, double D, double H) {
  TermPtr Sized = tScale(W, D, H, tUnit());
  if (X == 0.0 && Y == 0.0 && Z == 0.0)
    return Sized;
  return tTranslate(X, Y, Z, Sized);
}

TermPtr cyl(double X, double Y, double Z, double Rad, double H) {
  TermPtr Sized = tScale(Rad, Rad, H, tCylinder());
  if (X == 0.0 && Y == 0.0 && Z == 0.0)
    return Sized;
  return tTranslate(X, Y, Z, Sized);
}

Input sexpInput(std::string Family, TermPtr Flat) {
  return Input{std::move(Family), printSexp(Flat)};
}

//===----------------------------------------------------------------------===//
// Shape families (parameterized Table 1 shapes)
//===----------------------------------------------------------------------===//

/// 3362402:gear — body, rim and bore, plus a ring of rotated teeth.
TermPtr gear(Rng &R, int Teeth, double Shift) {
  double Hub = pick(R, 60, 90, 2.5), Rim = Hub + pick(R, 25, 45, 2.5);
  double Tall = pick(R, 80, 110, 5), Low = pick(R, 40, 60, 5);
  double Bore = pick(R, 15, 30, 2.5);
  TermPtr Body = tUnion(tScale(Hub, Hub, Tall, tCylinder()),
                        tScale(Rim, Rim, Low, tCylinder()));
  TermPtr Base = tDiff(
      Body, tTranslate(0, 0, -1, tScale(Bore, Bore, Tall + 2, tCylinder())));
  TermPtr Tooth =
      tScale(pick(R, 8, 14, 1), pick(R, 4, 8, 0.5), Low + Shift, tUnit());
  double Radius = Rim + pick(R, 2, 8, 1);
  std::vector<TermPtr> Ring;
  double Step = 360.0 / Teeth;
  for (int I = 1; I <= Teeth; ++I)
    Ring.push_back(tRotate(0, 0, Step * I, tTranslate(Radius, 0, 0, Tooth)));
  return tUnion(Base, tUnionAll(Ring));
}

/// The large-models gear and pill ring: one fixed design per loop count,
/// at a seeded power-of-two scale \p K. Their saturation cost is chaotic
/// in the dimensions (13 to 128 iterations between neighbouring designs)
/// but unchanged by a power-of-two scale, which floating point applies
/// without rounding; so every seed sees the same cost in other numbers.
TermPtr scaledGear(int Teeth, double K) {
  TermPtr Body = tUnion(tScale(75 * K, 75 * K, 95 * K, tCylinder()),
                        tScale(105 * K, 105 * K, 50 * K, tCylinder()));
  TermPtr Base = tDiff(Body, tTranslate(0, 0, -K, tScale(20 * K, 20 * K,
                                                         97 * K, tCylinder())));
  TermPtr Tooth = tScale(10 * K, 6 * K, 50 * K, tUnit());
  std::vector<TermPtr> Ring;
  double Step = 360.0 / Teeth;
  for (int I = 1; I <= Teeth; ++I)
    Ring.push_back(tRotate(0, 0, Step * I, tTranslate(110 * K, 0, 0, Tooth)));
  return tUnion(Base, tUnionAll(Ring));
}

TermPtr scaledRing(int N, double K) {
  TermPtr Tube = tDiff(cyl(0, 0, 0, 30 * K, 60 * K),
                       cyl(0, 0, -K, 26 * K, 62 * K));
  TermPtr Slot = tScale(6 * K, 10 * K, 50 * K, tUnit());
  std::vector<TermPtr> Ring;
  for (int I = 0; I < N; ++I)
    Ring.push_back(tRotate(0, 0, 360.0 * I / N,
                           tTranslate(24 * K, -5 * K, 5 * K, Slot)));
  return tDiff(Tube, tUnionAll(Ring));
}

/// 3244600:cnc-end-mill — a block with an NX x NY grid of sockets and an
/// engraved label groove.
TermPtr socketGrid(Rng &R, int NX, int NY, double Shift) {
  double Pitch = pick(R, 11, 16, 0.5), Rad = pick(R, 2.5, 4.5, 0.5);
  double Margin = Rad + pick(R, 2, 5, 0.5), Depth = pick(R, 12, 20, 1);
  double Wide = 2 * Margin + Pitch * (NX - 1), Long = 2 * Margin + Pitch * NY;
  double Tall = Depth + pick(R, 4, 8, 1);
  TermPtr Base = box(0, 0, 0, Wide, Long, Tall);
  std::vector<TermPtr> Sockets;
  for (int I = 0; I < NX; ++I)
    for (int J = 0; J < NY; ++J)
      Sockets.push_back(cyl(Margin + Pitch * I, Margin + Pitch * J + Shift,
                            Tall - Depth, Rad, Depth + 1));
  TermPtr Label = box(Margin, Long - Margin + 1, Tall - 3, Wide - 2 * Margin,
                      pick(R, 2, 4, 0.5), 4);
  return tDiff(Base, tUnion(tUnionAll(Sockets), Label));
}

/// 3072857:tape-store and 3171605:card-org — a block with N slots.
TermPtr slotRow(Rng &R, int N, double Shift) {
  double Pitch = pick(R, 8, 16, 0.5), Gap = pick(R, 2, 4, 0.5);
  double Wall = pick(R, 3, 6, 0.5), Deep = pick(R, 30, 50, 1);
  double Floor = pick(R, 3, 8, 1), Tall = pick(R, 25, 40, 1);
  TermPtr Base =
      box(0, 0, 0, 2 * Wall + Pitch * N - Gap, Deep + 2 * Wall, Tall);
  std::vector<TermPtr> Slots;
  for (int I = 0; I < N; ++I)
    Slots.push_back(box(Wall + Pitch * I + Shift, Wall, Floor, Pitch - Gap,
                        Deep, Tall));
  return tDiff(Base, tUnionAll(Slots));
}

/// 3331008:med-slide — a tube with a ring of N rotated slots.
TermPtr rotatedRing(Rng &R, int N, double Shift) {
  double Outer = pick(R, 25, 40, 1), Wall = pick(R, 3, 6, 0.5);
  double Tall = pick(R, 50, 80, 5);
  TermPtr Tube = tDiff(cyl(0, 0, 0, Outer, Tall),
                       cyl(0, 0, -1, Outer - Wall, Tall + 2));
  TermPtr Slot =
      tScale(pick(R, 4, 8, 0.5), pick(R, 8, 14, 1), Tall - 10 + Shift, tUnit());
  double Radius = Outer - Wall - pick(R, 1, 3, 0.5);
  std::vector<TermPtr> Ring;
  for (int I = 0; I < N; ++I)
    Ring.push_back(tRotate(0, 0, 360.0 * I / N,
                           tTranslate(Radius, -5, 5, Slot)));
  return tDiff(Tube, tUnionAll(Ring));
}

/// 3097951:rasp-pie — a cover with a 2 x N grid of pin sockets.
TermPtr pinCover(Rng &R, int N, double Shift) {
  double Pitch = pick(R, 4, 6, 0.5), Pin = pick(R, 2, 3, 0.5);
  double Tall = pick(R, 6, 10, 1);
  TermPtr Base = box(0, 0, 0, Pitch * N + 4, 2 * Pitch + 4, Tall);
  std::vector<TermPtr> Pins;
  for (int I = 0; I < 2; ++I)
    for (int J = 0; J < N; ++J)
      Pins.push_back(box(3 + Pitch * J + Shift, 2 + Pitch * I, 2, Pin, Pin,
                         Tall));
  return tDiff(Base, tUnionAll(Pins));
}

/// 3148599:box-tray — a tray with NX x NY compartments.
TermPtr tray(Rng &R, int NX, int NY, double Shift) {
  double PX = pick(R, 20, 30, 1), PY = pick(R, 20, 30, 1);
  double Wall = pick(R, 2, 5, 1), Floor = pick(R, 2, 4, 1);
  double Tall = pick(R, 15, 25, 1);
  TermPtr Base = box(0, 0, 0, PX * NY + Wall, PY * NX + Wall, Tall);
  std::vector<TermPtr> Pockets;
  for (int I = 0; I < NX; ++I)
    for (int J = 0; J < NY; ++J)
      Pockets.push_back(box(Wall + PX * J + Shift, Wall + PY * I, Floor,
                            PX - Wall, PY - Wall, Tall));
  return tDiff(Base, tUnionAll(Pockets));
}

/// 2921167:hc-bits — a plate with a 2 x 2 pattern of hexagonal sockets.
TermPtr hexCells(Rng &R, double Shift) {
  double Pitch = pick(R, 8, 12, 1), Cell = pick(R, 3, 4.5, 0.5);
  double Plate = 2 * Pitch, Thick = pick(R, 2, 4, 1);
  std::vector<TermPtr> Cells;
  for (int I = 0; I < 2; ++I)
    for (int J = 0; J < 2; ++J)
      Cells.push_back(tTranslate(Pitch / 2 + Pitch * I + Shift,
                                 Pitch / 2 + Pitch * J, -0.5,
                                 tScale(Cell, Cell, Thick + 1, tHexagon())));
  return tDiff(tScale(Plate, Plate, Thick, tUnit()), tUnionAll(Cells));
}

/// 3094201:dice — a cube with a 2 x 3 and a 2 x 2 pip grid and one pip.
TermPtr dice(Rng &R, double Shift) {
  double Half = pick(R, 8, 12, 1), Pip = pick(R, 1.5, 2.5, 0.5);
  double Step = pick(R, 4, 6, 0.5);
  TermPtr Ball = tScale(Pip, Pip, Pip, tSphere());
  std::vector<TermPtr> Pips;
  for (int I = 0; I < 2; ++I)
    for (int J = 0; J < 3; ++J)
      Pips.push_back(tTranslate(-Half, Step - 2 * Step * I + Shift,
                                Step - Step * J, Ball));
  for (int I = 0; I < 2; ++I)
    for (int J = 0; J < 2; ++J)
      Pips.push_back(tTranslate(Half, Step - 2 * Step * I,
                                Step - 2 * Step * J, Ball));
  Pips.push_back(tTranslate(0, 0, Half, Ball));
  return tDiff(box(-Half, -Half, -Half, 2 * Half, 2 * Half, 2 * Half),
               tUnionAll(Pips));
}

/// 3044766:sander and 1725308:soldering — an opaque External part plus N
/// repeated teeth or clips.
TermPtr externalPlusRow(Rng &R, const char *Part, int N, bool Cylinders,
                        double Shift) {
  double Pitch = pick(R, 10, 16, 1), Size = pick(R, 3, 6, 0.5);
  double Tall = pick(R, 8, 14, 1);
  std::vector<TermPtr> Row;
  for (int I = 0; I < N; ++I)
    Row.push_back(Cylinders
                      ? cyl(Size + Pitch * I + Shift, 0, 0, Size, Tall)
                      : box(Size + Pitch * I + Shift, 0, 0, Size, 8, Tall));
  return tUnion(tExternal(Part), tUnionAll(Row));
}

/// 3452260:relay-box — a shell with two mounting holes.
TermPtr relayBox(Rng &R, double Shift) {
  double W = pick(R, 30, 50, 2), D = pick(R, 24, 36, 2), H = pick(R, 15, 25, 1);
  double Wall = pick(R, 1.5, 3, 0.5), Hole = pick(R, 1.5, 2.5, 0.5);
  TermPtr Shell = tDiff(box(0, 0, 0, W, D, H),
                        box(Wall, Wall, Wall, W - 2 * Wall, D - 2 * Wall, H));
  std::vector<TermPtr> Holes;
  for (int I = 0; I < 2; ++I)
    Holes.push_back(cyl(W / 5 + (3 * W / 5) * I + Shift, D / 2, -1, Hole,
                        Wall + 3));
  return tDiff(Shell, tUnionAll(Holes));
}

/// 64847:sd-rack — 20 parts with no repetition at all.
TermPtr irregularRack(Rng &R, double Shift) {
  std::vector<TermPtr> Parts;
  double X = Shift;
  for (int I = 0; I < 20; ++I) {
    double W = pick(R, 3, 13, 0.5), D = pick(R, 4, 16, 0.5);
    double H = pick(R, 6, 12, 0.5);
    X += pick(R, 5, 14, 0.5);
    double Y = pick(R, 0, 30, 0.5);
    Parts.push_back(I % 3 == 0 ? cyl(X, Y, 0, W / 2, H)
                               : box(X, Y, 0, W, D, H));
  }
  return tUnionAll(Parts);
}

/// 3333935:compose — a one-off composition.
TermPtr composition(Rng &R, double Shift) {
  double Side = pick(R, 24, 36, 2), Thick = pick(R, 4, 8, 1);
  double Hole = pick(R, 6, 10, 1);
  return tUnion(
      tDiff(box(0, 0, 0, Side, Side, Thick),
            cyl(Side / 2, Side / 2, -1, Hole, Thick + 2)),
      tUnion(tTranslate(Side / 2, Side / 2, Thick,
                        tScale(Hole - 1, Hole - 1, Hole - 1, tSphere())),
             tUnion(tRotate(0, 0, pick(R, 20, 40, 5),
                            box(-20 + Shift, 0, 0, 14, 5, 3)),
                    tUnion(cyl(Side + 5, 5, 0, 3, pick(R, 10, 16, 1)),
                           tRotate(0, pick(R, 30, 60, 15), 0,
                                   box(5, -12, 2, 10, 6, 4))))));
}

/// 510849:wardrobe — shelves and rails at quadratically spaced heights.
TermPtr wardrobe(Rng &R, double Shift) {
  double W = pick(R, 80, 120, 5), D = pick(R, 40, 60, 5);
  double H = pick(R, 110, 140, 5);
  double Wall = pick(R, 3, 5, 1);
  TermPtr Frame = tDiff(box(0, 0, 0, W, D, H),
                        box(Wall, Wall, Wall, W - 2 * Wall, D - 2 * Wall,
                            H - 2 * Wall));
  double A = pick(R, 2, 4, 0.5), B = pick(R, 10, 14, 0.5);
  std::vector<TermPtr> Shelves, Rails;
  for (int I = 0; I < 3; ++I)
    Shelves.push_back(box(Wall + Shift, Wall, A * I * I + B * I + 10,
                          W - 2 * Wall, D - 2 * Wall, 3));
  for (int I = 0; I < 3; ++I)
    Rails.push_back(tTranslate(Wall, D / 2, 2 * A * I * I + B * I + 60,
                               tRotate(0, 90, 0,
                                       tScale(1.5, 1.5, W - 2 * Wall,
                                              tCylinder()))));
  return tUnion(Frame, tUnion(tUnionAll(Shelves), tUnionAll(Rails)));
}

/// 3432939:nintendo-slot — a shell with three rotated dividers, in the
/// corpus model's proportions. The dividers never change: their saturation
/// cost swings by 50x under sub-unit moves (one in a hundred seeded
/// variants hits the 200k e-node limit). \p Shift grows the shell's three
/// sizes instead, which leaves that cost alone and changes six numbers, so
/// the service's warm-edit path (at most four) never applies.
TermPtr fixedDividers(double Shift) {
  TermPtr Shell =
      tDiff(box(0, 0, 0, 40 + Shift, 64 + Shift, 40 + Shift),
            box(3, 3, 3, 34 + Shift, 58 + Shift, 40 + Shift));
  std::vector<TermPtr> Dividers;
  for (int I = 0; I < 3; ++I)
    Dividers.push_back(
        tTranslate(10.0 + 9.0 * I, 4.0, 3.0,
                   tRotate(0, 0, 12, tScale(2, 56, 34, tUnit()))));
  return tUnion(Shell, tUnionAll(Dividers));
}

/// A four-slot pill ring with decompiler noise of 1e-4 on every float,
/// rotation angles included, drawn from \p NoiseSeed: about 60x the time
/// of its noise-free twin.
TermPtr fixedNoisyRing(uint64_t NoiseSeed) {
  TermPtr Tube = tDiff(cyl(0, 0, 0, 30, 60), cyl(0, 0, -1, 26, 62));
  std::vector<TermPtr> Ring;
  for (int I = 0; I < 4; ++I)
    Ring.push_back(tRotate(0, 0, 90.0 * I,
                           tTranslate(24, -5, 5, tScale(6, 10, 50, tUnit()))));
  return models::injectNoise(tDiff(Tube, tUnionAll(Ring)), 1e-4, NoiseSeed);
}

} // namespace

TermPtr perfbench::positionalNoise(const TermPtr &Flat, double Magnitude,
                                   Rng &R) {
  std::vector<TermPtr> Kids;
  Kids.reserve(Flat->numChildren());
  for (size_t I = 0; I < Flat->numChildren(); ++I) {
    const TermPtr &Kid = Flat->child(I);
    if (Flat->kind() == OpKind::Translate && I == 0) {
      std::vector<TermPtr> Coords;
      for (const TermPtr &C : Kid->children())
        Coords.push_back(C->kind() == OpKind::Float
                             ? tFloat(C->op().floatValue() +
                                      R.nextDouble(-Magnitude, Magnitude))
                             : C);
      Kids.push_back(makeTerm(Kid->op(), std::move(Coords)));
    } else {
      Kids.push_back(positionalNoise(Kid, Magnitude, R));
    }
  }
  if (Kids.empty())
    return Flat;
  return makeTerm(Flat->op(), std::move(Kids));
}

std::vector<Input> perfbench::largeModelsRound(Rng &R) {
  // Loop counts are fixed per slot; the seed draws the rest: dimensions
  // of the grids and slot rows, the scale of the gears and rings, and the
  // noise. Two kinds of noise, both inside the solver's epsilon band
  // (1e-3): roundoff on positions, as a mesh decompiler leaves it, and
  // roundoff on every float (models::injectNoise), which is far costlier
  // on rotated shapes.
  std::vector<Input> Round;
  auto Add = [&](const char *Family, TermPtr Flat) {
    Round.push_back(sexpInput(Family, std::move(Flat)));
  };
  auto Pos = [&](TermPtr Flat) {
    return positionalNoise(Flat, pick(R, 1e-5, 4e-4, 1e-5), R);
  };
  auto Scale = [&] { // 1/2, 1, 2 or 4
    return std::ldexp(1.0, static_cast<int>(R.nextBelow(4)) - 1);
  };
  for (int Teeth : {20, 24, 28})
    Add("gear", scaledGear(Teeth, Scale()));
  Add("grid", socketGrid(R, 5, 5, 0));
  Add("grid", socketGrid(R, 4, 6, 0));
  Add("ring", scaledRing(12, Scale()));
  Add("ring", scaledRing(16, Scale()));
  Add("slots", slotRow(R, 16, 0));
  Add("gear~noise", Pos(scaledGear(24, Scale())));
  Add("grid~noise", Pos(socketGrid(R, 5, 5, 0)));
  Add("ring~noise", Pos(scaledRing(12, Scale())));
  Add("slots~noise", Pos(slotRow(R, 16, 0)));
  // Three fixed inputs, the same on every seed and round. Their saturation
  // cost swings by 50x with small changes of their dimensions, so seeding
  // them would make a run's time a draw of a few heavy-tailed samples.
  Add("dividers", fixedDividers(0));
  Add("ring~fullnoise", fixedNoisyRing(1));
  Add("ring~fullnoise", fixedNoisyRing(2));
  // Shuffle, so that no family always runs after the same one.
  for (size_t I = Round.size(); I > 1; --I)
    std::swap(Round[I - 1], Round[R.nextBelow(I)]);
  return Round;
}

std::vector<Input> perfbench::batchCorpusRound(Rng &R, uint64_t Serial) {
  // Shift keeps every input of a run distinct: it moves one coordinate of
  // each model by a serial-dependent multiple of 1/64, which changes no
  // loop structure.
  double Shift = static_cast<double>(Serial % 4096) / 64.0;
  std::vector<Input> Round;
  auto Add = [&](const char *Family, TermPtr Flat) {
    Round.push_back(sexpInput(Family, std::move(Flat)));
  };
  Add("socket-grid", socketGrid(R, 3, 4, Shift));
  Add("dividers", fixedDividers(Shift));
  Add("card-org", slotRow(R, 8, Shift));
  Add("sander", externalPlusRow(R, "hull_grip", 6, false, Shift));
  Add("pin-cover", pinCover(R, 10, Shift));
  Add("tray", tray(R, 3, 5, Shift));
  Add("pill-ring", rotatedRing(R, 7, Shift));
  Add("hex-cells", hexCells(R, Shift));
  Add("dice", dice(R, Shift));
  Add("tape-store", slotRow(R, 10, Shift));
  Add("soldering", externalPlusRow(R, "mirrored_arm", 5, true, Shift));
  Add("gear", gear(R, 10, Shift));
  Add("relay-box", relayBox(R, Shift));
  Add("irregular-rack", irregularRack(R, Shift));
  Add("composition", composition(R, Shift));
  Add("wardrobe", wardrobe(R, Shift));
  for (size_t I = Round.size(); I > 1; --I)
    std::swap(Round[I - 1], Round[R.nextBelow(I)]);
  return Round;
}

//===----------------------------------------------------------------------===//
// edit-session designs
//===----------------------------------------------------------------------===//

std::string ScadDesign::family() const {
  switch (K) {
  case Kind::Gear:
    return "gear";
  case Kind::Grid:
    return "grid";
  case Kind::Rack:
    return "rack";
  }
  return "?";
}

std::string ScadDesign::scad() const {
  char Buf[1024];
  switch (K) {
  case Kind::Gear:
    std::snprintf(Buf, sizeof(Buf),
                  "// gear: hub, rim and bore, then %d teeth\n"
                  "difference() {\n"
                  "  union() {\n"
                  "    cylinder(h = %.17g, r = %.17g);\n"
                  "    cylinder(h = %.17g, r = %.17g);\n"
                  "  }\n"
                  "  translate([0, 0, %.17g])\n"
                  "    cylinder(h = %.17g, r = %.17g);\n"
                  "}\n"
                  "for (i = [1 : %d])\n"
                  "  rotate([0, 0, i * %.17g])\n"
                  "    translate([%.17g, 0, 0]) cube([%.17g, %.17g, %.17g]);\n",
                  Count, Body[0], Body[1], Body[2], Body[1] + 25 * Scale,
                  -Scale, Body[0] + 2 * Scale, 20 * Scale, Count, Pitch,
                  Offset, Part[0], Part[1], Part[2]);
    break;
  case Kind::Grid:
    std::snprintf(Buf, sizeof(Buf),
                  "// socket block: %d x 4 sockets\n"
                  "difference() {\n"
                  "  cube([%.17g, %.17g, %.17g]);\n"
                  "  for (i = [0 : %d])\n"
                  "    for (j = [0 : 3])\n"
                  "      translate([%.17g + i * %.17g, %.17g + j * %.17g, %.17g])\n"
                  "        cylinder(h = %.17g, r = %.17g);\n"
                  "}\n",
                  Count, Body[0], Body[1], Body[2], Count - 1, Offset, Pitch,
                  Offset, Pitch, Body[2] - Part[0], Part[0] + Scale, Part[1]);
    break;
  case Kind::Rack:
    std::snprintf(Buf, sizeof(Buf),
                  "// rack: a block with %d slots\n"
                  "difference() {\n"
                  "  cube([%.17g, %.17g, %.17g]);\n"
                  "  for (i = [0 : %d])\n"
                  "    translate([%.17g + i * %.17g, %.17g, %.17g])\n"
                  "      cube([%.17g, %.17g, %.17g]);\n"
                  "}\n",
                  Count, Body[0], Body[1], Body[2], Count - 1, Offset, Pitch,
                  Part[2], Part[2], Part[0], Part[1], Body[2]);
    break;
  }
  return Buf;
}

std::vector<ScadDesign> perfbench::sessionDesigns(Rng &R) {
  // Fixed designs from the middle of the Table 1 shapes' ranges. A gear's
  // saturation cost is chaotic in its dimensions, and the designs set
  // most of a session's cost; a power-of-two scale leaves every cost as
  // it is, because floating point applies it without rounding.
  static const double Scales[] = {0.5, 1.0, 2.0, 4.0};
  double S = Scales[R.nextBelow(4)];
  std::vector<ScadDesign> Designs(3);
  ScadDesign &G = Designs[0];
  G.K = ScadDesign::Kind::Gear;
  G.Count = 20;
  G.Pitch = 360.0 / G.Count;
  G.Body[0] = 95 * S; // hub height
  G.Body[1] = 75 * S; // hub radius
  G.Body[2] = 50 * S; // rim height (rim radius = hub + 25, bore 20)
  G.Offset = 105 * S;
  G.Part[0] = 11 * S;
  G.Part[1] = 6 * S;
  G.Part[2] = 53 * S;

  ScadDesign &D = Designs[1];
  D.K = ScadDesign::Kind::Grid;
  D.Count = 4;
  D.Pitch = 13.5 * S;
  D.Part[1] = 3.5 * S; // socket radius
  D.Part[0] = 15 * S;  // socket depth
  D.Offset = 7 * S;
  D.Body[0] = 2 * D.Offset + D.Pitch * (D.Count - 1);
  D.Body[1] = 2 * D.Offset + D.Pitch * 3;
  D.Body[2] = 21 * S;

  ScadDesign &K = Designs[2];
  K.K = ScadDesign::Kind::Rack;
  K.Count = 10;
  K.Pitch = 13 * S;
  K.Part[2] = 4.5 * S; // wall
  K.Part[0] = 10 * S;
  K.Part[1] = 40 * S;
  K.Offset = K.Part[2];
  K.Body[0] = 2 * K.Part[2] + K.Pitch * K.Count;
  K.Body[1] = K.Part[1] + 2 * K.Part[2];
  K.Body[2] = 32 * S;
  for (ScadDesign &Each : Designs)
    Each.Scale = S;
  return Designs;
}
