//===-- tests/golden_test.cpp - Table 1 outputs against a committed file --===//
//
// Synthesizes the 16 Table 1 models under both cost functions and checks
// every observable output against tests/golden/table1.tsv: each ranked
// program, its cost as raw IEEE bits, the structure rank and the final
// e-node count. Programs compare with termApproxEquals at 1e-9, so a
// one-ulp libm difference in a folded constant cannot flap the test on
// another machine; everything else compares exactly. A change that is
// meant to leave outputs alone (a refactor, a deletion, a speedup) runs
// this unchanged. A change that is meant to alter them regenerates the
// file by hand and commits the diff:
//
//   SHRINKRAY_REGEN_GOLDEN=1 ./build/tests/golden_test
//
// File format, one record per line, tab-separated: a `run` line (model,
// cost, e-nodes, rank) followed by one `prog` line per ranked program
// (cost bits in hex, canonical s-expression).
//
//===----------------------------------------------------------------------===//

#include "synth/Synthesizer.h"

#include "cad/Sexp.h"
#include "models/Models.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace shrinkray;

namespace {

const char *const GoldenPath = SHRINKRAY_GOLDEN_DIR "/table1.tsv";

struct GoldenRun {
  std::string Model;
  std::string Cost;
  size_t ENodes = 0;
  size_t Rank = 0;
  /// (cost bits, canonical s-expression) per ranked program.
  std::vector<std::pair<uint64_t, std::string>> Programs;
};

uint64_t costBits(double Cost) {
  uint64_t Bits = 0;
  static_assert(sizeof(Bits) == sizeof(Cost), "cost must be a double");
  std::memcpy(&Bits, &Cost, sizeof(Bits));
  return Bits;
}

std::vector<GoldenRun> synthesizeCorpus() {
  std::vector<GoldenRun> Out;
  for (const models::BenchmarkModel &M : models::allModels())
    for (CostKind Cost : {CostKind::AstSize, CostKind::RewardLoops}) {
      SynthesisOptions Opts;
      Opts.Cost = Cost;
      SynthesisResult R = Synthesizer(Opts).synthesize(M.FlatCsg);
      GoldenRun G;
      G.Model = M.Name;
      G.Cost = Cost == CostKind::AstSize ? "AstSize" : "RewardLoops";
      G.ENodes = R.Stats.ENodes;
      G.Rank = R.structureRank();
      for (const RankedTerm &P : R.Programs)
        G.Programs.emplace_back(costBits(P.Cost), printSexp(P.T));
      Out.push_back(std::move(G));
    }
  return Out;
}

std::vector<std::string> splitTabs(const std::string &Line) {
  std::vector<std::string> Fields;
  std::istringstream Is(Line);
  std::string F;
  while (std::getline(Is, F, '\t'))
    Fields.push_back(F);
  return Fields;
}

void writeGolden(const std::vector<GoldenRun> &Runs) {
  std::ofstream Os(GoldenPath);
  ASSERT_TRUE(Os) << "cannot write " << GoldenPath;
  for (const GoldenRun &G : Runs) {
    Os << "run\t" << G.Model << '\t' << G.Cost << '\t' << G.ENodes << '\t'
       << G.Rank << '\n';
    for (const auto &[Bits, Sexp] : G.Programs) {
      char Hex[17];
      std::snprintf(Hex, sizeof(Hex), "%016llx",
                    static_cast<unsigned long long>(Bits));
      Os << "prog\t" << Hex << '\t' << Sexp << '\n';
    }
  }
}

std::vector<GoldenRun> readGolden() {
  std::vector<GoldenRun> Runs;
  std::ifstream Is(GoldenPath);
  EXPECT_TRUE(Is) << "cannot read " << GoldenPath;
  std::string Line;
  while (std::getline(Is, Line)) {
    std::vector<std::string> F = splitTabs(Line);
    if (F.size() == 5 && F[0] == "run") {
      GoldenRun G;
      G.Model = F[1];
      G.Cost = F[2];
      G.ENodes = std::stoull(F[3]);
      G.Rank = std::stoull(F[4]);
      Runs.push_back(std::move(G));
    } else if (F.size() == 3 && F[0] == "prog" && !Runs.empty()) {
      Runs.back().Programs.emplace_back(std::stoull(F[1], nullptr, 16), F[2]);
    } else {
      ADD_FAILURE() << "malformed golden line: " << Line;
    }
  }
  return Runs;
}

} // namespace

TEST(GoldenCorpus, Table1OutputsMatchCommittedFile) {
  std::vector<GoldenRun> Actual = synthesizeCorpus();
  if (const char *Regen = std::getenv("SHRINKRAY_REGEN_GOLDEN");
      Regen && *Regen) {
    writeGolden(Actual);
    GTEST_SKIP() << "regenerated " << GoldenPath;
  }

  std::vector<GoldenRun> Expected = readGolden();
  ASSERT_EQ(Expected.size(), Actual.size());
  for (size_t I = 0; I < Actual.size(); ++I) {
    const GoldenRun &E = Expected[I], &A = Actual[I];
    const std::string Where = A.Model + " / " + A.Cost;
    ASSERT_EQ(E.Model, A.Model);
    ASSERT_EQ(E.Cost, A.Cost);
    EXPECT_EQ(E.ENodes, A.ENodes) << Where;
    EXPECT_EQ(E.Rank, A.Rank) << Where;
    ASSERT_EQ(E.Programs.size(), A.Programs.size()) << Where;
    for (size_t P = 0; P < A.Programs.size(); ++P) {
      EXPECT_EQ(E.Programs[P].first, A.Programs[P].first)
          << Where << " program " << P << " cost bits";
      ParseResult Want = parseSexp(E.Programs[P].second);
      ParseResult Got = parseSexp(A.Programs[P].second);
      ASSERT_TRUE(Want && Got) << Where << " program " << P;
      EXPECT_TRUE(termApproxEquals(Want.Value, Got.Value, 1e-9))
          << Where << " program " << P << "\n  expected: "
          << E.Programs[P].second << "\n  actual:   " << A.Programs[P].second;
    }
  }
}
