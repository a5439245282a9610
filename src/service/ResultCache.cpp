//===-- service/ResultCache.cpp - Content-addressed result cache ----------===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fingerprinting and the disk format behind ResultCache. One entry is a
/// small text file:
///
///   shrinkray-result-cache v1
///   key <48 hex>
///   programs <N>
///   <cost as 16 raw IEEE hex digits> <canonical s-expression>   (N lines)
///
/// Writes go to `<path>.tmp.<pid>` and are renamed into place, so
/// concurrent processes sharing a cache directory see either the old file
/// or the complete new one. Any parse failure on read — wrong header,
/// key mismatch (a hash collision or a renamed file), bad cost bits, an
/// s-expression that no longer parses — degrades to a cache miss.
///
//===----------------------------------------------------------------------===//

#include "service/ResultCache.h"

#include "cad/Sexp.h"
#include "egraph/SnapshotCodec.h"
#include "support/Hashing.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#ifndef _WIN32
#include <unistd.h>
#endif

using namespace shrinkray;
using namespace shrinkray::service;

namespace {

std::string hex16(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof Buf, "%016" PRIx64, V);
  return Buf;
}

} // namespace

std::string CacheKey::hex() const {
  return hex16(InputHash) + hex16(RulesFp) + hex16(OptionsFp);
}

namespace {

/// Accumulates a value-level fingerprint of \p T with numeric leaf
/// *values* erased (each hashes as the bare shared tag): the
/// structureTermFingerprint variant. Symbols contribute their spellings
/// and the stream is length-/count-prefixed, mirroring the per-field
/// scheme behind termValueHash (which exactTermFingerprint reuses
/// directly — it is precomputed per node and already process-stable).
void structureFingerprintRec(const Term &T, Fnv1a &F) {
  const Op &O = T.op();
  switch (O.kind()) {
  case OpKind::Int:
  case OpKind::Float:
    F.u64(uint64_t(1) << 32); // shared numeric tag; value erased
    break;
  case OpKind::Var:
  case OpKind::External:
  case OpKind::PatVar:
    F.u64(static_cast<uint64_t>(O.kind()));
    F.str(O.symbol().str());
    break;
  case OpKind::OpRef:
    F.u64(static_cast<uint64_t>(O.kind()));
    F.u64(static_cast<uint64_t>(O.referencedOp()));
    break;
  default:
    F.u64(static_cast<uint64_t>(O.kind()));
    break;
  }
  F.u64(T.numChildren());
  for (const TermPtr &Kid : T.children())
    structureFingerprintRec(*Kid, F);
}

} // namespace

uint64_t service::exactTermFingerprint(const TermPtr &T) {
  return T->valueHash();
}

uint64_t service::structureTermFingerprint(const TermPtr &T) {
  Fnv1a F;
  structureFingerprintRec(*T, F);
  return F.hash();
}

uint64_t service::ruleDatabaseFingerprint(const std::vector<Rewrite> &Rules) {
  Fnv1a F;
  F.u64(Rules.size());
  for (const Rewrite &R : Rules) {
    F.str(R.name());
    F.str(printSexp(R.lhs().term()));
  }
  return F.hash();
}

uint64_t service::optionsFingerprint(const SynthesisOptions &Opts) {
  Fnv1a F;
  F.u64(1); // options-fingerprint schema version
  F.u64(Opts.Limits.IterLimit)
      .u64(Opts.Limits.NodeLimit)
      .f64(Opts.Limits.TimeLimitSec)
      .u64(Opts.Limits.MatchLimit)
      .u64(Opts.Limits.BanLengthIters);
  F.f64(Opts.Solver.Epsilon)
      .f64(Opts.Solver.TrigR2Floor)
      .u64(static_cast<uint64_t>(Opts.Solver.MaxNiceDenominator));
  F.u64(Opts.TopK)
      .u64(static_cast<uint64_t>(Opts.Cost))
      .u64(1) // the retired synthesis round count; keeps old keys valid
      .u64(Opts.EnableLoopInference)
      .u64(Opts.EnableIrregular)
      .u64(Opts.EnableListSorting)
      .u64(Opts.MaxFoldSites);
  return F.hash();
}

CacheKey service::makeCacheKey(const TermPtr &FlatInput, uint64_t RulesFp,
                               const SynthesisOptions &Opts) {
  CacheKey Key;
  Key.InputHash = exactTermFingerprint(FlatInput);
  Key.RulesFp = RulesFp;
  Key.OptionsFp = optionsFingerprint(Opts);
  return Key;
}

uint64_t service::snapshotOptionsFingerprint(const SynthesisOptions &Opts) {
  Fnv1a F;
  F.u64(1); // snapshot-options-fingerprint schema version
  F.u64(Opts.Limits.NodeLimit)
      .u64(Opts.Limits.MatchLimit)
      .u64(Opts.Limits.BanLengthIters);
  return F.hash();
}

CacheKey service::makeSnapshotKey(const TermPtr &FlatInput, uint64_t RulesFp,
                                  const SynthesisOptions &Opts) {
  CacheKey Key;
  Key.InputHash = structureTermFingerprint(FlatInput);
  Key.RulesFp = RulesFp;
  Key.OptionsFp = snapshotOptionsFingerprint(Opts);
  return Key;
}

//===----------------------------------------------------------------------===//
// Snapshot entry envelope
//===----------------------------------------------------------------------===//

namespace {

/// Magic of an encoded snapshot entry; the trailing digit is the envelope
/// format version (a mismatch is "unsupported", not "corrupt"): version-1
/// files, which also carried an extraction-engine blob, are misses.
constexpr char SnapshotEntryMagic[8] = {'S', 'R', 'A', 'Y', 'S', 'N', 'E', '2'};
constexpr uint32_t SnapshotEntryVersion = 2;

} // namespace

std::string service::encodeSnapshotEntry(const SnapshotEntry &E) {
  snapcodec::Writer W;
  W.u32(SnapshotEntryVersion);
  W.u64(E.InputHash);
  W.u8(static_cast<uint8_t>(E.Stop));
  W.u64(E.IterationsDone);
  W.str(E.InputSexp);
  W.str(E.Cursors);
  W.str(E.Graph);
  const std::string Payload = W.take();

  std::string Out(SnapshotEntryMagic, sizeof SnapshotEntryMagic);
  snapcodec::Writer Header;
  Header.u64(Payload.size());
  Header.u64(snapcodec::fnv1a(Payload));
  Out += Header.bytes();
  Out += Payload;
  return Out;
}

std::string service::decodeSnapshotEntry(std::string_view Bytes,
                                         SnapshotEntry &Out) {
  constexpr size_t HeaderSize = sizeof SnapshotEntryMagic + 16;
  if (Bytes.size() < HeaderSize)
    return "snapshot entry truncated before the header";
  if (std::memcmp(Bytes.data(), SnapshotEntryMagic,
                  sizeof SnapshotEntryMagic - 1) != 0)
    return "not a snapshot entry (bad magic)";
  if (Bytes[sizeof SnapshotEntryMagic - 1] !=
      SnapshotEntryMagic[sizeof SnapshotEntryMagic - 1])
    return "unsupported snapshot entry format version";
  snapcodec::Reader Header(
      std::string(Bytes.substr(sizeof SnapshotEntryMagic, 16)));
  const uint64_t Len = Header.u64();
  const uint64_t Sum = Header.u64();
  std::string_view Payload = Bytes.substr(HeaderSize);
  if (Len != Payload.size())
    return "snapshot entry length mismatch";
  // One checksum over the whole payload: any bit flip anywhere — the
  // envelope fields, the inner blobs, their own checksums — fails here,
  // before any inner decoder sees the bytes.
  if (snapcodec::fnv1a(Payload) != Sum)
    return "snapshot entry checksum mismatch";

  snapcodec::Reader R{std::string(Payload)};
  if (R.u32() != SnapshotEntryVersion || !R.ok())
    return "unsupported snapshot entry payload version";
  Out.InputHash = R.u64();
  const uint8_t Stop = R.u8();
  Out.IterationsDone = R.u64();
  Out.InputSexp = R.str();
  Out.Cursors = R.str();
  Out.Graph = R.str();
  if (!R.ok() || !R.atEnd())
    return "snapshot entry payload truncated";
  if (Stop > static_cast<uint8_t>(StopReason::Cancelled))
    return "snapshot entry stop reason out of range";
  Out.Stop = static_cast<StopReason>(Stop);
  return "";
}

ResultCache::ResultCache(std::string Dir)
    : ResultCache(std::move(Dir), Limits()) {}

ResultCache::ResultCache(std::string Dir, Limits Lim)
    : Dir(std::move(Dir)), Lim(Lim) {}

void ResultCache::insertMemLocked(const std::string &Hex,
                                  const std::vector<RankedTerm> &Programs) {
  auto It = Mem.find(Hex);
  if (It != Mem.end()) {
    It->second->second = Programs;
    MemList.splice(MemList.begin(), MemList, It->second);
    return;
  }
  MemList.emplace_front(Hex, Programs);
  Mem[Hex] = MemList.begin();
  while (Lim.MaxMemEntries != 0 && Mem.size() > Lim.MaxMemEntries) {
    Mem.erase(MemList.back().first);
    MemList.pop_back();
    ++St.MemEvictions;
  }
}

void ResultCache::insertSnapMemLocked(const std::string &Hex,
                                      const std::string &Blob) {
  auto It = SnapMem.find(Hex);
  if (It != SnapMem.end()) {
    It->second->second = Blob;
    SnapMemList.splice(SnapMemList.begin(), SnapMemList, It->second);
    return;
  }
  SnapMemList.emplace_front(Hex, Blob);
  SnapMem[Hex] = SnapMemList.begin();
  while (Lim.MaxMemSnapshots != 0 && SnapMem.size() > Lim.MaxMemSnapshots) {
    SnapMem.erase(SnapMemList.back().first);
    SnapMemList.pop_back();
    ++St.SnapshotMemEvictions;
  }
}

std::string ResultCache::pathFor(const CacheKey &Key) const {
  return Dir + "/" + Key.hex() + ".srres";
}

std::string ResultCache::snapshotPathFor(const CacheKey &Key) const {
  return Dir + "/" + Key.hex() + ".srsnap";
}

namespace {

/// Parses one disk entry into \p Programs; any malformed line is a
/// refusal (the caller treats it as a miss). Pure: no cache state.
bool readEntryFile(const std::string &Path, const std::string &Hex,
                   std::vector<RankedTerm> &Programs) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string Line;
  if (!std::getline(In, Line) || Line != "shrinkray-result-cache v1" ||
      !std::getline(In, Line) || Line != "key " + Hex ||
      !std::getline(In, Line) || Line.rfind("programs ", 0) != 0)
    return false;
  size_t N = 0;
  {
    std::istringstream Count(Line.substr(strlen("programs ")));
    if (!(Count >> N) || N > 10000)
      return false;
  }
  Programs.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    if (!std::getline(In, Line) || Line.size() < 18 || Line[16] != ' ')
      return false;
    const std::string CostHex = Line.substr(0, 16);
    char *End = nullptr;
    uint64_t CostBits = std::strtoull(CostHex.c_str(), &End, 16);
    if (End != CostHex.c_str() + 16)
      return false; // bad cost bits: the whole field must be hex
    RankedTerm P;
    std::memcpy(&P.Cost, &CostBits, sizeof P.Cost);
    if (std::isnan(P.Cost))
      return false;
    ParseResult R = parseSexp(std::string_view(Line).substr(17));
    if (!R)
      return false;
    P.T = R.Value;
    Programs.push_back(std::move(P));
  }
  return true;
}

} // namespace

std::optional<std::vector<RankedTerm>>
ResultCache::lookup(const CacheKey &Key) {
  const std::string Hex = Key.hex();
  {
    std::lock_guard<std::mutex> Lock(M);
    auto It = Mem.find(Hex);
    if (It != Mem.end()) {
      ++St.Hits;
      MemList.splice(MemList.begin(), MemList, It->second);
      return It->second->second;
    }
    if (Dir.empty()) {
      ++St.Misses;
      return std::nullopt;
    }
  }

  // Disk probe outside the lock: a slow filesystem must not serialize
  // other workers' in-memory hits. Two threads racing the same cold key
  // both read the file — benign, last insert wins with equal content.
  std::vector<RankedTerm> Programs;
  const bool Read = readEntryFile(pathFor(Key), Hex, Programs);
  std::lock_guard<std::mutex> Lock(M);
  if (!Read) {
    ++St.Misses;
    return std::nullopt;
  }
  ++St.Hits;
  ++St.DiskHits;
  insertMemLocked(Hex, Programs);
  return Programs;
}

void ResultCache::store(const CacheKey &Key,
                        const std::vector<RankedTerm> &Programs) {
  const std::string Hex = Key.hex();
  bool Sweep = false;
  {
    std::lock_guard<std::mutex> Lock(M);
    ++St.Stores;
    insertMemLocked(Hex, Programs);
    // Budget enforcement is amortized: every 16th store sweeps, so a
    // steady stream of stores keeps the directory near its budget
    // without paying a directory scan per store.
    if (!Dir.empty() && (Lim.MaxDiskBytes != 0 || Lim.MaxAgeSec != 0.0))
      Sweep = ++StoresSinceSweep >= 16;
    if (Sweep)
      StoresSinceSweep = 0;
  }
  if (Dir.empty())
    return;

  std::ostringstream Os;
  Os << "shrinkray-result-cache v1\n"
     << "key " << Hex << "\n"
     << "programs " << Programs.size() << "\n";
  for (const RankedTerm &P : Programs) {
    uint64_t CostBits;
    std::memcpy(&CostBits, &P.Cost, sizeof CostBits);
    Os << hex16(CostBits) << " " << printSexp(P.T) << "\n";
  }
  writeFile(pathFor(Key), Os.str(), Sweep);
}

void ResultCache::writeFile(const std::string &Path, const std::string &Bytes,
                            bool Sweep) {
  // File write outside the lock (see lookup): the tmp-name + rename
  // protocol already tolerates concurrent writers of the same key.
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  if (Ec)
    return; // cache degrades to memory-only; synthesis already succeeded

  // Unique per process *and* thread: with the lock no longer covering
  // the write, two workers storing the same key must not share a tmp.
  const std::string Tmp =
      Path + ".tmp." +
      std::to_string(static_cast<unsigned long>(
#ifdef _WIN32
          0
#else
          ::getpid()
#endif
          )) +
      "." +
      std::to_string(std::hash<std::thread::id>()(std::this_thread::get_id()));
  bool Written = false;
  {
    std::ofstream Out(Tmp, std::ios::trunc | std::ios::binary);
    if (Out) {
      Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
      Written = Out.good();
    }
  }
  if (Written)
    std::filesystem::rename(Tmp, Path, Ec);
  // Failed writes and failed renames both clean up the tmp: a long-lived
  // service on a flaky disk must not accumulate orphans.
  if (!Written || Ec)
    std::filesystem::remove(Tmp, Ec);
  if (Sweep)
    sweepDisk();
}

std::optional<SnapshotEntry> ResultCache::lookupSnapshot(const CacheKey &Key) {
  const std::string Hex = Key.hex();
  std::string Blob;
  {
    std::lock_guard<std::mutex> Lock(M);
    auto It = SnapMem.find(Hex);
    if (It != SnapMem.end()) {
      SnapMemList.splice(SnapMemList.begin(), SnapMemList, It->second);
      Blob = It->second->second;
    } else if (Dir.empty()) {
      ++St.SnapshotMisses;
      return std::nullopt;
    }
  }

  bool FromDisk = false;
  if (Blob.empty()) {
    // Disk probe outside the lock, as in lookup().
    std::ifstream In(snapshotPathFor(Key), std::ios::binary);
    if (In) {
      std::ostringstream Os;
      Os << In.rdbuf();
      Blob = std::move(Os).str();
      FromDisk = In.good() || In.eof();
    }
    if (!FromDisk || Blob.empty()) {
      std::lock_guard<std::mutex> Lock(M);
      ++St.SnapshotMisses;
      return std::nullopt;
    }
  }

  // Decode outside the lock too — entries are megabytes. Memory-tier
  // blobs re-decode on every hit, which keeps one validation path for
  // both tiers (and is cheap next to the synthesis it saves).
  SnapshotEntry E;
  const std::string Err = decodeSnapshotEntry(Blob, E);
  std::lock_guard<std::mutex> Lock(M);
  if (!Err.empty()) {
    // A corrupt blob is a miss, not an error: warm starts are an
    // optimization, and the cold pipeline is always available.
    ++St.SnapshotMisses;
    return std::nullopt;
  }
  ++St.SnapshotHits;
  if (FromDisk)
    insertSnapMemLocked(Hex, Blob);
  return E;
}

void ResultCache::storeSnapshot(const CacheKey &Key, const SnapshotEntry &E) {
  const std::string Hex = Key.hex();
  const std::string Blob = encodeSnapshotEntry(E);
  bool Sweep = false;
  {
    std::lock_guard<std::mutex> Lock(M);
    ++St.SnapshotStores;
    insertSnapMemLocked(Hex, Blob);
    // Snapshot stores advance the same amortized sweep counter as result
    // stores: a snapshot-only workload must still hit its disk budgets.
    if (!Dir.empty() && (Lim.MaxDiskBytes != 0 || Lim.MaxAgeSec != 0.0))
      Sweep = ++StoresSinceSweep >= 16;
    if (Sweep)
      StoresSinceSweep = 0;
  }
  if (Dir.empty())
    return;
  writeFile(snapshotPathFor(Key), Blob, Sweep);
}

void ResultCache::sweepDisk() {
  if (Dir.empty() || (Lim.MaxDiskBytes == 0 && Lim.MaxAgeSec == 0.0))
    return;
  namespace fs = std::filesystem;

  struct DiskEntry {
    fs::path Path;
    fs::file_time_type Written;
    uintmax_t Bytes = 0;
    bool IsTmp = false;
    bool IsSnapshot = false;
  };
  std::vector<DiskEntry> Entries;
  uintmax_t TotalBytes = 0;
  std::error_code Ec;
  for (fs::directory_iterator It(Dir, Ec), End; !Ec && It != End;
       It.increment(Ec)) {
    const fs::path P = It->path();
    const std::string Name = P.filename().string();
    DiskEntry E;
    E.Path = P;
    // Both tiers share the budgets: a megabyte-scale snapshot tier that
    // escaped the sweep would render MaxDiskBytes meaningless, and its
    // crashed writers would leak tmp orphans forever.
    E.IsSnapshot = Name.find(".srsnap") != std::string::npos;
    E.IsTmp = Name.find(".srres.tmp.") != std::string::npos ||
              Name.find(".srsnap.tmp.") != std::string::npos;
    if (!E.IsTmp && P.extension() != ".srres" && P.extension() != ".srsnap")
      continue; // never touch files the cache did not write
    std::error_code St1, St2;
    E.Written = fs::last_write_time(P, St1);
    E.Bytes = fs::file_size(P, St2);
    if (St1 || St2)
      continue; // raced a concurrent delete/rename; skip this file
    if (!E.IsTmp)
      TotalBytes += E.Bytes;
    Entries.push_back(std::move(E));
  }

  const auto Now = fs::file_time_type::clock::now();
  auto ageSec = [&](const DiskEntry &E) {
    return std::chrono::duration<double>(Now - E.Written).count();
  };
  // Oldest first, so the byte budget trims in LRU-by-mtime order.
  std::sort(Entries.begin(), Entries.end(),
            [](const DiskEntry &A, const DiskEntry &B) {
              return A.Written < B.Written;
            });

  size_t Removed = 0, SnapRemoved = 0;
  for (const DiskEntry &E : Entries) {
    const bool Expired = Lim.MaxAgeSec != 0.0 && ageSec(E) > Lim.MaxAgeSec;
    const bool OverBudget =
        !E.IsTmp && Lim.MaxDiskBytes != 0 && TotalBytes > Lim.MaxDiskBytes;
    // Tmp files are only ever age-swept: a fresh one may belong to a
    // writer that is about to rename it into place.
    if (!(Expired || OverBudget))
      continue;
    std::error_code Rm;
    if (!fs::remove(E.Path, Rm) || Rm)
      continue; // concurrent writer won the race; its entry is current
    if (!E.IsTmp) {
      TotalBytes -= E.Bytes;
      ++(E.IsSnapshot ? SnapRemoved : Removed);
    }
  }
  if (Removed != 0 || SnapRemoved != 0) {
    std::lock_guard<std::mutex> Lock(M);
    St.DiskEvictions += Removed;
    St.SnapshotDiskEvictions += SnapRemoved;
  }
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  return St;
}
