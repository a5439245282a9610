//===-- service/ResultCache.h - Content-addressed result cache --*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A content-addressed cache of synthesis results, so the service layer
/// never repeats work it has already done. A cached entry is addressed by
/// three fingerprints:
///
///  * the *value fingerprint* of the input term — Int/Float respellings
///    of the same model hit the same entry, and symbols contribute their
///    spellings rather than process-local interning ids, so the key is
///    stable across the processes a disk cache is shared between,
///  * the *rule-database fingerprint* (rule names + left-hand-side
///    patterns + order), so a rule change invalidates every entry rather
///    than serving programs a different database produced (rules with
///    programmatic right-hand sides must be renamed when their appliers
///    change semantics — the applier itself is not hashable), and
///  * the *options fingerprint* over every result-relevant knob of
///    SynthesisOptions (fuel, solver band, cost, top-k, ...). Knobs that
///    cannot change results are deliberately excluded: NumThreads
///    (ignored by the engines) and the cancellation token (cancelled runs
///    are never stored).
///
/// The cached value is the ranked program list; terms round-trip through
/// the canonical s-expression syntax (bit-exact) and costs through raw
/// IEEE bits, so a hit reproduces the miss's output byte for byte.
/// Entries live in memory and, when a directory is configured, as one
/// file per key — so the cache persists across processes and can be
/// shared by concurrent ones (files are written to a temporary name and
/// atomically renamed into place). All methods are thread-safe.
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_SERVICE_RESULTCACHE_H
#define SHRINKRAY_SERVICE_RESULTCACHE_H

#include "egraph/Rewrite.h"
#include "synth/Synthesizer.h"

#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace shrinkray {
namespace service {

/// Address of one cached synthesis result.
struct CacheKey {
  uint64_t InputHash = 0;   ///< stable value fingerprint of the flat input
  uint64_t RulesFp = 0;     ///< ruleDatabaseFingerprint
  uint64_t OptionsFp = 0;   ///< optionsFingerprint

  /// 48-hex-character spelling; doubles as the on-disk file stem.
  std::string hex() const;

  friend bool operator==(const CacheKey &A, const CacheKey &B) {
    return A.InputHash == B.InputHash && A.RulesFp == B.RulesFp &&
           A.OptionsFp == B.OptionsFp;
  }
};

/// Fingerprint of a rewrite-rule database: rule count, names, and
/// left-hand-side patterns, order-sensitive.
uint64_t ruleDatabaseFingerprint(const std::vector<Rewrite> &Rules);

/// Fingerprint of every SynthesisOptions field that can influence the
/// synthesized programs (see the file comment for what is excluded).
uint64_t optionsFingerprint(const SynthesisOptions &Opts);

/// Assembles the cache key for synthesizing \p FlatInput under \p Opts
/// with a rule database whose fingerprint is \p RulesFp.
CacheKey makeCacheKey(const TermPtr &FlatInput, uint64_t RulesFp,
                      const SynthesisOptions &Opts);

/// Process-stable, value-level fingerprint of \p T (the InputHash of
/// makeCacheKey, exposed for the snapshot tier's exact-input comparison).
uint64_t exactTermFingerprint(const TermPtr &T);

/// Like exactTermFingerprint, but every numeric literal hashes as one
/// generic "number here" token: two models that differ only in numeric
/// leaf *values* collide on purpose. This is the snapshot tier's input
/// dimension — a localized parameter edit lands on the captured model's
/// snapshot, which is exactly the near-miss warm starts accelerate.
uint64_t structureTermFingerprint(const TermPtr &T);

/// Fingerprint of the SynthesisOptions knobs that shape the *saturation
/// mutation sequence* — NodeLimit, MatchLimit, BanLengthIters — and
/// nothing else. Deliberately narrower than optionsFingerprint: fuel
/// (IterLimit) is resumable, and the cost function / top-k / solver knobs
/// only affect phases a warm start re-runs anyway. That split is what
/// lets a deeper-fuel or different-cost request hit a snapshot its exact
/// result key would miss.
uint64_t snapshotOptionsFingerprint(const SynthesisOptions &Opts);

/// Assembles the snapshot-tier key for \p FlatInput under \p Opts:
/// structure fingerprint + rule fingerprint + saturation-shaping options
/// fingerprint, reusing CacheKey's layout and hex spelling (snapshot
/// files use the `.srsnap` extension, so the namespaces cannot collide).
CacheKey makeSnapshotKey(const TermPtr &FlatInput, uint64_t RulesFp,
                         const SynthesisOptions &Opts);

/// One snapshot-tier entry: the post-saturation graph and cursors a
/// successful run captured (SynthesisResult::Snapshot) plus what a later
/// request needs to decide whether it can warm-start from them. The entry
/// holds no extraction state: a warm run derives its top-k on the finished
/// graph like a cold one, so any cost function and k can reuse it.
struct SnapshotEntry {
  uint64_t InputHash = 0;  ///< exactTermFingerprint of the captured input
  std::string InputSexp;   ///< the captured input itself (edit diffing)
  StopReason Stop = StopReason::Saturated; ///< capture-time stop reason
  uint64_t IterationsDone = 0;             ///< saturation fuel consumed
  std::string Cursors; ///< serializeRunnerCursors bytes
  std::string Graph;   ///< EGraph::serialize bytes
};

/// Encodes \p E behind a magic + length + checksum envelope. One checksum
/// covers the whole payload, so any bit flip or truncation anywhere in a
/// stored entry degrades to a diagnostic decode failure — a cache miss —
/// rather than reaching the (individually validated) inner decoders.
std::string encodeSnapshotEntry(const SnapshotEntry &E);

/// Decodes encodeSnapshotEntry bytes into \p Out. Returns "" on success,
/// a diagnostic on any malformation (bad magic, unsupported version,
/// checksum mismatch, truncation, out-of-range enums). Never asserts.
std::string decodeSnapshotEntry(std::string_view Bytes, SnapshotEntry &Out);

/// Thread-safe memory + optional-disk result cache.
class ResultCache {
public:
  struct Stats {
    size_t Hits = 0;     ///< lookups answered (memory or disk)
    size_t DiskHits = 0; ///< subset of Hits answered by reading a file
    size_t Misses = 0;
    size_t Stores = 0;
    size_t MemEvictions = 0;  ///< memory entries dropped by the LRU cap
    size_t DiskEvictions = 0; ///< entry files deleted by the disk sweep
    // Snapshot tier (lookupSnapshot/storeSnapshot); counted separately so
    // the result tier's counters mean exactly what they always did.
    size_t SnapshotHits = 0;
    size_t SnapshotMisses = 0; ///< includes corrupt entries (diagnosed)
    size_t SnapshotStores = 0;
    size_t SnapshotMemEvictions = 0;
    size_t SnapshotDiskEvictions = 0; ///< `.srsnap` files swept from disk
  };

  /// Retention budgets. Zero means unbounded — the cache then behaves
  /// exactly as it did before budgets existed.
  struct Limits {
    /// Memory tier: max resident entries; least-recently-used beyond the
    /// cap are dropped (their disk twin, if any, stays readable).
    size_t MaxMemEntries = 0;
    /// Disk tier: total `.srres` bytes the sweep trims towards,
    /// oldest-first by modification time.
    uintmax_t MaxDiskBytes = 0;
    /// Disk tier: entries (and orphaned `.tmp.` files from crashed
    /// writers) older than this many seconds are swept regardless of the
    /// byte budget. Snapshot entry files (`.srsnap`) count against both
    /// disk budgets exactly like result files — a snapshot blob is
    /// megabytes where a result file is bytes, so a tier that escaped the
    /// budgets would dwarf them.
    double MaxAgeSec = 0.0;
    /// Memory tier: max resident *snapshot* entries. Unlike the other
    /// budgets this one defaults bounded — snapshot blobs are megabytes,
    /// so an unbounded default would leak the working set of every model
    /// a long-lived service touches. 0 = unbounded, as elsewhere.
    size_t MaxMemSnapshots = 4;
  };

  /// \p Dir empty = memory-only; otherwise entries also persist as
  /// `<Dir>/<key>.srres` files (the directory is created on first store).
  /// (Two overloads, not one defaulted parameter: GCC rejects a `= {}`
  /// default argument of a nested aggregate with member initializers.)
  explicit ResultCache(std::string Dir = std::string());
  ResultCache(std::string Dir, Limits Lim);

  /// Enforces the disk budgets now (store() calls this on an amortized
  /// schedule; exposed so maintenance and tests can run it on demand).
  /// Deletion races benignly with concurrent writers: rename-into-place
  /// either lands before the sweep's directory scan (and is subject to
  /// it) or recreates the entry after it — never a torn file either way.
  void sweepDisk();

  /// The cached ranked programs for \p Key, or nullopt. A disk hit is
  /// promoted into memory; an unreadable or corrupt file is a miss.
  std::optional<std::vector<RankedTerm>> lookup(const CacheKey &Key);

  /// Caches \p Programs under \p Key (memory, and disk when configured).
  void store(const CacheKey &Key, const std::vector<RankedTerm> &Programs);

  /// The decoded snapshot entry for \p Key, or nullopt. Mirrors lookup():
  /// memory tier first, then `<Dir>/<key>.srsnap`; a disk hit is promoted
  /// into memory; any decode failure — including a corrupt or truncated
  /// blob — is a miss.
  std::optional<SnapshotEntry> lookupSnapshot(const CacheKey &Key);

  /// Caches the encoded form of \p E under \p Key (memory, and disk when
  /// configured). Counts toward the same amortized sweep schedule as
  /// result stores.
  void storeSnapshot(const CacheKey &Key, const SnapshotEntry &E);

  Stats stats() const;

  const std::string &dir() const { return Dir; }

private:
  using MemEntry = std::pair<std::string, std::vector<RankedTerm>>;
  /// Snapshot memory tier holds the *encoded* blob: lookups re-decode, so
  /// memory and disk hits share one validation path.
  using SnapMemEntry = std::pair<std::string, std::string>;

  std::string Dir;
  Limits Lim;
  mutable std::mutex M;
  /// Memory tier: recency list (front = most recent) + key index into it.
  std::list<MemEntry> MemList;
  std::unordered_map<std::string, std::list<MemEntry>::iterator> Mem;
  /// Snapshot memory tier, same recency scheme, separate budget.
  std::list<SnapMemEntry> SnapMemList;
  std::unordered_map<std::string, std::list<SnapMemEntry>::iterator> SnapMem;
  Stats St;
  size_t StoresSinceSweep = 0;

  std::string pathFor(const CacheKey &Key) const;
  std::string snapshotPathFor(const CacheKey &Key) const;

  /// Inserts/refreshes \p Hex at the front of the recency list and
  /// applies the memory cap. Caller holds M.
  void insertMemLocked(const std::string &Hex,
                       const std::vector<RankedTerm> &Programs);
  void insertSnapMemLocked(const std::string &Hex, const std::string &Blob);

  /// Shared write-side of the disk tiers: tmp-name + atomic rename, then
  /// the amortized sweep when \p Sweep is set.
  void writeFile(const std::string &Path, const std::string &Bytes,
                 bool Sweep);
};

} // namespace service
} // namespace shrinkray

#endif // SHRINKRAY_SERVICE_RESULTCACHE_H
