// Data characteristics database (paper §4.2, Figure 2).
//
// During tuning, Active Harmony records every explored configuration with
// its measured performance. Each completed run is stored as an
// ExperienceRecord keyed by the workload's characteristics signature (for
// the cluster web service: the frequency distribution of web interactions).
// Later runs retrieve the experience whose signature is closest to the
// observed one and warm-start the tuner from it. The database persists to a
// versioned line-oriented text format.
//
// Classification hot path: signatures are mirrored into flat contiguous
// stores (one double array plus record offsets each: the rows borrowed from
// an adopted snapshot, then the rows appended since) exposed as a
// SignatureView, so classifiers scan cache-line-dense rows instead of
// chasing a vector-of-vectors. A monotonically increasing, process-unique
// version stamps every mutation; fitted classifiers compare it to decide
// when their model must be rebuilt.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/parameter.hpp"
#include "core/tuner.hpp"

namespace harmony {

class SnapshotMapping;  // core/store.hpp — an mmap'd on-disk snapshot

/// Workload characteristics vector Ci = (ci1, ci2, ...).
using WorkloadSignature = std::vector<double>;

/// Squared-error distance the paper's classifier minimizes.
[[nodiscard]] double signature_distance_sq(const WorkloadSignature& a,
                                           const WorkloadSignature& b);
/// Euclidean distance between signatures.
[[nodiscard]] double signature_distance(const WorkloadSignature& a,
                                        const WorkloadSignature& b);
/// True when every value of `s` is finite. A NaN or infinite value makes
/// every distance to it NaN or infinite, so such a signature can neither
/// be classified nor stored as experience.
[[nodiscard]] bool signature_is_finite(const WorkloadSignature& s);

/// Process-unique version stamp. Every HistoryDatabase mutation (and every
/// ad-hoc signature set built outside a database) draws a fresh value, so a
/// version can never collide across database instances.
[[nodiscard]] std::uint64_t next_signature_version() noexcept;

/// Zero-copy window over a signature index of `count` records, stored as
/// two extents:
///
///   head  rows [0, split): `head_data` / `head_offsets`, plus an optional
///         precomputed sketch. A snapshot-backed database borrows these
///         straight from its mapping.
///   tail  rows [split, count): `tail_data` / `tail_offsets`, the rows the
///         owner appended itself (every row, for a database that never
///         adopted a snapshot).
///
/// Within an extent record values live back to back: head row i occupies
/// head_data[head_offsets[i], head_offsets[i+1]) and tail row split + j
/// occupies tail_data[tail_offsets[j], tail_offsets[j+1]); both offset
/// arrays start at 0. row(i) picks the extent, so a consumer walking rows
/// one by one never sees the split; a kernel that scans contiguous memory
/// folds the head range, then the tail range, carrying its running state
/// across. A default-constructed view has split 0: an ad-hoc view fills in
/// only the tail. The view borrows both extents — it is valid until the
/// owner mutates or dies; consumers detect staleness by comparing `version`
/// (never 0) against the owner's current version.
struct SignatureView {
  /// Sentinel for `dims` when records disagree on arity.
  static constexpr std::size_t kMixedDims = static_cast<std::size_t>(-1);

  const double* head_data = nullptr;
  const std::size_t* head_offsets = nullptr;  ///< split + 1 entries
  /// Optional plane-major prune sketch of the head rows
  /// (LeastSquareClassifier layout: kSketchPrefix coordinate planes of
  /// `split` doubles, then the rest-norm plane). Snapshot-backed databases
  /// expose the sketch section persisted next to the signature index so
  /// fit() borrows it instead of rebuilding; nullptr means "build your own".
  const double* head_sketch = nullptr;
  std::size_t split = 0;  ///< rows in the head extent
  const double* tail_data = nullptr;
  const std::size_t* tail_offsets = nullptr;  ///< count - split + 1 entries
  std::size_t count = 0;
  std::size_t dims = 0;  ///< uniform record arity, or kMixedDims
  std::uint64_t version = 0;
  /// Append-chain identity: the version stamp the owner drew at its last
  /// structural mutation (copy, reserve, adopt, materialize, load). Within
  /// one chain the owner only appends to the tail, so a consumer fitted at
  /// N rows under the same append_base may treat rows [0, N) as
  /// value-identical (and `split` as unchanged) and consume rows
  /// [N, count) as a pure delta. 0 means "no chain": ad-hoc views never
  /// qualify for incremental maintenance.
  std::uint64_t append_base = 0;

  [[nodiscard]] bool empty() const noexcept { return count == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return count; }
  [[nodiscard]] std::size_t arity(std::size_t i) const noexcept {
    return i < split ? head_offsets[i + 1] - head_offsets[i]
                     : tail_offsets[i - split + 1] - tail_offsets[i - split];
  }
  [[nodiscard]] const double* row(std::size_t i) const noexcept {
    return i < split ? head_data + head_offsets[i]
                     : tail_data + tail_offsets[i - split];
  }
};

/// One prior run: its workload signature and everything measured during it.
struct ExperienceRecord {
  std::string label;  ///< human-readable tag ("shopping", "ordering", ...)
  WorkloadSignature signature;
  std::vector<Measurement> measurements;
};

class HistoryDatabase {
 public:
  HistoryDatabase() = default;
  // Copies get a fresh version: a classifier fitted against the source must
  // not treat views into the copy (different buffers) as already fitted.
  HistoryDatabase(const HistoryDatabase& other);
  HistoryDatabase& operator=(const HistoryDatabase& other);
  // Moves keep the version: the heap buffers (and thus outstanding view
  // pointers) travel with the object.
  HistoryDatabase(HistoryDatabase&&) noexcept = default;
  HistoryDatabase& operator=(HistoryDatabase&&) noexcept = default;

  void add(ExperienceRecord record);

  /// Pre-sizes the store for a total of `n_records` records carrying
  /// `n_signature_values` signature doubles overall (0 = unknown), so a
  /// bulk ingest (log replay, bench generation) avoids incremental SoA
  /// regrowth. Counts are totals including already-present records; only
  /// the owned tail is sized (rows borrowed from an adopted snapshot stay
  /// in the mapping). May reallocate the tail: outstanding SignatureViews
  /// are invalidated and the append chain restarts (the version stamp
  /// moves), exactly as for any other structural mutation.
  void reserve(std::size_t n_records, std::size_t n_signature_values = 0);

  /// Replaces the contents with the records of an mmap'd snapshot, borrowed
  /// zero-copy: the head extent of signature_view() points straight into
  /// the mapping (sketch included when the snapshot carries one) and
  /// records are decoded lazily, on first access, under an internal lock —
  /// record(i) stays safe to call from concurrent readers. Later add()s
  /// append to the owned tail extent and extend the append chain this call
  /// starts; no path copies the mapped rows except materialize().
  void adopt_snapshot(std::shared_ptr<const SnapshotMapping> snap);

  /// Decodes every snapshot-backed record into owned storage, copies the
  /// mapped signature rows into the owned flat store (the view becomes one
  /// tail extent), and drops the mapping reference. Outstanding record
  /// references are invalidated (the version stamp moves). No-op for a
  /// database that owns its records.
  void materialize();

  /// The adopted snapshot backing, or nullptr. Records with index below
  /// snapshot_record_count() can be copied straight from its blob section.
  [[nodiscard]] const SnapshotMapping* snapshot_backing() const noexcept {
    return snap_.get();
  }
  [[nodiscard]] std::size_t snapshot_record_count() const noexcept {
    return snap_count_;
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return snap_count_ + records_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] const ExperienceRecord& record(std::size_t i) const;

  /// Zero-copy view of the flat signature store, stamped with the current
  /// version. Valid until the next mutating call (or destruction).
  [[nodiscard]] SignatureView signature_view() const noexcept;

  /// Current version stamp; changes on every mutation.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// Append-chain identity (see SignatureView::append_base): stable across
  /// pure appends, redrawn on every structural mutation. Process-unique, so
  /// matching a remembered append_base proves the consumer fitted against
  /// *this* database's current chain, not a lookalike version number from
  /// another instance.
  [[nodiscard]] std::uint64_t append_base() const noexcept {
    return append_base_;
  }

  /// Serializes to the versioned text format.
  void save(std::ostream& os) const;
  /// Parses the text format; throws harmony::Error on malformed or
  /// version-incompatible input. Replaces current contents.
  void load(std::istream& is);

  /// Convenience file wrappers; throw on I/O failure.
  void save_file(const std::string& path) const;
  void load_file(const std::string& path);

 private:
  // Thread-safe lazy-decode cache for snapshot-backed records: slot i is
  // null until record(i) first decodes it. The slot array itself is
  // allocated on first use (adopting a snapshot stays O(1)); readers take
  // the acquire fast path, decoders serialize on the mutex.
  struct DecodeCache {
    ~DecodeCache() {
      if (auto* s = slots.load(std::memory_order_relaxed)) {
        for (std::size_t i = 0; i < count; ++i) {
          delete s[i].load(std::memory_order_relaxed);
        }
        delete[] s;
      }
    }
    std::size_t count = 0;
    std::atomic<std::atomic<ExperienceRecord*>*> slots{nullptr};
    std::mutex mu;
  };

  void append_flat(const WorkloadSignature& sig);
  /// Drops all snapshot-borrowing state (load()/assignment reset path).
  void reset_snapshot_state();

  // Records owned by this object. In snapshot-backed mode these are the
  // appended tail: global record i >= snap_count_ lives at
  // records_[i - snap_count_]; records below snap_count_ decode lazily out
  // of the mapping through cache_.
  std::vector<ExperienceRecord> records_;
  // Flat mirror of the owned records' signatures (SoA hot path): the tail
  // extent of signature_view(). Rows below snap_count_ are the head extent
  // and stay in the mapping.
  std::vector<double> sig_data_;
  std::vector<std::size_t> sig_offsets_ = {0};
  std::size_t sig_dims_ = 0;  ///< arity of the first record
  bool sig_mixed_ = false;    ///< records disagree on arity
  std::uint64_t version_ = next_signature_version();
  // Chain identity. append_base_ reuses version stamps (process-unique), so
  // equality against a consumer's remembered value identifies this exact
  // chain. Initialized from version_ (declared above, so in-class
  // initializer order is well-defined).
  std::uint64_t append_base_ = version_;

  std::shared_ptr<const SnapshotMapping> snap_;
  std::size_t snap_count_ = 0;  ///< records served from the mapping
  std::unique_ptr<DecodeCache> cache_;
};

}  // namespace harmony
