// Data analyzer (paper §4.2, Figure 2).
//
// Before tuning starts, the analyzer observes a small number of sample
// requests through a user-supplied characteristics-extraction function,
// averages them into a WorkloadSignature, classifies the signature against
// the data characteristics database, and hands the tuner the matching
// experience for warm start. The classification mechanism is pluggable; the
// paper's current implementation is least-square-error nearest neighbour,
// and k-means / decision-tree classifiers are the drop-in alternatives
// Figure 2 sketches.
//
// Scale design: classifiers are fit-once/classify-many. fit(view) builds
// the model (k-means centroids, the k-d tree, or just a borrowed pointer
// for the brute-force scan) over the database's flat SignatureView;
// classify(observed) then answers queries without touching the database.
// DataAnalyzer refits lazily whenever the database's version stamp moves,
// so a stable database pays the model build exactly once no matter how many
// workloads are classified against it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/history.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace harmony {

/// Runtime switch for the delta-aware classifier maintenance path. Defaults
/// to on; HARMONY_INCREMENTAL_FIT=off|0|false pins every refit to the full
/// rebuild (the oracle the incremental paths are differentially tested
/// against). Resolved lazily from the environment on first query, like
/// HARMONY_SIMD.
[[nodiscard]] bool incremental_fit_enabled() noexcept;
/// Programmatic override (benches, tests); wins over the environment.
void set_incremental_fit(bool enabled) noexcept;

namespace detail {

/// Forward-order partial squared distance over dims [d0, d1), resumed from
/// `acc` — the exact per-row accumulation order every optimized kernel must
/// reproduce bit for bit.
inline double signature_partial_sq(const double* row, const double* q,
                                   std::size_t d0, std::size_t d1,
                                   double acc) {
  for (std::size_t d = d0; d < d1; ++d) {
    const double t = row[d] - q[d];
    acc += t * t;
  }
  return acc;
}

/// Dim-chunk size between early-exit checks: small enough to abandon
/// hopeless rows in long signatures, large enough to amortize the branch.
/// Shared by the scalar and SIMD kernels so their exit cadence matches.
inline constexpr std::size_t kDimChunk = 64;

}  // namespace detail

/// Scalar reference scan: index of the row of `data` (`count` rows of
/// `dims` contiguous doubles) nearest to `query` in squared Euclidean
/// distance; the lowest index wins exact ties. Per-row accumulation is the
/// plain forward loop — the rounding behaviour every optimized kernel must
/// reproduce bit for bit. Requires count >= 1.
[[nodiscard]] std::size_t nearest_signature_scalar(
    const double* data, std::size_t count, std::size_t dims,
    const double* query, double* best_dist_sq = nullptr);

/// Range fold over the level-dispatched kernel: folds rows [first, last)
/// into the running (best_dist_sq, best_index) pair, abandoning a block as
/// soon as every partial sum already exceeds the best distance. Skipped
/// rows never update the pair, so folding disjoint ranges in index order
/// reproduces the full serial scan exactly; a fold of [0, count) from
/// (+inf, 0) is bit-identical to nearest_signature_scalar, tie resolution
/// included. Dispatches on simd_level(): the vector kernels run one row per
/// lane (each lane is that row's entire forward accumulation chain), so
/// every level returns bit-identical results.
void nearest_signature_scan(const double* data, std::size_t dims,
                            std::size_t first, std::size_t last,
                            const double* query, double& best_dist_sq,
                            std::size_t& best_index);

/// Scalar (blocked four-chain) implementation of the range fold.
void nearest_signature_scan_scalar(const double* data, std::size_t dims,
                                   std::size_t first, std::size_t last,
                                   const double* query, double& best_dist_sq,
                                   std::size_t& best_index);

/// Two-extent form: folds rows [first, last) of a uniform-arity view,
/// the head part and then the tail part, carrying the running pair across
/// the split — the same result as the contiguous fold over one array
/// holding every row.
void nearest_signature_scan(const SignatureView& view, std::size_t first,
                            std::size_t last, const double* query,
                            double& best_dist_sq, std::size_t& best_index);

/// Explicit-level range fold (benches and differential tests); kScalar runs
/// the blocked kernel, kAvx2/kAvx512 the in-register-transpose kernels.
/// Falls back to scalar where the requested ISA is not compiled in.
void nearest_signature_scan_level(SimdLevel level, const double* data,
                                  std::size_t dims, std::size_t first,
                                  std::size_t last, const double* query,
                                  double& best_dist_sq,
                                  std::size_t& best_index);

/// True when LeastSquareClassifier::fit would pack a prune sketch for
/// `view` (non-empty, uniform arity wider than the sketch prefix).
[[nodiscard]] bool signature_sketch_applicable(const SignatureView& view);

/// Packs the plane-major prune sketch entries of rows [first, last) of
/// `view` into `out`: kSketchPrefix coordinate planes, then the rest-norm
/// plane, each `stride` (>= last - first) doubles apart, row i landing at
/// offset i - first of every plane. Each entry depends only on its own
/// row, so sketches packed piecewise are bit-identical to one packed whole.
/// This is the exact computation fit() performs — the snapshot writer
/// persists its output so a store opened from disk can hand classifiers a
/// bit-identical borrowed sketch.
void build_signature_sketch(const SignatureView& view, std::size_t first,
                            std::size_t last, double* out,
                            std::size_t stride);

/// Maps an observed signature to the index of the best-matching known
/// signature. fit() builds the model over a flat SignatureView (the view's
/// backing storage must stay alive and unchanged until the next fit);
/// classify() answers queries against the fitted model and throws when the
/// fitted set is empty.
class Classifier {
 public:
  /// How refit() has been resolving staleness: full rebuilds vs delta
  /// updates. Cumulative over the classifier's lifetime.
  struct RefitStats {
    std::uint64_t full = 0;
    std::uint64_t incremental = 0;
  };

  virtual ~Classifier() = default;

  /// Rebuilds the model over `view`. Implementations must record the view's
  /// version via set_fitted().
  virtual void fit(const SignatureView& view) = 0;

  /// Brings the model up to date with `view`, choosing the cheapest sound
  /// path: no-op when the fitted version already matches; the incremental
  /// update() when `view` extends the append chain the model was fitted
  /// against (same append_base, count grew) and the toggle allows it; a
  /// full fit() otherwise — including when update() declines (hysteresis
  /// escalation). This is the only entry point DataAnalyzer uses.
  void refit(const SignatureView& view);

  /// Index (into the fitted view) of the nearest known signature.
  [[nodiscard]] virtual std::size_t classify(
      const WorkloadSignature& observed) const = 0;

  /// Indices of the nearest known signature for each of `queries`, in
  /// query order — element for element what classify() returns for each.
  /// The default runs classify() per query, in parallel over the queries;
  /// a classifier that can share one pass over the fitted set between
  /// queries overrides it. Throws like classify() on any query. The
  /// queries are borrowed by pointer, so a decorator keyed on a query's
  /// address sees the caller's own signature.
  [[nodiscard]] virtual std::vector<std::size_t> classify_batch(
      std::span<const WorkloadSignature* const> queries) const;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Version of the view the model was last fitted against (0 = never).
  [[nodiscard]] std::uint64_t fitted_version() const noexcept {
    return fitted_version_;
  }

  /// Full-vs-incremental refit tally (serving observability; reset by
  /// reset_refit_stats()).
  [[nodiscard]] const RefitStats& refit_stats() const noexcept {
    return stats_;
  }
  void reset_refit_stats() noexcept { stats_ = RefitStats{}; }

 protected:
  /// Absorbs rows [first_new_row, view.count) into the fitted model,
  /// returning true on success. Called only by refit(), and only when the
  /// chain identity proves rows [0, first_new_row) are value-identical to
  /// the fitted ones. Implementations must re-point any retained view at
  /// `view` and must NOT call set_fitted() (refit() does) nor fall back to
  /// fit() themselves — returning false is the escalation signal. The
  /// default declines every delta.
  virtual bool update(const SignatureView& view, std::size_t first_new_row);

  void set_fitted(const SignatureView& view) noexcept {
    fitted_version_ = view.version;
    fitted_chain_ = view.append_base;
    fitted_count_ = view.count;
  }

  /// Row count of the view the model was last fitted against.
  [[nodiscard]] std::size_t fitted_count() const noexcept {
    return fitted_count_;
  }

 private:
  std::uint64_t fitted_version_ = 0;
  // Append-chain identity of the fitted view (SignatureView::append_base).
  // Chain stamps are process-unique, so equality against an incoming view
  // proves the fitted rows are a prefix of the view's rows — a mere
  // version-ordering check would not (stamps interleave across databases).
  std::uint64_t fitted_chain_ = 0;
  std::size_t fitted_count_ = 0;
  RefitStats stats_;
};

/// The paper's mechanism: argmin_j sum_k (c_jk - c_ok)^2, evaluated as a
/// blocked squared-distance kernel over the flat store. Batches whose work
/// (queries x records) reaches kParallelThreshold shard the scan across the
/// global thread pool; the deterministic lowest-index tie-break makes the
/// sharded result bit-identical to the serial scan at every thread count.
///
/// Batched scan: classify_batch() walks the store shard-major — each fixed
/// kShardSize shard is folded for every query while it is cache-resident —
/// and classify() is its one-query case. On the pool, each query's shard 0
/// is folded first and seeds every later shard with the bound
/// nextafter(d0, +inf): a row at distance <= d0 is still a candidate in
/// every shard (its prefix and deflated bound are <= its distance, below
/// the seed), and no other row can be the global winner, so the shards
/// reduce in shard order with strict < to exactly the serial answer.
///
/// Memory-bound scaling: fit() additionally packs a per-row *sketch* — the
/// first kSketchPrefix coordinates verbatim plus the L2 norm of the
/// remaining coordinates. The sketch follows the view's two extents: the
/// head rows' planes are borrowed from the view when it carries them (a
/// snapshot-backed store), so fit() packs only the tail rows. classify()
/// scans the compact sketch array sequentially and only touches a row's
/// full signature when its exact prefix distance plus the
/// triangle-inequality bound on the rest could still beat the running
/// best. Both tests are conservative (the prefix sum is the literal
/// forward prefix of the full accumulation; the norm bound is deflated by
/// a rounding margin), so a skipped row provably cannot win
/// under the strict-< argmin and results stay bit-identical to the scalar
/// reference while the scan reads a fraction of the bytes.
class LeastSquareClassifier final : public Classifier {
 public:
  /// Batch work (queries x records) at which classify_batch() fans out
  /// across the thread pool; for one query, the record count.
  static constexpr std::size_t kParallelThreshold = 8192;
  /// Rows per shard of the parallel scan (fixed, thread-count independent).
  static constexpr std::size_t kShardSize = 8192;
  /// Leading coordinates stored verbatim in the sketch; kSketchPrefix + 1
  /// planes per fitted set (prefix dims, then the norm of the rest).
  static constexpr std::size_t kSketchPrefix = 2;

  void fit(const SignatureView& view) override;
  std::size_t classify(const WorkloadSignature& observed) const override;
  std::vector<std::size_t> classify_batch(
      std::span<const WorkloadSignature* const> queries) const override;
  std::string name() const override { return "least-square"; }

  /// Sketch introspection (differential tests, benches). sketched() says
  /// whether the fitted set is sketched; head_sketch() holds the head
  /// rows' planes at plane stride split (nullptr when the fitted view has
  /// no head rows); tail_sketch() holds the tail rows' planes at plane
  /// stride tail_sketch_stride() >= count - split.
  [[nodiscard]] bool sketched() const noexcept { return sketched_; }
  [[nodiscard]] const double* head_sketch() const noexcept {
    return head_sketch_;
  }
  [[nodiscard]] const double* tail_sketch() const noexcept {
    return tail_sketch_.data();
  }
  [[nodiscard]] std::size_t tail_sketch_stride() const noexcept {
    return tail_stride_;
  }

 protected:
  /// Exact incremental path: re-point the view and pack the new rows'
  /// sketch entries into the tail planes. Per-row sketch values depend only
  /// on their own row, so the result is bit-identical to a fresh fit; never
  /// escalates except when the sketch applicability, arity or split
  /// changed.
  bool update(const SignatureView& view, std::size_t first_new_row) override;

 private:
  /// Folds rows [first, last) through the sketch-pruned scan into the
  /// running (best_dist_sq, best_index) pair, head rows then tail rows;
  /// same fold contract as nearest_signature_scan. `query_rest_norm` is the
  /// L2 norm of the query coordinates past the sketch prefix.
  void pruned_scan(std::size_t first, std::size_t last, const double* query,
                   double query_rest_norm, double& best_dist_sq,
                   std::size_t& best_index) const;

  SignatureView view_{};
  // Plane-major sketch, set when the view has uniform arity wider than the
  // prefix: kSketchPrefix + 1 planes per extent (plane p < kSketchPrefix
  // holds coordinate p of every row; the last holds the rest-norms), so the
  // SIMD prefix filter stays on contiguous loads. The head planes (stride
  // view_.split) are the view's borrowed head_sketch — zero copies on the
  // warm-start path — or head_owned_ when the view carries none. The tail
  // planes are always owned, at a stride >= count - split: update() grows
  // them with headroom so steady-state appends repack only every ~50%
  // growth, and the scan kernels take the stride as a parameter (they never
  // bound-check against it).
  bool sketched_ = false;
  const double* head_sketch_ = nullptr;
  std::vector<double> head_owned_;
  std::vector<double> tail_sketch_;
  std::size_t tail_stride_ = 0;
};

/// Sketch-pruned range fold over a plane-major sketch (the layout
/// LeastSquareClassifier::fit builds: kSketchPrefix coordinate planes of
/// `count` doubles, then the rest-norm plane). Rows whose exact prefix
/// distance, or prefix distance plus the deflated triangle-inequality
/// bound, already reaches the running best are skipped; candidate rows
/// resume the exact forward accumulation from the prefix. Same fold
/// contract as nearest_signature_scan; bit-identical at every level.
void sketch_pruned_scan(const double* data, std::size_t dims,
                        const double* sketch, std::size_t count,
                        std::size_t first, std::size_t last,
                        const double* query, double query_rest_norm,
                        double& best_dist_sq, std::size_t& best_index);
void sketch_pruned_scan_scalar(const double* data, std::size_t dims,
                               const double* sketch, std::size_t count,
                               std::size_t first, std::size_t last,
                               const double* query, double query_rest_norm,
                               double& best_dist_sq, std::size_t& best_index);
void sketch_pruned_scan_level(SimdLevel level, const double* data,
                              std::size_t dims, const double* sketch,
                              std::size_t count, std::size_t first,
                              std::size_t last, const double* query,
                              double query_rest_norm, double& best_dist_sq,
                              std::size_t& best_index);

/// K-means alternative: fit() clusters the known signatures (Lloyd's
/// algorithm, deterministic given the seed) and groups member indices per
/// cluster; classify() finds the nearest centroid, then the nearest member
/// within that cluster. Equivalent to nearest-neighbour when k >= #known;
/// O(k·dims + cluster) lookups instead of a full rebuild per query.
class KMeansClassifier final : public Classifier {
 public:
  explicit KMeansClassifier(std::size_t k, std::uint64_t seed = 42,
                            int max_iterations = 50);
  void fit(const SignatureView& view) override;
  std::size_t classify(const WorkloadSignature& observed) const override;
  std::string name() const override { return "k-means"; }

 protected:
  /// Quality-gated incremental path: assign the new points to their nearest
  /// centroids, then run a bounded restricted Lloyd's pass over the touched
  /// clusters only. Declines (→ full refit) on drift/imbalance hysteresis:
  /// too many rows assigned or moved since the last full fit, or a touched
  /// cluster ballooning past 8x the mean size. Deterministic, but NOT
  /// guaranteed identical to a fresh fit — HARMONY_INCREMENTAL_FIT=off is
  /// the exact-oracle escape hatch.
  bool update(const SignatureView& view, std::size_t first_new_row) override;

 private:
  void rebuild_cluster_csr(std::size_t n);

  std::size_t k_;
  std::uint64_t seed_;
  int max_iterations_;

  SignatureView view_{};
  std::size_t k_eff_ = 0;
  std::vector<double> centroids_;            // k_eff_ * dims
  std::vector<std::size_t> cluster_begin_;   // k_eff_ + 1 CSR offsets
  std::vector<std::size_t> cluster_members_; // record indices, ascending
  std::vector<std::size_t> assignment_;      // row -> cluster, kept by fit()
  // Rows absorbed incrementally since the last full Lloyd's fit; once this
  // exceeds a quarter of the fitted set the next refit escalates (the
  // centroids were optimized for a set that has since drifted).
  std::size_t pending_since_full_ = 0;
};

/// Decision-tree alternative (Figure 2 lists it next to k-means): a k-d
/// style axis-aligned tree over the known signatures — split on the
/// dimension with the largest spread at its median until leaves hold at
/// most `leaf_size` signatures — with nearest-neighbour resolution inside
/// the reached leaf plus a bounded backtrack, exact for the Euclidean
/// metric. fit() builds the tree once; classify() is a logarithmic descent.
class DecisionTreeClassifier final : public Classifier {
 public:
  explicit DecisionTreeClassifier(std::size_t leaf_size = 4);
  void fit(const SignatureView& view) override;
  std::size_t classify(const WorkloadSignature& observed) const override;
  std::string name() const override { return "decision-tree"; }

 protected:
  /// Exact incremental path with scapegoat-style hysteresis: each new row
  /// descends to its leaf (the same left/right rule search() uses, so the
  /// inserted row is always findable) and lands in the leaf's slack slots;
  /// a full leaf is rebuilt in place as a fresh subtree, leaving its old
  /// nodes and member slots as tracked waste. Declines (→ full rebuild)
  /// when the waste exceeds the live set or an insert descends past
  /// 2·log2(n) + 8 levels — the classic scapegoat balance bound.
  bool update(const SignatureView& view, std::size_t first_new_row) override;

 private:
  struct Node {
    // split
    std::size_t dim = 0;
    double threshold = 0.0;
    int left = -1;  // node indices; -1 means none
    int right = -1;
    // leaf: slice of members_; [members_end, members_cap) is unused slack
    // reserved for incremental inserts
    std::uint32_t members_begin = 0;
    std::uint32_t members_end = 0;
    std::uint32_t members_cap = 0;
    [[nodiscard]] bool is_leaf() const noexcept { return left < 0; }
  };

  int build(std::vector<std::size_t> members, std::size_t dims);
  void search(int idx, const double* q, std::size_t& best,
              double& best_d) const;
  /// Descends from the root and inserts row i; returns false when the
  /// scapegoat hysteresis says the tree has degraded enough to rebuild.
  bool insert(std::size_t i);

  std::size_t leaf_size_;
  SignatureView view_{};
  std::vector<Node> nodes_;
  std::vector<std::size_t> members_;  // leaf member pool (with leaf slack)
  int root_ = -1;
  // Scapegoat bookkeeping: member slots + nodes orphaned by leaf-split
  // grafts since the last full build. Compared against the live count to
  // decide when the pools deserve a compacting rebuild.
  std::size_t waste_slots_ = 0;
};

/// Front door combining characterization and retrieval. Lazily refits its
/// classifier whenever the database's version stamp changes, so repeated
/// classifications against a stable database reuse the built model. Not
/// safe for concurrent classify() calls on a shared instance (the lazy
/// refit mutates the classifier); give each thread its own analyzer.
class DataAnalyzer {
 public:
  /// Uses the paper's least-square classifier by default.
  DataAnalyzer();
  explicit DataAnalyzer(std::shared_ptr<Classifier> classifier);

  /// Observes `samples` requests via the user-supplied extraction function
  /// and averages the resulting characteristic vectors into a signature
  /// (all samples must have equal arity).
  [[nodiscard]] static WorkloadSignature characterize(
      const std::function<WorkloadSignature()>& sample_request,
      int samples);

  /// Refits the classifier if the database's version stamp moved since the
  /// last fit (no-op otherwise, and for an empty database or one that mixes
  /// signature arities, against which every query is rejected). When the
  /// database merely appended records since the last fit (same append
  /// chain), the classifier absorbs just the new rows instead of rebuilding
  /// — steady-state serving ingest costs O(batch), not O(db). Call once
  /// before issuing classify() from several threads against a stable
  /// database: with the model already fitted, those calls are pure reads of
  /// the fitted state and therefore safe to run concurrently. The serving
  /// batch executor (execute_batch, core/server.hpp) fits once per batch;
  /// retrieve_batch() calls it itself.
  void ensure_fitted(const HistoryDatabase& db) const;

  /// Full-vs-incremental refit tally of the underlying classifier.
  [[nodiscard]] const Classifier::RefitStats& refit_stats() const noexcept {
    return classifier_->refit_stats();
  }

  /// The underlying classifier (copies of a DataAnalyzer share it, and with
  /// it one fitted model).
  [[nodiscard]] const std::shared_ptr<Classifier>& classifier()
      const noexcept {
    return classifier_;
  }

  /// Index of the best-matching experience, or nullopt when the database is
  /// empty (the paper's "never seen before" case — tune from scratch).
  /// Throws Error for a signature with a non-finite value (even against an
  /// empty database) or an arity the database's history does not share.
  [[nodiscard]] std::optional<std::size_t> classify(
      const HistoryDatabase& db, const WorkloadSignature& observed) const;

  /// Outcome of one query of retrieve_batch().
  struct Retrieval {
    /// The matching experience; nullptr when the database is empty or the
    /// query was rejected.
    const ExperienceRecord* record = nullptr;
    /// Why the query was rejected (what classify() would have thrown);
    /// empty when it was accepted.
    std::string error;
  };

  /// The matching experience record of every query, classified in one
  /// Classifier::classify_batch call (after one ensure_fitted) exactly as
  /// classify() would one by one. A rejected query only marks its own
  /// entry; a null query is skipped. Against an empty database the first
  /// accepted query fixes the batch's arity, and a later query of another
  /// arity is rejected as a signature arity mismatch.
  [[nodiscard]] std::vector<Retrieval> retrieve_batch(
      const HistoryDatabase& db,
      std::span<const WorkloadSignature* const> queries) const;

 private:
  std::shared_ptr<Classifier> classifier_;
};

}  // namespace harmony
