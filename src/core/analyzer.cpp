#include "core/analyzer.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>

#include "linalg/simd_kernels.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace harmony {

namespace {

// -1 = unresolved, 0 = off, 1 = on. Same lazy-env idiom as the SIMD level:
// first query reads HARMONY_INCREMENTAL_FIT, set_incremental_fit overrides.
std::atomic<int> g_incremental_fit{-1};

}  // namespace

bool incremental_fit_enabled() noexcept {
  int v = g_incremental_fit.load(std::memory_order_relaxed);
  if (v < 0) {
    v = 1;
    if (const char* env = std::getenv("HARMONY_INCREMENTAL_FIT")) {
      if (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0 ||
          std::strcmp(env, "false") == 0) {
        v = 0;
      }
    }
    g_incremental_fit.store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

void set_incremental_fit(bool enabled) noexcept {
  g_incremental_fit.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

namespace {

/// Local shorthand for the shared forward-order accumulation primitive
/// (analyzer.hpp detail) — the exact order of signature_distance_sq.
inline double row_partial(const double* row, const double* q, std::size_t d0,
                          std::size_t d1, double acc) {
  return detail::signature_partial_sq(row, q, d0, d1, acc);
}

using detail::kDimChunk;

/// "No row" index sentinel for folds that start without a candidate.
constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);

/// Folds rows [first, last) of a two-extent row set (head rows below
/// `split`, tail rows from it) into a running best index: `head(lo, hi,
/// best)` folds head rows, whose indices are global; `tail(lo, hi, best)`
/// folds tail-local rows, and a tail winner is mapped back to its global
/// index. The fold callables carry the running distance themselves, so the
/// pair crosses the split intact — head range then tail range in row order
/// is exactly one fold over [first, last).
template <typename HeadFold, typename TailFold>
void fold_extents(std::size_t split, std::size_t first, std::size_t last,
                  std::size_t& best_index, HeadFold&& head, TailFold&& tail) {
  if (first < split) head(first, std::min(last, split), best_index);
  if (last > split) {
    std::size_t local = kNoRow;
    tail(std::max(first, split) - split, last - split, local);
    if (local != kNoRow) best_index = split + local;
  }
}

}  // namespace

std::size_t nearest_signature_scalar(const double* data, std::size_t count,
                                     std::size_t dims, const double* query,
                                     double* best_dist_sq) {
  HARMONY_REQUIRE(count > 0, "classify against empty signature set");
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < count; ++i) {
    const double d = row_partial(data + i * dims, query, 0, dims, 0.0);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  if (best_dist_sq != nullptr) *best_dist_sq = best_d;
  return best;
}

void nearest_signature_scan_scalar(const double* data, std::size_t dims,
                                   std::size_t first, std::size_t last,
                                   const double* query, double& best_dist_sq,
                                   std::size_t& best_index) {
  std::size_t i = first;
  for (; i + 4 <= last; i += 4) {
    const double* r0 = data + i * dims;
    const double* r1 = r0 + dims;
    const double* r2 = r1 + dims;
    const double* r3 = r2 + dims;
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    std::size_t d = 0;
    bool alive = true;
    for (; d + kDimChunk <= dims; d += kDimChunk) {
      const std::size_t d1 = d + kDimChunk;
      a0 = row_partial(r0, query, d, d1, a0);
      a1 = row_partial(r1, query, d, d1, a1);
      a2 = row_partial(r2, query, d, d1, a2);
      a3 = row_partial(r3, query, d, d1, a3);
      // Partial sums are monotone (nonnegative terms): once every row of
      // the block is at or above the running best it cannot win, and with
      // the strict-< update it could not even tie its way in.
      if (a0 >= best_dist_sq && a1 >= best_dist_sq && a2 >= best_dist_sq &&
          a3 >= best_dist_sq) {
        alive = false;
        break;
      }
    }
    if (!alive) continue;
    a0 = row_partial(r0, query, d, dims, a0);
    a1 = row_partial(r1, query, d, dims, a1);
    a2 = row_partial(r2, query, d, dims, a2);
    a3 = row_partial(r3, query, d, dims, a3);
    // Index order, strict <: the lowest index wins exact ties, matching the
    // scalar reference.
    if (a0 < best_dist_sq) { best_dist_sq = a0; best_index = i; }
    if (a1 < best_dist_sq) { best_dist_sq = a1; best_index = i + 1; }
    if (a2 < best_dist_sq) { best_dist_sq = a2; best_index = i + 2; }
    if (a3 < best_dist_sq) { best_dist_sq = a3; best_index = i + 3; }
  }
  for (; i < last; ++i) {
    const double* row = data + i * dims;
    double acc = 0.0;
    std::size_t d = 0;
    bool alive = true;
    for (; d + kDimChunk <= dims; d += kDimChunk) {
      acc = row_partial(row, query, d, d + kDimChunk, acc);
      if (acc >= best_dist_sq) {
        alive = false;
        break;
      }
    }
    if (!alive) continue;
    acc = row_partial(row, query, d, dims, acc);
    if (acc < best_dist_sq) {
      best_dist_sq = acc;
      best_index = i;
    }
  }
}

std::size_t nearest_signature_blocked(const double* data, std::size_t count,
                                      std::size_t dims, const double* query,
                                      double* best_dist_sq) {
  HARMONY_REQUIRE(count > 0, "classify against empty signature set");
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  nearest_signature_scan(data, dims, 0, count, query, best_d, best);
  if (best_dist_sq != nullptr) *best_dist_sq = best_d;
  return best;
}

void nearest_signature_scan(const SignatureView& view, std::size_t first,
                            std::size_t last, const double* query,
                            double& best_dist_sq, std::size_t& best_index) {
  const std::size_t dims = view.dims;
  fold_extents(
      view.split, first, last, best_index,
      [&](std::size_t lo, std::size_t hi, std::size_t& best) {
        nearest_signature_scan(view.head_data, dims, lo, hi, query,
                               best_dist_sq, best);
      },
      [&](std::size_t lo, std::size_t hi, std::size_t& best) {
        nearest_signature_scan(view.tail_data, dims, lo, hi, query,
                               best_dist_sq, best);
      });
}

bool Classifier::update(const SignatureView& /*view*/,
                        std::size_t /*first_new_row*/) {
  return false;  // no incremental path: always escalate to fit()
}

std::vector<std::size_t> Classifier::classify_batch(
    std::span<const WorkloadSignature* const> queries) const {
  std::vector<std::size_t> out(queries.size());
  parallel_for(queries.size(),
               [&](std::size_t q) { out[q] = classify(*queries[q]); });
  return out;
}

void Classifier::refit(const SignatureView& view) {
  if (fitted_version_ == view.version) return;
  // The delta path is sound only when the incoming view provably extends
  // the chain this model was fitted on: same process-unique append_base
  // (so rows [0, fitted_count_) are value-identical to the fitted ones)
  // and a count that did not shrink. append_base 0 marks ad-hoc views that
  // never qualify.
  const bool delta_ok = incremental_fit_enabled() && fitted_version_ != 0 &&
                        fitted_count_ > 0 && view.append_base != 0 &&
                        fitted_chain_ == view.append_base &&
                        view.count >= fitted_count_;
  if (delta_ok && update(view, fitted_count_)) {
    set_fitted(view);
    ++stats_.incremental;
    return;
  }
  fit(view);
  ++stats_.full;
}

std::size_t Classifier::classify(const WorkloadSignature& observed,
                                 const std::vector<WorkloadSignature>& known) {
  HARMONY_REQUIRE(!known.empty(), "classify against empty signature set");
  compat_data_.clear();
  compat_offsets_.clear();
  compat_offsets_.reserve(known.size() + 1);
  compat_offsets_.push_back(0);
  const std::size_t dims = known.front().size();
  bool mixed = false;
  for (const auto& s : known) {
    if (s.size() != dims) mixed = true;
    compat_data_.insert(compat_data_.end(), s.begin(), s.end());
    compat_offsets_.push_back(compat_data_.size());
  }
  SignatureView view;
  view.tail_data = compat_data_.data();
  view.tail_offsets = compat_offsets_.data();
  view.count = known.size();
  view.dims = mixed ? SignatureView::kMixedDims : dims;
  view.version = next_signature_version();
  fit(view);
  return classify(observed);
}

// --------------------------------------------------------------------------
// Least-square (brute force over the flat store)

bool signature_sketch_applicable(const SignatureView& view) {
  // Rows must be wide enough for the bound to pay for itself.
  return !view.empty() && view.dims != SignatureView::kMixedDims &&
         view.dims > LeastSquareClassifier::kSketchPrefix + 1;
}

void build_signature_sketch(const SignatureView& view, std::size_t first,
                            std::size_t last, double* out,
                            std::size_t stride) {
  constexpr std::size_t kPrefix = LeastSquareClassifier::kSketchPrefix;
  const std::size_t dims = view.dims;
  // Plane-major: coordinate planes first, rest-norm plane last, so the
  // SIMD prefix filter reads contiguous runs of rows per plane.
  for (std::size_t i = first; i < last; ++i) {
    const double* row = view.row(i);
    const std::size_t j = i - first;
    for (std::size_t d = 0; d < kPrefix; ++d) {
      out[d * stride + j] = row[d];
    }
    double rest = 0.0;
    for (std::size_t d = kPrefix; d < dims; ++d) {
      rest += row[d] * row[d];
    }
    out[kPrefix * stride + j] = std::sqrt(rest);
  }
}

void LeastSquareClassifier::fit(const SignatureView& view) {
  constexpr std::size_t kPlanes = kSketchPrefix + 1;
  view_ = view;
  sketched_ = signature_sketch_applicable(view);
  head_sketch_ = nullptr;
  head_owned_.clear();
  tail_sketch_.clear();
  tail_stride_ = 0;
  if (sketched_) {
    const std::size_t split = view.split;
    if (view.head_sketch != nullptr) {
      // Snapshot-backed store: borrow the persisted head planes
      // (bit-identical to what build_signature_sketch packs from the same
      // rows), so the fit costs O(tail rows).
      head_sketch_ = view.head_sketch;
    } else if (split > 0) {
      head_owned_.resize(split * kPlanes);
      build_signature_sketch(view, 0, split, head_owned_.data(), split);
      head_sketch_ = head_owned_.data();
    }
    tail_stride_ = view.count - split;
    tail_sketch_.resize(tail_stride_ * kPlanes);
    build_signature_sketch(view, split, view.count, tail_sketch_.data(),
                           tail_stride_);
  }
  set_fitted(view);
}

bool LeastSquareClassifier::update(const SignatureView& view,
                                   std::size_t first_new_row) {
  // Shape changes (sketched <-> unsketched, arity drift into mixed, a moved
  // head extent) mean the model the full fit would build differs
  // structurally — escalate.
  if (signature_sketch_applicable(view) != sketched_ ||
      view.split != view_.split) {
    return false;
  }
  if (!sketched_) {
    // Unsketched set (narrow or mixed arity): the model is just the view.
    view_ = view;
    return true;
  }
  if (view.dims != view_.dims) return false;
  constexpr std::size_t kPlanes = kSketchPrefix + 1;
  const std::size_t split = view.split;
  const std::size_t old_tail = first_new_row - split;
  const std::size_t new_tail = view.count - split;
  if (new_tail > tail_stride_) {
    // Repack the tail planes with ~50% headroom so a steady append stream
    // moves them only every few thousand rows. The old planes are read at
    // the old stride before the storage swap.
    const std::size_t stride = new_tail + new_tail / 2 + 64;
    std::vector<double> grown(stride * kPlanes);
    for (std::size_t p = 0; p < kPlanes; ++p) {
      const double* src = tail_sketch_.data() + p * tail_stride_;
      std::copy(src, src + old_tail,
                grown.begin() + static_cast<long>(p * stride));
    }
    tail_sketch_ = std::move(grown);
    tail_stride_ = stride;
  }
  // Each entry depends only on its own row, so the grown sketch is
  // bit-identical to the one a fresh fit builds.
  build_signature_sketch(view, first_new_row, view.count,
                         tail_sketch_.data() + old_tail, tail_stride_);
  view_ = view;
  return true;
}

void sketch_pruned_scan_scalar(const double* data, std::size_t dims,
                               const double* sketch, std::size_t count,
                               std::size_t first, std::size_t last,
                               const double* query, double query_rest_norm,
                               double& best_dist_sq,
                               std::size_t& best_index) {
  constexpr std::size_t kPrefix = LeastSquareClassifier::kSketchPrefix;
  const double* norms = sketch + kPrefix * count;
  for (std::size_t i = first; i < last; ++i) {
    // Exact forward prefix of the full accumulation: monotone partial sum,
    // so acc >= best can never be the winner (strict-< argmin).
    double acc = 0.0;
    for (std::size_t d = 0; d < kPrefix; ++d) {
      const double t = sketch[d * count + i] - query[d];
      acc += t * t;
    }
    if (acc >= best_dist_sq) continue;
    // Triangle inequality on the remaining coordinates:
    //   sum_{d>=P} (r_d - q_d)^2 >= (|r_rest| - |q_rest|)^2.
    // The deflation absorbs the few-ulp rounding of the two sqrt'd norms so
    // the computed bound never overshoots the true distance — skipping stays
    // provably safe.
    const double lb = norms[i] - query_rest_norm;
    if (acc + lb * lb * (1.0 - 1e-9) >= best_dist_sq) continue;
    // Candidate row: resume the exact forward accumulation from the prefix
    // (same values, same operation order as the scalar reference).
    const double d =
        row_partial(data + i * dims, query, kPrefix, dims, acc);
    if (d < best_dist_sq) {
      best_dist_sq = d;
      best_index = i;
    }
  }
}

void LeastSquareClassifier::pruned_scan(std::size_t first, std::size_t last,
                                        const double* query,
                                        double query_rest_norm,
                                        double& best_dist_sq,
                                        std::size_t& best_index) const {
  // The kernels take each extent's plane stride where the original layout
  // passed the row count: split for the head, the (headroom-grown) tail
  // stride for the tail.
  const std::size_t dims = view_.dims;
  fold_extents(
      view_.split, first, last, best_index,
      [&](std::size_t lo, std::size_t hi, std::size_t& best) {
        sketch_pruned_scan(view_.head_data, dims, head_sketch_, view_.split,
                           lo, hi, query, query_rest_norm, best_dist_sq,
                           best);
      },
      [&](std::size_t lo, std::size_t hi, std::size_t& best) {
        sketch_pruned_scan(view_.tail_data, dims, tail_sketch_.data(),
                           tail_stride_, lo, hi, query, query_rest_norm,
                           best_dist_sq, best);
      });
}

std::size_t LeastSquareClassifier::classify(
    const WorkloadSignature& observed) const {
  const WorkloadSignature* query = &observed;
  return classify_batch({&query, 1}).front();
}

std::vector<std::size_t> LeastSquareClassifier::classify_batch(
    std::span<const WorkloadSignature* const> queries) const {
  HARMONY_REQUIRE(!view_.empty(), "classify against empty signature set");
  const std::size_t nq = queries.size();
  const std::size_t count = view_.count;
  const std::size_t dims = view_.dims;
  std::vector<double> rest_norms(nq, 0.0);
  for (std::size_t q = 0; q < nq; ++q) {
    HARMONY_REQUIRE(dims != SignatureView::kMixedDims &&
                        queries[q]->size() == dims,
                    "signature arity mismatch");
    if (sketched_) {
      const double* x = queries[q]->data();
      double rest = 0.0;
      for (std::size_t d = kSketchPrefix; d < dims; ++d) rest += x[d] * x[d];
      rest_norms[q] = std::sqrt(rest);
    }
  }
  // Folds rows [lo, hi) for query q into a running (distance, index) pair.
  const auto fold = [&](std::size_t q, std::size_t lo, std::size_t hi,
                        double& best_d, std::size_t& best_i) {
    const double* x = queries[q]->data();
    if (!sketched_) {
      nearest_signature_scan(view_, lo, hi, x, best_d, best_i);
    } else {
      pruned_scan(lo, hi, x, rest_norms[q], best_d, best_i);
    }
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> best_d(nq, kInf);
  std::vector<std::size_t> best_i(nq, 0);
  const std::size_t n_shards = (count + kShardSize - 1) / kShardSize;
  // Fan out once the batch's work (queries x rows) reaches the threshold:
  // a large set for one query, or many queries against a small one.
  if (thread_count() <= 1 || nq * count < kParallelThreshold) {
    // The serial running-best scan, walked shard-major so a batch reads
    // each shard once while it is cache-resident. Folding the shards in
    // index order into one running pair per query is exactly one scan of
    // [0, count).
    for (std::size_t s = 0; s < n_shards; ++s) {
      const std::size_t lo = s * kShardSize;
      const std::size_t hi = std::min(count, lo + kShardSize);
      for (std::size_t q = 0; q < nq; ++q) {
        fold(q, lo, hi, best_d[q], best_i[q]);
      }
    }
    return best_i;
  }

  // Sharded scan: fixed-size shards (independent of the thread count; a
  // shard straddling the head/tail split folds as two row ranges), each
  // folded for every query into its own (distance, index) slot, then
  // reduced in shard order with a strict < — the same lowest index the
  // serial scan finds, at any HARMONY_THREADS setting. Shard 0 goes first,
  // in parallel over the queries (for a set of one shard that is all
  // there is): its best d0 seeds every later shard with nextafter(d0,
  // +inf), so those shards only verify rows that could still tie or beat
  // it. A row at distance d <= d0 stays a candidate everywhere (its exact
  // prefix and deflated bound are <= d, below the seed), and only such
  // rows can win.
  const std::size_t hi0 = std::min(count, kShardSize);
  parallel_for(nq, [&](std::size_t q) {
    fold(q, 0, hi0, best_d[q], best_i[q]);
  });
  std::vector<double> seeds(nq);
  for (std::size_t q = 0; q < nq; ++q) {
    seeds[q] = std::nextafter(best_d[q], kInf);
  }
  const std::size_t later = n_shards - 1;
  std::vector<double> slot_d(later * nq);
  std::vector<std::size_t> slot_i(later * nq);
  parallel_for(later, [&](std::size_t k) {
    const std::size_t lo = (k + 1) * kShardSize;
    const std::size_t hi = std::min(count, lo + kShardSize);
    for (std::size_t q = 0; q < nq; ++q) {
      double d = seeds[q];
      std::size_t idx = kNoRow;
      fold(q, lo, hi, d, idx);
      slot_d[k * nq + q] = d;
      slot_i[k * nq + q] = idx;
    }
  });
  for (std::size_t q = 0; q < nq; ++q) {
    for (std::size_t k = 0; k < later; ++k) {
      const std::size_t slot = k * nq + q;
      if (slot_i[slot] != kNoRow && slot_d[slot] < best_d[q]) {
        best_d[q] = slot_d[slot];
        best_i[q] = slot_i[slot];
      }
    }
  }
  return best_i;
}

// --------------------------------------------------------------------------
// K-means

KMeansClassifier::KMeansClassifier(std::size_t k, std::uint64_t seed,
                                   int max_iterations)
    : k_(k), seed_(seed), max_iterations_(max_iterations) {
  HARMONY_REQUIRE(k_ > 0, "k-means needs k >= 1");
  HARMONY_REQUIRE(max_iterations_ > 0, "k-means needs iterations >= 1");
}

void KMeansClassifier::fit(const SignatureView& view) {
  view_ = view;
  centroids_.clear();
  cluster_begin_.clear();
  cluster_members_.clear();
  assignment_.clear();
  pending_since_full_ = 0;
  k_eff_ = 0;
  if (view.empty()) {
    set_fitted(view);
    return;
  }
  HARMONY_REQUIRE(view.dims != SignatureView::kMixedDims,
                  "signature arity mismatch");
  const std::size_t dims = view.dims;
  const std::size_t n = view.count;
  const std::size_t k = std::min(k_, n);
  k_eff_ = k;

  // Deterministic seeding: k distinct members chosen by shuffled index.
  Rng rng(seed_);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  centroids_.resize(k * dims);
  for (std::size_t i = 0; i < k; ++i) {
    const double* row = view.row(order[i]);
    std::copy(row, row + dims, centroids_.begin() + static_cast<long>(i * dims));
  }

  assignment_.assign(n, 0);
  std::vector<double> sums(k * dims);
  std::vector<std::size_t> counts(k);
  for (int iter = 0; iter < max_iterations_; ++iter) {
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      const double* row = view.row(i);
      std::size_t best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      // Nearest centroid via the dispatched scan with the row as the query:
      // (c_d - r_d)^2 and (r_d - c_d)^2 are the same IEEE double, so the
      // distances — and the strict-< lowest-index argmin — are bit-identical
      // to the direct loop at every SIMD level.
      nearest_signature_scan(centroids_.data(), dims, 0, k, row, best_d,
                             best);
      if (assignment_[i] != best) {
        assignment_[i] = best;
        changed = true;
      }
    }
    if (!changed && iter > 0) break;
    // Recompute centroids; empty clusters keep their previous position.
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), std::size_t{0});
    for (std::size_t i = 0; i < n; ++i) {
      const double* row = view.row(i);
      // Element-wise adds: each coordinate is its own chain, so the
      // vectorized accumulation rounds identically to the scalar loop.
      linalg::vec_add_inplace(sums.data() + assignment_[i] * dims, row, dims);
      ++counts[assignment_[i]];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;
      for (std::size_t d = 0; d < dims; ++d) {
        centroids_[c * dims + d] =
            sums[c * dims + d] / static_cast<double>(counts[c]);
      }
    }
  }

  rebuild_cluster_csr(n);
  set_fitted(view);
}

void KMeansClassifier::rebuild_cluster_csr(std::size_t n) {
  // CSR member lists, ascending within each cluster so the within-cluster
  // scan resolves ties toward the lowest record index.
  cluster_begin_.assign(k_eff_ + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++cluster_begin_[assignment_[i] + 1];
  for (std::size_t c = 0; c < k_eff_; ++c) {
    cluster_begin_[c + 1] += cluster_begin_[c];
  }
  cluster_members_.resize(n);
  std::vector<std::size_t> cursor(cluster_begin_.begin(),
                                  cluster_begin_.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    cluster_members_[cursor[assignment_[i]]++] = i;
  }
}

bool KMeansClassifier::update(const SignatureView& view,
                              std::size_t first_new_row) {
  const std::size_t n = view.count;
  if (k_eff_ == 0 || view.dims == SignatureView::kMixedDims ||
      view.dims != view_.dims) {
    return false;
  }
  // Fewer fitted centroids than a full fit would now use: let it widen.
  if (k_eff_ < std::min(k_, n)) return false;
  const std::size_t new_rows = n - first_new_row;
  // Drift hysteresis: once a quarter of the set arrived after the last
  // full Lloyd's run, the centroids were optimized for a set that no
  // longer exists — escalate before quality erodes further.
  if ((pending_since_full_ + new_rows) * 4 > n) return false;

  const std::size_t dims = view.dims;
  view_ = view;
  assignment_.resize(n);
  std::vector<char> touched(k_eff_, 0);
  for (std::size_t i = first_new_row; i < n; ++i) {
    const double* row = view.row(i);
    std::size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    nearest_signature_scan(centroids_.data(), dims, 0, k_eff_, row, best_d,
                           best);
    assignment_[i] = best;
    touched[best] = 1;
  }

  // Restricted Lloyd's: recompute only the touched centroids from their
  // members, then let only members of touched clusters reconsider their
  // assignment (against all centroids — a move extends the touched set).
  // The bounded iteration count keeps the worst case O(iters · n) scans of
  // cheap membership checks plus work proportional to the touched mass.
  std::vector<double> sums(k_eff_ * dims);
  std::vector<std::size_t> counts(k_eff_);
  std::size_t moved_total = 0;
  const int iters = std::min(max_iterations_, 4);
  for (int iter = 0; iter < iters; ++iter) {
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), std::size_t{0});
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t c = assignment_[i];
      if (!touched[c]) continue;
      linalg::vec_add_inplace(sums.data() + c * dims, view.row(i), dims);
      ++counts[c];
    }
    for (std::size_t c = 0; c < k_eff_; ++c) {
      if (!touched[c] || counts[c] == 0) continue;
      for (std::size_t d = 0; d < dims; ++d) {
        centroids_[c * dims + d] =
            sums[c * dims + d] / static_cast<double>(counts[c]);
      }
    }
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (!touched[assignment_[i]]) continue;
      const double* row = view.row(i);
      std::size_t best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      nearest_signature_scan(centroids_.data(), dims, 0, k_eff_, row, best_d,
                             best);
      if (best != assignment_[i]) {
        assignment_[i] = best;
        touched[best] = 1;
        changed = true;
        ++moved_total;
      }
    }
    if (!changed) break;
  }

  // Post-hoc hysteresis — safe because the fallback fit() rebuilds from
  // scratch: heavy churn means the local repair is chasing a moving target,
  // and a ballooned touched cluster would degrade classify() toward a full
  // scan.
  if ((new_rows + moved_total) * 8 > n) return false;
  rebuild_cluster_csr(n);
  const std::size_t mean_size = n / k_eff_ + 1;
  for (std::size_t c = 0; c < k_eff_; ++c) {
    if (!touched[c]) continue;
    if (cluster_begin_[c + 1] - cluster_begin_[c] > 8 * mean_size) {
      return false;
    }
  }
  pending_since_full_ += new_rows;
  return true;
}

std::size_t KMeansClassifier::classify(
    const WorkloadSignature& observed) const {
  HARMONY_REQUIRE(!view_.empty(), "classify against empty signature set");
  HARMONY_REQUIRE(observed.size() == view_.dims, "signature arity mismatch");
  const std::size_t dims = view_.dims;
  const double* q = observed.data();

  // Nearest centroid to the observation, then nearest member within it.
  std::size_t best_c = 0;
  double best_d = std::numeric_limits<double>::infinity();
  nearest_signature_scan(centroids_.data(), dims, 0, k_eff_, q, best_d,
                         best_c);
  const std::size_t lo = cluster_begin_[best_c];
  const std::size_t hi = cluster_begin_[best_c + 1];
  if (lo == hi) {
    // Chosen centroid ended up empty (possible with degenerate seeds):
    // fall back to global nearest neighbour.
    std::size_t best = 0;
    best_d = std::numeric_limits<double>::infinity();
    nearest_signature_scan(view_, 0, view_.count, q, best_d, best);
    return best;
  }
  std::size_t best_member = view_.count;
  best_d = std::numeric_limits<double>::infinity();
  for (std::size_t m = lo; m < hi; ++m) {
    const std::size_t i = cluster_members_[m];
    const double d = row_partial(view_.row(i), q, 0, dims, 0.0);
    if (d < best_d) {
      best_d = d;
      best_member = i;
    }
  }
  return best_member;
}

// --------------------------------------------------------------------------
// Decision tree (k-d tree over the flat store)

DecisionTreeClassifier::DecisionTreeClassifier(std::size_t leaf_size)
    : leaf_size_(leaf_size) {
  HARMONY_REQUIRE(leaf_size_ >= 1, "leaf size must be >= 1");
}

int DecisionTreeClassifier::build(std::vector<std::size_t> members,
                                  std::size_t dims) {
  Node node;
  const auto make_leaf = [&](std::vector<std::size_t> leaf_members) {
    node.members_begin = static_cast<std::uint32_t>(members_.size());
    members_.insert(members_.end(), leaf_members.begin(), leaf_members.end());
    node.members_end = static_cast<std::uint32_t>(members_.size());
    // Slack slots for incremental inserts: a new row landing in this leaf
    // takes a slot in place instead of forcing a subtree rebuild.
    members_.insert(members_.end(), leaf_size_, static_cast<std::size_t>(-1));
    node.members_cap = static_cast<std::uint32_t>(members_.size());
    nodes_.push_back(node);
    return static_cast<int>(nodes_.size()) - 1;
  };
  if (members.size() <= leaf_size_) return make_leaf(std::move(members));

  // Split on the dimension with the largest spread, at its median.
  std::size_t best_dim = 0;
  double best_spread = -1.0;
  for (std::size_t d = 0; d < dims; ++d) {
    double lo = view_.row(members[0])[d], hi = lo;
    for (std::size_t m : members) {
      const double v = view_.row(m)[d];
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    if (hi - lo > best_spread) {
      best_spread = hi - lo;
      best_dim = d;
    }
  }
  if (best_spread <= 0.0) {  // all identical: cannot split
    return make_leaf(std::move(members));
  }
  std::sort(members.begin(), members.end(),
            [&](std::size_t a, std::size_t b) {
              return view_.row(a)[best_dim] < view_.row(b)[best_dim];
            });
  const std::size_t mid = members.size() / 2;
  node.dim = best_dim;
  node.threshold = view_.row(members[mid])[best_dim];
  std::vector<std::size_t> left(members.begin(),
                                members.begin() + static_cast<long>(mid));
  std::vector<std::size_t> right(members.begin() + static_cast<long>(mid),
                                 members.end());
  if (left.empty()) {  // degenerate median (many equal values)
    return make_leaf(std::move(right));
  }
  const int self = static_cast<int>(nodes_.size());
  nodes_.push_back(node);
  const int l = build(std::move(left), dims);
  const int r = build(std::move(right), dims);
  nodes_[static_cast<std::size_t>(self)].left = l;
  nodes_[static_cast<std::size_t>(self)].right = r;
  return self;
}

void DecisionTreeClassifier::search(int idx, const double* q,
                                    std::size_t& best, double& best_d) const {
  const Node& node = nodes_[static_cast<std::size_t>(idx)];
  if (node.is_leaf()) {
    for (std::uint32_t m = node.members_begin; m < node.members_end; ++m) {
      const std::size_t i = members_[m];
      const double d = row_partial(q, view_.row(i), 0, view_.dims, 0.0);
      if (d < best_d) {
        best_d = d;
        best = i;
      }
    }
    return;
  }
  const double diff = q[node.dim] - node.threshold;
  const int near = diff < 0.0 ? node.left : node.right;
  const int far = diff < 0.0 ? node.right : node.left;
  search(near, q, best, best_d);
  if (diff * diff < best_d) search(far, q, best, best_d);  // backtrack
}

void DecisionTreeClassifier::fit(const SignatureView& view) {
  view_ = view;
  nodes_.clear();
  members_.clear();
  root_ = -1;
  waste_slots_ = 0;
  if (view.empty()) {
    set_fitted(view);
    return;
  }
  HARMONY_REQUIRE(view.dims != SignatureView::kMixedDims,
                  "signature arity mismatch");
  members_.reserve(view.count);
  std::vector<std::size_t> all(view.count);
  std::iota(all.begin(), all.end(), std::size_t{0});
  root_ = build(std::move(all), view.dims);
  set_fitted(view);
}

std::size_t DecisionTreeClassifier::classify(
    const WorkloadSignature& observed) const {
  HARMONY_REQUIRE(!view_.empty(), "classify against empty signature set");
  HARMONY_REQUIRE(observed.size() == view_.dims, "signature arity mismatch");
  std::size_t best = view_.count;
  double best_d = std::numeric_limits<double>::infinity();
  search(root_, observed.data(), best, best_d);
  return best;
}

bool DecisionTreeClassifier::insert(std::size_t i) {
  const double* row = view_.row(i);
  // Scapegoat depth bound: 2·log2(n) + 8. An insert descending past it
  // means the incremental grafts have unbalanced the tree beyond what the
  // backtracking search can absorb.
  std::size_t depth_limit = 8;
  for (std::size_t n = view_.count; n > 1; n >>= 1) depth_limit += 2;
  int idx = root_;
  std::size_t depth = 0;
  while (!nodes_[static_cast<std::size_t>(idx)].is_leaf()) {
    const Node& node = nodes_[static_cast<std::size_t>(idx)];
    // Same rule as search(): strictly-below goes left, so the split
    // invariant (left <= threshold <= right) — which the pruning bound
    // relies on — is preserved and the search stays exact.
    idx = row[node.dim] - node.threshold < 0.0 ? node.left : node.right;
    if (++depth > depth_limit) return false;
  }
  const Node leaf = nodes_[static_cast<std::size_t>(idx)];
  if (leaf.members_end < leaf.members_cap) {
    members_[leaf.members_end] = i;
    ++nodes_[static_cast<std::size_t>(idx)].members_end;
    return true;
  }
  // Full leaf: rebuild it (plus the new row) as a fresh subtree and graft
  // the subtree root into the leaf's node slot. The old member slots and
  // the duplicated root node become tracked waste; the hysteresis check in
  // update() bounds how much of it may accumulate.
  std::vector<std::size_t> leaf_members(
      members_.begin() + leaf.members_begin,
      members_.begin() + leaf.members_end);
  leaf_members.push_back(i);
  waste_slots_ += (leaf.members_cap - leaf.members_begin) + 1;
  const int r = build(std::move(leaf_members), view_.dims);
  nodes_[static_cast<std::size_t>(idx)] = nodes_[static_cast<std::size_t>(r)];
  return true;
}

bool DecisionTreeClassifier::update(const SignatureView& view,
                                    std::size_t first_new_row) {
  if (root_ < 0 || view.dims == SignatureView::kMixedDims ||
      view.dims != view_.dims) {
    return false;
  }
  view_ = view;
  for (std::size_t i = first_new_row; i < view.count; ++i) {
    // Waste hysteresis first: once the orphaned slots outnumber the live
    // set, a compacting rebuild is cheaper than dragging the bloat along.
    if (waste_slots_ > view.count || !insert(i)) return false;
  }
  return true;
}

// --------------------------------------------------------------------------
// DataAnalyzer

DataAnalyzer::DataAnalyzer()
    : classifier_(std::make_shared<LeastSquareClassifier>()) {}

DataAnalyzer::DataAnalyzer(std::shared_ptr<Classifier> classifier)
    : classifier_(std::move(classifier)) {
  HARMONY_REQUIRE(classifier_ != nullptr, "null classifier");
}

WorkloadSignature DataAnalyzer::characterize(
    const std::function<WorkloadSignature()>& sample_request, int samples) {
  HARMONY_REQUIRE(samples > 0, "need at least one sample");
  WorkloadSignature acc;
  for (int i = 0; i < samples; ++i) {
    WorkloadSignature s = sample_request();
    if (acc.empty()) {
      acc.assign(s.size(), 0.0);
    }
    HARMONY_REQUIRE(s.size() == acc.size(), "sample arity changed");
    for (std::size_t d = 0; d < s.size(); ++d) acc[d] += s[d];
  }
  for (double& v : acc) v /= samples;
  return acc;
}

void DataAnalyzer::ensure_fitted(const HistoryDatabase& db) const {
  if (db.empty()) return;
  const SignatureView view = db.signature_view();
  // refit() picks the cheapest sound path: no-op on a matching version,
  // the incremental update when the database only appended since the last
  // fit, a full rebuild otherwise.
  if (classifier_->fitted_version() != view.version) classifier_->refit(view);
}

namespace {

/// Why `observed` cannot be classified against `view`, or nullptr when it
/// can. Non-finite values are rejected even against an empty history: the
/// signature would otherwise be stored and poison later classifications.
const char* query_rejection(const SignatureView& view,
                            const WorkloadSignature& observed) {
  if (!signature_is_finite(observed)) return "non-finite workload signature";
  if (view.empty()) return nullptr;
  if (view.dims == SignatureView::kMixedDims) {
    return "signature arity mismatch: the history mixes signature arities";
  }
  if (observed.size() != view.dims) return "signature arity mismatch";
  return nullptr;
}

}  // namespace

std::optional<std::size_t> DataAnalyzer::classify(
    const HistoryDatabase& db, const WorkloadSignature& observed) const {
  if (const char* why = query_rejection(db.signature_view(), observed)) {
    throw Error(why);
  }
  if (db.empty()) return std::nullopt;
  ensure_fitted(db);
  return classifier_->classify(observed);
}

const ExperienceRecord* DataAnalyzer::retrieve(
    const HistoryDatabase& db, const WorkloadSignature& observed) const {
  const auto idx = classify(db, observed);
  if (!idx) return nullptr;
  return &db.record(*idx);
}

std::vector<DataAnalyzer::Retrieval> DataAnalyzer::retrieve_batch(
    const HistoryDatabase& db,
    std::span<const WorkloadSignature* const> queries) const {
  std::vector<Retrieval> out(queries.size());
  const SignatureView view = db.signature_view();
  std::vector<const WorkloadSignature*> accepted;
  std::vector<std::size_t> slots;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (const char* why = query_rejection(view, *queries[i])) {
      out[i].error = why;
    } else if (!db.empty()) {
      accepted.push_back(queries[i]);
      slots.push_back(i);
    }
  }
  if (accepted.empty()) return out;
  ensure_fitted(db);
  const std::vector<std::size_t> found = classifier_->classify_batch(accepted);
  for (std::size_t k = 0; k < slots.size(); ++k) {
    out[slots[k]].record = &db.record(found[k]);
  }
  return out;
}

}  // namespace harmony
