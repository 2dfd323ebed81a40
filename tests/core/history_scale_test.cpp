// Coverage for the scaled experience store: flat signature index, blocked /
// sharded least-square scan determinism, fit-once/classify-many lifecycle
// (auto-refit on database version bumps), partial-selection best(), and the
// batched read path (classify_batch == a loop of classify, retrieve_batch
// rejections), and two-extent views (a head/tail split anywhere classifies
// exactly like the contiguous set).
#include <algorithm>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/analyzer.hpp"
#include "core/history.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace harmony {
namespace {

std::vector<double> random_rows(Rng& rng, std::size_t count,
                                std::size_t dims) {
  std::vector<double> data(count * dims);
  for (double& v : data) v = rng.uniform01();
  return data;
}

/// Every row of a uniform-arity view, whichever extent holds it, copied
/// into one contiguous array (the scalar reference scan's input).
std::vector<double> flatten(const SignatureView& view) {
  std::vector<double> flat;
  flat.reserve(view.count * view.dims);
  for (std::size_t i = 0; i < view.count; ++i) {
    flat.insert(flat.end(), view.row(i), view.row(i) + view.dims);
  }
  return flat;
}

TEST(SignatureKernels, BlockedMatchesScalarBitForBit) {
  Rng rng(123);
  // Dims below, at and above the early-exit chunk size; counts that are not
  // multiples of the 4-row block.
  for (const std::size_t dims : {1u, 3u, 7u, 16u, 64u, 70u, 130u}) {
    for (const std::size_t count : {1u, 2u, 5u, 257u, 1024u}) {
      std::vector<double> data = random_rows(rng, count, dims);
      // Plant exact duplicates so ties genuinely occur.
      if (count >= 8) {
        std::copy(data.begin(), data.begin() + static_cast<long>(dims),
                  data.begin() + static_cast<long>(5 * dims));
      }
      std::vector<double> query(dims);
      for (double& v : query) v = rng.uniform01();

      double ds = 0.0;
      const std::size_t is =
          nearest_signature_scalar(data.data(), count, dims, query.data(), &ds);
      double db = std::numeric_limits<double>::infinity();
      std::size_t ib = 0;
      nearest_signature_scan(data.data(), dims, 0, count, query.data(), db,
                             ib);
      ASSERT_EQ(is, ib) << "dims=" << dims << " count=" << count;
      ASSERT_EQ(ds, db);  // exact double equality, not NEAR

      // Query equal to a stored row: distance 0, first occurrence wins.
      if (count >= 2) {
        const std::vector<double> hit(
            data.begin() + static_cast<long>(dims),
            data.begin() + static_cast<long>(2 * dims));
        double dh = std::numeric_limits<double>::infinity();
        std::size_t ih = 0;
        nearest_signature_scan(data.data(), dims, 0, count, hit.data(), dh,
                               ih);
        EXPECT_EQ(
            nearest_signature_scalar(data.data(), count, dims, hit.data()),
            ih);
      }
    }
  }
}

TEST(SignatureKernels, ExactTiesPickLowestIndex) {
  // Identical rows everywhere: every distance ties; index 0 must win.
  const std::size_t dims = 5;
  std::vector<double> data;
  for (int i = 0; i < 23; ++i) {
    for (std::size_t d = 0; d < dims; ++d) data.push_back(0.25);
  }
  std::vector<double> query(dims, 0.7);
  EXPECT_EQ(nearest_signature_scalar(data.data(), 23, dims, query.data()), 0u);
  double best_d = std::numeric_limits<double>::infinity();
  std::size_t best = 99;
  nearest_signature_scan(data.data(), dims, 0, 23, query.data(), best_d, best);
  EXPECT_EQ(best, 0u);

  // Mirrored rows around the query: equal distances, lowest index wins even
  // when the tying rows land in different 4-row blocks.
  std::vector<double> mirror((8 + 2) * 1);
  for (std::size_t i = 0; i < mirror.size(); ++i) {
    mirror[i] = 100.0 + static_cast<double>(i);
  }
  mirror[3] = 1.0;    // distance 1 from query 0
  mirror[9] = -1.0;   // also distance 1
  const double q0 = 0.0;
  EXPECT_EQ(nearest_signature_scalar(mirror.data(), mirror.size(), 1, &q0),
            3u);
  best_d = std::numeric_limits<double>::infinity();
  best = 99;
  nearest_signature_scan(mirror.data(), 1, 0, mirror.size(), &q0, best_d,
                         best);
  EXPECT_EQ(best, 3u);
}

TEST(LeastSquareClassifier, SketchPrunedScanMatchesScalarAcrossDims) {
  // The sketch bound (exact prefix + deflated norm of the rest) must never
  // change the winner — including clustered data where pruning is heavy and
  // narrow rows where the sketch is disabled entirely.
  Rng rng(31);
  for (const std::size_t dims : {1u, 2u, 3u, 4u, 16u, 40u}) {
    HistoryDatabase db;
    for (std::size_t i = 0; i < 600; ++i) {
      ExperienceRecord rec;
      rec.signature.resize(dims);
      // Tight clusters around a handful of anchors: most rows prune away.
      const double anchor = static_cast<double>(i % 5);
      for (double& v : rec.signature) {
        v = anchor + rng.uniform(-0.01, 0.01);
      }
      db.add(std::move(rec));
    }
    LeastSquareClassifier ls;
    ls.fit(db.signature_view());
    const SignatureView view = db.signature_view();
    const std::vector<double> flat = flatten(view);
    for (int q = 0; q < 50; ++q) {
      WorkloadSignature obs(dims);
      const double anchor = static_cast<double>(q % 5);
      for (double& v : obs) v = anchor + rng.uniform(-0.02, 0.02);
      EXPECT_EQ(ls.classify(obs),
                nearest_signature_scalar(flat.data(), view.count, view.dims,
                                         obs.data()))
          << "dims=" << dims;
    }
  }
}

TEST(LeastSquareClassifier, ShardedScanBitIdenticalAtAnyThreadCount) {
  // Enough records to cross kParallelThreshold and span several shards.
  const std::size_t dims = 6;
  const std::size_t count = 3 * LeastSquareClassifier::kShardSize + 37;
  Rng rng(7);
  HistoryDatabase db;
  for (std::size_t i = 0; i < count; ++i) {
    ExperienceRecord rec;
    rec.signature.resize(dims);
    for (double& v : rec.signature) v = rng.uniform01();
    db.add(std::move(rec));
  }
  // Exact tie spanning shard 0 and shard 2: the copy at the lower index
  // must win regardless of which shard scans first.
  {
    ExperienceRecord dup;
    dup.signature = db.record(100).signature;
    db.add(std::move(dup));  // index count (last), ties with index 100
  }
  const WorkloadSignature tie_query = db.record(100).signature;

  std::vector<WorkloadSignature> queries;
  for (int q = 0; q < 16; ++q) {
    WorkloadSignature obs(dims);
    for (double& v : obs) v = rng.uniform01();
    queries.push_back(std::move(obs));
  }

  const SignatureView view = db.signature_view();
  const std::vector<double> flat = flatten(view);
  for (const unsigned threads : {1u, 8u}) {
    set_thread_count(threads);
    LeastSquareClassifier ls;
    ls.fit(view);
    for (const auto& obs : queries) {
      EXPECT_EQ(ls.classify(obs),
                nearest_signature_scalar(flat.data(), view.count, view.dims,
                                         obs.data()));
    }
    EXPECT_EQ(ls.classify(tie_query), 100u);
  }
  set_thread_count(0);  // restore environment/hardware default
}

TEST(HistoryDatabase, FlatViewMirrorsRecords) {
  HistoryDatabase db;
  EXPECT_TRUE(db.signature_view().empty());
  for (int i = 0; i < 5; ++i) {
    ExperienceRecord rec;
    rec.signature = {static_cast<double>(i), 2.0 * i, 3.0};
    db.add(std::move(rec));
  }
  const SignatureView v = db.signature_view();
  ASSERT_EQ(v.count, 5u);
  EXPECT_EQ(v.dims, 3u);
  EXPECT_EQ(v.version, db.version());
  for (std::size_t i = 0; i < v.count; ++i) {
    ASSERT_EQ(v.arity(i), 3u);
    const auto& sig = db.record(i).signature;
    for (std::size_t d = 0; d < 3; ++d) EXPECT_EQ(v.row(i)[d], sig[d]);
  }
}

TEST(HistoryDatabase, ViewTracksMutationsAndLoad) {
  HistoryDatabase db;
  ExperienceRecord rec;
  rec.signature = {1.0, 2.0};
  db.add(rec);
  const std::uint64_t v1 = db.version();
  db.add(rec);
  EXPECT_NE(db.version(), v1);

  std::stringstream ss;
  db.save(ss);
  HistoryDatabase loaded;
  loaded.load(ss);
  const SignatureView lv = loaded.signature_view();
  ASSERT_EQ(lv.count, 2u);
  EXPECT_EQ(lv.dims, 2u);
  EXPECT_EQ(lv.row(1)[1], 2.0);

  // Copies carry the data but a fresh version: a classifier fitted against
  // the original must refit (the copy's buffers are different memory).
  const HistoryDatabase copy = db;
  EXPECT_NE(copy.version(), db.version());
  EXPECT_EQ(copy.signature_view().count, db.signature_view().count);
}

TEST(HistoryDatabase, MixedArityIsFlaggedInView) {
  HistoryDatabase db;
  ExperienceRecord a;
  a.signature = {1.0, 2.0};
  db.add(a);
  ExperienceRecord b;
  b.signature = {1.0};
  db.add(b);
  EXPECT_EQ(db.signature_view().dims, SignatureView::kMixedDims);
  LeastSquareClassifier ls;
  ls.fit(db.signature_view());
  EXPECT_THROW((void)ls.classify({1.0, 2.0}), Error);
}

// The fit-once/classify-many lifecycle: a fitted classifier must refit
// itself (through DataAnalyzer) when the database version moves, and keep
// serving the cached model while the database is stable.
class ClassifierRefit : public ::testing::TestWithParam<int> {
 protected:
  std::shared_ptr<Classifier> make() const {
    switch (GetParam()) {
      case 0: return std::make_shared<LeastSquareClassifier>();
      case 1: return std::make_shared<KMeansClassifier>(4, 7);
      default: return std::make_shared<DecisionTreeClassifier>(2);
    }
  }
};

TEST_P(ClassifierRefit, AutoRefitsOnVersionBump) {
  auto classifier = make();
  DataAnalyzer analyzer(classifier);
  HistoryDatabase db;
  ExperienceRecord r0;
  r0.signature = {0.0, 0.0};
  db.add(r0);
  ExperienceRecord r1;
  r1.signature = {10.0, 10.0};
  db.add(r1);

  EXPECT_EQ(analyzer.classify(db, {9.0, 9.0}).value(), 1u);
  const std::uint64_t fitted = classifier->fitted_version();
  EXPECT_EQ(fitted, db.version());

  // Stable database: repeated classifies reuse the fitted model.
  EXPECT_EQ(analyzer.classify(db, {0.5, 0.2}).value(), 0u);
  EXPECT_EQ(classifier->fitted_version(), fitted);

  // Version bump: the new record must be visible immediately.
  ExperienceRecord r2;
  r2.signature = {9.0, 9.0};
  db.add(r2);
  EXPECT_EQ(analyzer.classify(db, {9.0, 9.0}).value(), 2u);
  EXPECT_NE(classifier->fitted_version(), fitted);
  EXPECT_EQ(classifier->fitted_version(), db.version());
}

INSTANTIATE_TEST_SUITE_P(AllClassifiers, ClassifierRefit,
                         ::testing::Values(0, 1, 2));

// ---------------------------------------------------------------------------
// Batched classify: classify_batch must equal a loop of classify, index for
// index, for every classifier, set shape and thread count.

constexpr std::size_t kShard = LeastSquareClassifier::kShardSize;

std::vector<const WorkloadSignature*> pointers(
    const std::vector<WorkloadSignature>& queries) {
  std::vector<const WorkloadSignature*> out;
  for (const WorkloadSignature& q : queries) out.push_back(&q);
  return out;
}

/// Checks classify_batch against a loop of classify at 1 and 8 threads and,
/// when `view` is given, against the scalar reference scan.
void expect_batch_matches_loop(const Classifier& c,
                               const std::vector<WorkloadSignature>& queries,
                               const SignatureView* view = nullptr) {
  const auto ptrs = pointers(queries);
  const std::vector<double> flat =
      view != nullptr ? flatten(*view) : std::vector<double>{};
  for (const unsigned threads : {1u, 8u}) {
    SCOPED_TRACE(testing::Message() << c.name() << " at " << threads
                                    << " threads, " << queries.size()
                                    << " queries");
    set_thread_count(threads);
    const std::vector<std::size_t> batch = c.classify_batch(ptrs);
    ASSERT_EQ(batch.size(), queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(batch[q], c.classify(queries[q])) << "query " << q;
      if (view != nullptr) {
        EXPECT_EQ(batch[q],
                  nearest_signature_scalar(flat.data(), view->count,
                                           view->dims, queries[q].data()))
            << "query " << q;
      }
    }
  }
  set_thread_count(0);
}

void add_rows(HistoryDatabase& db, Rng& rng, std::size_t count,
              std::size_t dims) {
  for (std::size_t i = 0; i < count; ++i) {
    ExperienceRecord rec;
    rec.signature.resize(dims);
    // Clustered around a few anchors, so the sketch prunes heavily and the
    // seeded bounds matter.
    const double anchor = static_cast<double>(i % 7);
    for (double& v : rec.signature) v = anchor + rng.uniform(-0.05, 0.05);
    db.add(std::move(rec));
  }
}

std::vector<WorkloadSignature> make_queries(Rng& rng, std::size_t n,
                                            std::size_t dims) {
  std::vector<WorkloadSignature> queries;
  for (std::size_t q = 0; q < n; ++q) {
    WorkloadSignature obs(dims);
    const double anchor = static_cast<double>(q % 7);
    for (double& v : obs) v = anchor + rng.uniform(-0.08, 0.08);
    queries.push_back(std::move(obs));
  }
  return queries;
}

TEST(ClassifyBatch, LeastSquareMatchesLoopAcrossCountsAndShapes) {
  Rng rng(2024);
  // Below the parallel threshold, exactly two shards, and a count that is
  // not a multiple of the shard size; sketched (dims 6) and unsketched
  // (dims 3, too narrow for the sketch) sets.
  for (const std::size_t dims : {3u, 6u}) {
    for (const std::size_t count :
         {std::size_t{100}, 2 * kShard, 3 * kShard + 37}) {
      SCOPED_TRACE(testing::Message() << "dims " << dims << ", count "
                                      << count);
      HistoryDatabase db;
      add_rows(db, rng, count, dims);
      const SignatureView view = db.signature_view();
      LeastSquareClassifier ls;
      ls.fit(view);
      EXPECT_EQ(ls.sketched(), dims == 6u);
      expect_batch_matches_loop(ls, make_queries(rng, 40, dims), &view);
    }
  }
}

TEST(ClassifyBatch, EmptyAndOneQueryBatches) {
  Rng rng(5);
  HistoryDatabase db;
  add_rows(db, rng, 2 * kShard + 11, 6);
  LeastSquareClassifier ls;
  ls.fit(db.signature_view());
  EXPECT_TRUE(ls.classify_batch({}).empty());
  const SignatureView view = db.signature_view();
  expect_batch_matches_loop(ls, make_queries(rng, 1, 6), &view);
  KMeansClassifier km(8, 3);
  km.fit(view);
  EXPECT_TRUE(km.classify_batch({}).empty());
}

TEST(ClassifyBatch, BorrowedAndIncrementallyGrownSketches) {
  Rng rng(77);
  const std::size_t dims = 6;
  HistoryDatabase db;
  add_rows(db, rng, 2 * kShard + 500, dims);
  const std::vector<WorkloadSignature> queries = make_queries(rng, 24, dims);

  // Snapshot-style borrowed sketch: every row in the head extent, and
  // fit() adopts the view's head sketch pointer.
  const SignatureView owned = db.signature_view();
  SignatureView borrowed = owned;
  borrowed.head_data = owned.tail_data;
  borrowed.head_offsets = owned.tail_offsets;
  borrowed.split = owned.count;
  std::vector<double> sketch(borrowed.count *
                             (LeastSquareClassifier::kSketchPrefix + 1));
  build_signature_sketch(owned, 0, owned.count, sketch.data(), owned.count);
  borrowed.head_sketch = sketch.data();
  LeastSquareClassifier from_snapshot;
  from_snapshot.fit(borrowed);
  ASSERT_EQ(from_snapshot.head_sketch(), sketch.data());
  expect_batch_matches_loop(from_snapshot, queries, &borrowed);

  // Incremental growth repacks the planes with headroom: stride > count.
  // Forced on, so the exact-oracle leg (HARMONY_INCREMENTAL_FIT=off) runs
  // this case too.
  const bool incremental = incremental_fit_enabled();
  set_incremental_fit(true);
  LeastSquareClassifier grown;
  grown.refit(db.signature_view());
  add_rows(db, rng, kShard + 3, dims);
  const SignatureView view = db.signature_view();
  grown.refit(view);
  set_incremental_fit(incremental);
  ASSERT_EQ(grown.refit_stats().incremental, 1u);
  ASSERT_GT(grown.tail_sketch_stride(), view.count);
  expect_batch_matches_loop(grown, queries, &view);
}

TEST(ClassifyBatch, DuplicateRowsTieAcrossShardBoundaries) {
  Rng rng(9);
  const std::size_t dims = 6;
  HistoryDatabase db;
  add_rows(db, rng, 3 * kShard + 37, dims);
  // Row 100 (shard 0) and a row of shard 1 copied into the last shard.
  const std::size_t in_shard1 = kShard + 42;
  const WorkloadSignature a = db.record(100).signature;
  const WorkloadSignature b = db.record(in_shard1).signature;
  for (const WorkloadSignature* sig : {&a, &a, &b}) {
    ExperienceRecord dup;
    dup.signature = *sig;
    db.add(std::move(dup));
  }
  const SignatureView view = db.signature_view();
  LeastSquareClassifier ls;
  ls.fit(view);
  // Exact copies of a stored row: the first occurrence wins.
  expect_batch_matches_loop(ls, {a, b, a}, &view);
  set_thread_count(8);
  const auto idx = ls.classify_batch(pointers({a, b}));
  EXPECT_EQ(idx[0], 100u);
  EXPECT_EQ(idx[1], in_shard1);
  set_thread_count(0);
}

TEST(ClassifyBatch, ShardZeroBestTyingALowerBoundRowKeepsLowestIndex) {
  // Every filler row sits far away, so the query's nearest rows are the
  // planted ones. The later-shard row differs from the query only in a
  // sketch prefix coordinate: its prefix distance IS its full distance and
  // its rest-norm bound is 0, so its lower bound equals the shard-0 best
  // exactly. The nextafter seed keeps it a candidate; the strict < reduce
  // must still return the shard-0 row. A row one step closer must win.
  const std::size_t dims = 6;
  const WorkloadSignature query = {0.5, 0.5, 0.3, 0.3, 0.3, 0.3};
  const std::size_t near0 = 10;
  const std::size_t later = 2 * kShard + 3;
  for (const bool closer : {false, true}) {
    SCOPED_TRACE(closer ? "later row closer" : "later row ties");
    Rng rng(13);
    HistoryDatabase db;
    for (std::size_t i = 0; i < 3 * kShard + 5; ++i) {
      ExperienceRecord rec;
      rec.signature.resize(dims);
      for (double& v : rec.signature) v = rng.uniform(2.0, 3.0);
      if (i == near0) {
        rec.signature = query;
        rec.signature[0] += 0.25;  // distance 0.0625, exactly
      } else if (i == later) {
        rec.signature = query;
        rec.signature[1] += closer ? 0.125 : 0.25;
      }
      db.add(std::move(rec));
    }
    const SignatureView view = db.signature_view();
    LeastSquareClassifier ls;
    ls.fit(view);
    ASSERT_TRUE(ls.sketched());
    expect_batch_matches_loop(ls, {query, query}, &view);
    set_thread_count(8);
    EXPECT_EQ(ls.classify_batch(pointers({query})).front(),
              closer ? later : near0);
    set_thread_count(0);
  }
}

TEST(ClassifyBatch, KMeansAndTreeUseTheDefaultPath) {
  Rng rng(21);
  const std::size_t dims = 5;
  HistoryDatabase db;
  add_rows(db, rng, 3000, dims);
  const SignatureView view = db.signature_view();
  KMeansClassifier km(12, 4);
  km.fit(view);
  DecisionTreeClassifier tree(8);
  tree.fit(view);
  const std::vector<WorkloadSignature> queries = make_queries(rng, 33, dims);
  expect_batch_matches_loop(km, queries);
  expect_batch_matches_loop(tree, queries, &view);  // the tree is exact
}

// ---------------------------------------------------------------------------
// Two-extent views: a snapshot-backed database serves its rows as a borrowed
// head extent plus an owned tail. Wherever the split falls — not a multiple
// of the SIMD block, inside a shard, on a shard boundary — every classifier
// must answer exactly as over the same rows stored contiguously.

/// `whole` (an in-memory view: every row in its tail extent) re-cut at
/// `split`: rows [0, split) become the head extent, borrowing `head_sketch`
/// (nullptr: none), and the rest stay the tail with offsets rebased into
/// `tail_offsets`.
SignatureView split_view(const SignatureView& whole, std::size_t split,
                         const double* head_sketch,
                         std::vector<std::size_t>& tail_offsets) {
  SignatureView v = whole;
  v.head_data = whole.tail_data;
  v.head_offsets = whole.tail_offsets;
  v.head_sketch = head_sketch;
  v.split = split;
  const std::size_t base = whole.tail_offsets[split];
  tail_offsets.assign(whole.tail_offsets + split,
                      whole.tail_offsets + whole.count + 1);
  for (std::size_t& off : tail_offsets) off -= base;
  v.tail_data = whole.tail_data + base;
  v.tail_offsets = tail_offsets.data();
  return v;
}

TEST(SplitViews, EveryClassifierMatchesTheContiguousSet) {
  const SimdLevel prev_level = simd_level();
  // Inside shard 0 and not a multiple of 4; inside shard 1; exactly on a
  // shard boundary.
  const std::size_t splits[] = {1001, kShard + 4099, 2 * kShard};
  for (const std::size_t dims : {3u, 6u}) {
    Rng rng(606);
    HistoryDatabase rows;
    add_rows(rows, rng, 3 * kShard + 37, dims);
    // Across each split, row split + 7 repeats row split - 5 (the same
    // shard, except at the shard boundary): the least-square scan must
    // resolve the tie to the head row. The tree resolves ties in its own
    // search order, the same for either layout.
    const SignatureView rows_view = rows.signature_view();
    std::vector<WorkloadSignature> sigs;
    for (std::size_t i = 0; i < rows_view.count; ++i) {
      sigs.emplace_back(rows_view.row(i), rows_view.row(i) + dims);
    }
    std::vector<WorkloadSignature> queries = make_queries(rng, 20, dims);
    for (const std::size_t split : splits) {
      sigs[split + 7] = sigs[split - 5];
      queries.push_back(sigs[split - 5]);
    }
    HistoryDatabase db;
    for (WorkloadSignature& sig : sigs) {
      ExperienceRecord rec;
      rec.signature = std::move(sig);
      db.add(std::move(rec));
    }
    const SignatureView whole = db.signature_view();

    KMeansClassifier km_whole(12, 4, 10);
    km_whole.fit(whole);
    DecisionTreeClassifier tree_whole(8);
    tree_whole.fit(whole);

    for (const std::size_t split : splits) {
      for (const bool borrow : {false, true}) {
        if (borrow && dims != 6u) continue;
        SCOPED_TRACE(testing::Message() << "dims " << dims << ", split "
                                        << split << ", borrowed sketch "
                                        << borrow);
        // The head planes of a sketch at stride `split`, as a snapshot
        // persists them.
        std::vector<double> head;
        if (borrow) {
          head.resize(split * (LeastSquareClassifier::kSketchPrefix + 1));
          build_signature_sketch(whole, 0, split, head.data(), split);
        }
        std::vector<std::size_t> tail_offsets;
        const SignatureView view = split_view(
            whole, split, borrow ? head.data() : nullptr, tail_offsets);
        for (const SimdLevel level :
             {SimdLevel::kScalar, simd_max_supported()}) {
          set_simd_level(level);
          LeastSquareClassifier ls;
          ls.fit(view);
          EXPECT_EQ(ls.sketched(), dims == 6u);
          if (borrow) {
            EXPECT_EQ(ls.head_sketch(), head.data());
          }
          // Against a loop of classify and the scalar reference over the
          // contiguous rows, at 1 and 8 threads.
          expect_batch_matches_loop(ls, queries, &whole);
          for (const std::size_t s : splits) {
            EXPECT_EQ(ls.classify(db.record(s - 5).signature), s - 5);
          }
        }
        set_simd_level(prev_level);

        KMeansClassifier km(12, 4, 10);
        km.fit(view);
        DecisionTreeClassifier tree(8);
        tree.fit(view);
        for (const WorkloadSignature& q : queries) {
          EXPECT_EQ(km.classify(q), km_whole.classify(q));
          EXPECT_EQ(tree.classify(q), tree_whole.classify(q));
        }
      }
    }
  }
}

TEST(SplitViews, IncrementalTailGrowthMatchesAFreshFit) {
  const bool incremental = incremental_fit_enabled();
  set_incremental_fit(true);
  Rng rng(707);
  const std::size_t dims = 6;
  HistoryDatabase db;
  add_rows(db, rng, 2 * kShard + 900, dims);
  const SignatureView whole = db.signature_view();
  const std::size_t split = kShard + 3;
  std::vector<double> head(split * (LeastSquareClassifier::kSketchPrefix + 1));
  build_signature_sketch(whole, 0, split, head.data(), split);
  // Two views of one append chain: the fitted one ends 500 rows early.
  std::vector<std::size_t> offsets_small, offsets_full;
  SignatureView small = split_view(whole, split, head.data(), offsets_small);
  small.count = whole.count - 500;
  small.version = next_signature_version();
  const SignatureView full =
      split_view(whole, split, head.data(), offsets_full);
  LeastSquareClassifier grown;
  grown.refit(small);
  grown.refit(full);
  set_incremental_fit(incremental);
  EXPECT_EQ(grown.refit_stats().full, 1u);
  EXPECT_EQ(grown.refit_stats().incremental, 1u);
  EXPECT_EQ(grown.head_sketch(), head.data());
  EXPECT_GE(grown.tail_sketch_stride(), full.count - split);
  expect_batch_matches_loop(grown, make_queries(rng, 24, dims), &whole);
}

// retrieve_batch and the analyzer's query checks, for every classifier.
class AnalyzerQueries : public ClassifierRefit {};

TEST_P(AnalyzerQueries, NonFiniteSignaturesAreRejected) {
  DataAnalyzer analyzer(make());
  HistoryDatabase db;
  Rng rng(3);
  add_rows(db, rng, 200, 2);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const WorkloadSignature& bad : std::vector<WorkloadSignature>{
           {nan, 0.0}, {0.0, inf}, {-inf, 1.0}}) {
    EXPECT_THROW((void)analyzer.classify(db, bad), Error);
    const WorkloadSignature* const queries[] = {&bad};
    const auto found = analyzer.retrieve_batch(db, queries);
    EXPECT_EQ(found[0].record, nullptr);
    EXPECT_NE(found[0].error.find("non-finite"), std::string::npos);
    // Rejected even against an empty history: such a signature must not
    // be stored as experience either.
    EXPECT_THROW((void)analyzer.classify(HistoryDatabase{}, bad), Error);
  }
  EXPECT_TRUE(analyzer.classify(db, {1.0, 1.0}).has_value());
}

TEST_P(AnalyzerQueries, RetrieveBatchIsolatesRejectedQueries) {
  DataAnalyzer analyzer(make());
  HistoryDatabase db;
  Rng rng(4);
  add_rows(db, rng, 300, 2);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<WorkloadSignature> queries = {
      {1.0, 1.0}, {nan, 1.0}, {2.0, 2.0, 2.0}, {3.1, 2.9}};
  const auto ptrs = pointers(queries);
  for (const unsigned threads : {1u, 8u}) {
    set_thread_count(threads);
    const auto got = analyzer.retrieve_batch(db, ptrs);
    ASSERT_EQ(got.size(), queries.size());
    EXPECT_EQ(got[0].record, &db.record(*analyzer.classify(db, queries[0])));
    EXPECT_EQ(got[3].record, &db.record(*analyzer.classify(db, queries[3])));
    EXPECT_TRUE(got[0].error.empty());
    EXPECT_TRUE(got[3].error.empty());
    EXPECT_EQ(got[1].record, nullptr);
    EXPECT_NE(got[1].error.find("non-finite"), std::string::npos);
    EXPECT_EQ(got[2].record, nullptr);
    EXPECT_NE(got[2].error.find("arity"), std::string::npos);
  }
  set_thread_count(0);

  // Empty history: accepted queries get no record and no error.
  const auto cold = analyzer.retrieve_batch(HistoryDatabase{}, ptrs);
  EXPECT_EQ(cold[0].record, nullptr);
  EXPECT_TRUE(cold[0].error.empty());
  EXPECT_FALSE(cold[1].error.empty());

  // Mixed-arity history: every query is rejected, none throws.
  ExperienceRecord odd;
  odd.signature = {1.0};
  db.add(odd);
  const auto mixed = analyzer.retrieve_batch(db, ptrs);
  for (std::size_t q = 0; q < mixed.size(); ++q) {
    EXPECT_EQ(mixed[q].record, nullptr);
    EXPECT_FALSE(mixed[q].error.empty());
    if (q != 1) {  // query 1 is rejected as non-finite first
      EXPECT_NE(mixed[q].error.find("arity"), std::string::npos);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllClassifiers, AnalyzerQueries,
                         ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace harmony
