// HarmonyServer — the end-to-end tuning server façade.
//
// Combines the paper's pieces the way §6.4 describes the deployed system:
// the data analyzer characterizes the incoming workload, the data
// characteristics database is consulted for the closest prior experience,
// the tuner is warm-started from it (or tunes from scratch for never-seen
// workloads), and the finished run is stored back as new experience.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "core/history.hpp"
#include "core/objective.hpp"
#include "core/parameter.hpp"
#include "core/store.hpp"
#include "core/tuner.hpp"

namespace harmony {

/// Batched experience write-back: appends `records` to the database — and
/// mirrors them into `store`'s append-only log when non-null — in order,
/// finishing with one group commit and a rotation check. This is the single
/// sequencing point at which the database's version stamp moves, which is
/// what makes the fit-once/classify-many read path (serve_batch, the
/// serving front end's coalesced batches) safe: writes happen only here,
/// between batches, never while sessions execute.
void ingest_experience(HistoryDatabase& db, ExperienceStore* store,
                       std::vector<ExperienceRecord> records);

struct ServerOptions {
  TuningOptions tuning;
  /// Warm-start behaviour: feed recorded performances to the kernel as the
  /// training stage (true, the paper's §4.2 design) or re-measure the
  /// seeded configurations live (false).
  bool use_recorded_values = true;
  /// Store each finished run back into the database.
  bool record_experience = true;
};

/// Outcome of one served tuning run, with provenance of the warm start.
struct ServedTuningResult {
  TuningResult tuning;
  /// Label of the experience used for training, if any.
  std::optional<std::string> experience_label;
  /// Distance between the observed signature and the experience used.
  double experience_distance = 0.0;
  /// True when this request did not produce a trustworthy run: its
  /// objective threw out of the tuning loop (`failure` holds the message,
  /// `tuning` whatever had accumulated), or its retry policy exhausted at
  /// least one measurement (censored values sit in the trace). Failed
  /// requests never write experience back to the database; sibling
  /// requests in the same serve_batch are unaffected — their trajectories
  /// are the ones a batch without the failing request would have produced.
  bool failed = false;
  std::string failure;
};

/// One workload to serve: the live objective (must stay valid for the whole
/// serve_batch call, and must not be shared between requests unless its
/// measure path is thread-safe), its observed characteristics signature and
/// the label its experience is stored under.
struct ServeRequest {
  Objective* objective = nullptr;
  WorkloadSignature signature;
  std::string label;
};

class HarmonyServer {
 public:
  /// The space must outlive the server.
  explicit HarmonyServer(const ParameterSpace& space, ServerOptions options = {});

  [[nodiscard]] HistoryDatabase& database() noexcept { return db_; }
  [[nodiscard]] const HistoryDatabase& database() const noexcept { return db_; }

  /// Opens (creating if absent) the durable experience store at `prefix`
  /// and recovers its contents into the database, REPLACING whatever the
  /// database held: newest valid snapshot adopted zero-copy (mmap), log
  /// tail replayed. From then on every experience write is mirrored into
  /// the append-only log (group-committed once per served batch) and the
  /// store rotates a fresh snapshot whenever the log tail passes
  /// StoreOptions::snapshot_every_records. Destruction drains gracefully:
  /// buffered appends are flushed to disk before the server dies.
  RecoveryInfo attach_store(const std::string& prefix, StoreOptions opts = {});

  /// The attached store, or nullptr when running in-memory only.
  [[nodiscard]] ExperienceStore* store() noexcept {
    return store_.is_open() ? &store_ : nullptr;
  }

  /// Group-commits and fsyncs any buffered experience appends (no-op
  /// without an attached store) — the explicit, checked drain barrier.
  void flush_store();

  /// Forces a snapshot rotation now (requires an attached store).
  void snapshot_store();

  /// Replaces the classifier used for experience retrieval.
  void set_analyzer(DataAnalyzer analyzer) { analyzer_ = std::move(analyzer); }

  /// Tunes `objective` for a workload with the given observed signature.
  /// `label` tags the experience stored back into the database.
  /// Equivalent to serve_batch with a single request.
  [[nodiscard]] ServedTuningResult tune(Objective& objective,
                                        const WorkloadSignature& signature,
                                        const std::string& label);

  /// Serves N workloads concurrently across the global thread pool
  /// (HARMONY_THREADS; 1 runs the exact serial loop inline). Every request
  /// retrieves its warm-start experience against the database as it stood
  /// at entry — the whole batch is classified up front in one
  /// DataAnalyzer::retrieve_batch call, before any session starts — and
  /// the finished runs are stored back in request order only after all of
  /// them completed. Results are bit-identical at every thread count:
  /// requests share no mutable state while running, so placement changes
  /// wall-clock time, never values. A request whose signature the analyzer
  /// rejects (non-finite value, arity the history does not share) comes
  /// back failed with the reason and runs no session. Entries with a null
  /// objective throw.
  [[nodiscard]] std::vector<ServedTuningResult> serve_batch(
      std::span<const ServeRequest> requests);

 private:
  const ParameterSpace& space_;
  ServerOptions opts_;
  DataAnalyzer analyzer_;
  HistoryDatabase db_;
  ExperienceStore store_;  ///< durable mirror of db_; inert until attached
};

}  // namespace harmony
