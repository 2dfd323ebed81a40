#include "core/server.hpp"

#include <exception>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace harmony {

void ingest_experience(HistoryDatabase& db, ExperienceStore* store,
                       std::vector<ExperienceRecord> records) {
  if (records.empty()) return;
  for (ExperienceRecord& rec : records) {
    if (store != nullptr) store->append(rec);
    db.add(std::move(rec));
  }
  if (store != nullptr) {
    // One group commit per ingested batch keeps durability off the tuning
    // hot path; rotation kicks in only once the log tail is long enough
    // that the next recovery's replay would stop being cheap.
    store->commit();
    store->maybe_snapshot(db);
  }
}

std::size_t execute_batch(
    HistoryDatabase& db, ExperienceStore* store, const DataAnalyzer& analyzer,
    std::span<const WorkloadSignature* const> queries,
    const std::function<std::optional<ExperienceRecord>(
        std::size_t, const DataAnalyzer::Retrieval&)>& step) {
  const std::size_t n = queries.size();
  if (n == 0) return 0;
  // One fit and one classify pass against the entry-state database, so the
  // steps never wait inside a classify.
  analyzer.ensure_fitted(db);
  const std::vector<DataAnalyzer::Retrieval> found =
      analyzer.retrieve_batch(db, queries);
  std::vector<std::optional<ExperienceRecord>> handed_back(n);
  parallel_for(n, [&](std::size_t i) { handed_back[i] = step(i, found[i]); });
  std::vector<ExperienceRecord> records;
  for (auto& rec : handed_back) {
    if (rec) records.push_back(std::move(*rec));
  }
  const std::size_t ingested = records.size();
  ingest_experience(db, store, std::move(records));
  return ingested;
}

proto::Transport host_session(proto::ServerSession& session,
                              HistoryDatabase& db,
                              const DataAnalyzer& analyzer) {
  return [&session, &db, &analyzer](const proto::Message& request) {
    const std::optional<WorkloadSignature> query =
        session.signature_query(request);
    const WorkloadSignature* const asked = query ? &*query : nullptr;
    proto::Message reply;
    (void)execute_batch(
        db, nullptr, analyzer, {&asked, 1},
        [&](std::size_t, const DataAnalyzer::Retrieval& found) {
          reply = session.handle(request,
                                 {asked, found, analyzer.refit_stats()});
          return session.take_pending_experience();
        });
    return reply;
  };
}

HarmonyServer::HarmonyServer(const ParameterSpace& space, ServerOptions options)
    : space_(space), opts_(std::move(options)) {
  HARMONY_REQUIRE(!space_.empty(), "empty parameter space");
}

RecoveryInfo HarmonyServer::attach_store(const std::string& prefix,
                                         StoreOptions opts) {
  return store_.open(prefix, db_, std::move(opts));
}

void HarmonyServer::flush_store() {
  if (store_.is_open()) store_.flush();
}

void HarmonyServer::snapshot_store() {
  HARMONY_REQUIRE(store_.is_open(), "snapshot_store: no store attached");
  store_.snapshot(db_);
}

ServedTuningResult HarmonyServer::tune(Objective& objective,
                                       const WorkloadSignature& signature,
                                       const std::string& label) {
  const ServeRequest request{&objective, signature, label};
  return std::move(serve_batch({&request, 1}).front());
}

std::vector<ServedTuningResult> HarmonyServer::serve_batch(
    std::span<const ServeRequest> requests) {
  std::vector<ServedTuningResult> out(requests.size());
  std::vector<const WorkloadSignature*> signatures;
  signatures.reserve(requests.size());
  for (const ServeRequest& rq : requests) {
    HARMONY_REQUIRE(rq.objective != nullptr, "serve_batch: null objective");
    signatures.push_back(&rq.signature);
  }
  (void)execute_batch(
      db_, store(), analyzer_, signatures,
      [&](std::size_t i, const DataAnalyzer::Retrieval& found)
          -> std::optional<ExperienceRecord> {
        const ServeRequest& rq = requests[i];
        ServedTuningResult& res = out[i];
        if (!found.error.empty()) {
          res.failed = true;
          res.failure = found.error;
          return std::nullopt;
        }
        // A request failure is contained here: the pool rethrows escaped
        // exceptions after the drain, which would poison the whole batch,
        // so the failing run is marked and its siblings finish untouched
        // (they share no mutable state with it).
        try {
          TuningSession session(space_, *rq.objective, opts_.tuning);
          if (const ExperienceRecord* exp = found.record) {
            session.seed(exp->measurements, opts_.use_recorded_values);
            res.experience_label = exp->label;
            res.experience_distance =
                signature_distance(rq.signature, exp->signature);
          }
          res.tuning = session.run();
          if (res.tuning.retry.exhausted > 0) {
            res.failed = true;
            res.failure =
                "retries exhausted (censored measurements in trace)";
          }
        } catch (const std::exception& e) {
          res.failed = true;
          res.failure = e.what();
        }
        // Failed runs are not stored back — censored penalties and partial
        // traces must not become training data for future warm starts.
        if (res.failed || !opts_.record_experience) return std::nullopt;
        return ExperienceRecord{rq.label, rq.signature, res.tuning.trace};
      });
  return out;
}

}  // namespace harmony
