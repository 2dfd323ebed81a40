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
  if (requests.empty()) return out;
  for (const ServeRequest& rq : requests) {
    HARMONY_REQUIRE(rq.objective != nullptr, "serve_batch: null objective");
  }

  // Classify the whole batch against the entry-state database up front:
  // one classifier fit, then one classify_batch call for every request
  // (the least-square scan reads the history once for all of them instead
  // of once per request). Sessions start only after it returns, so the
  // parallel tasks below never wait inside a classify, and every request
  // sees the experience set a serial loop over this batch would. A
  // rejected signature fails only its own request.
  std::vector<const WorkloadSignature*> signatures;
  signatures.reserve(requests.size());
  for (const ServeRequest& rq : requests) signatures.push_back(&rq.signature);
  const std::vector<DataAnalyzer::Retrieval> found =
      analyzer_.retrieve_batch(db_, signatures);

  parallel_for(requests.size(), [&](std::size_t i) {
    const ServeRequest& rq = requests[i];
    ServedTuningResult& res = out[i];
    if (!found[i].error.empty()) {
      res.failed = true;
      res.failure = found[i].error;
      return;
    }
    // A request failure is contained here: the pool rethrows escaped
    // exceptions after the drain, which would poison the whole batch, so
    // the failing run is marked and its siblings finish untouched (they
    // share no mutable state with it).
    try {
      TuningSession session(space_, *rq.objective, opts_.tuning);
      if (const ExperienceRecord* exp = found[i].record) {
        session.seed(exp->best(space_.size() + 1), opts_.use_recorded_values);
        res.experience_label = exp->label;
        res.experience_distance =
            signature_distance(rq.signature, exp->signature);
      }
      res.tuning = session.run();
      if (res.tuning.retry.exhausted > 0) {
        res.failed = true;
        res.failure = "retries exhausted (censored measurements in trace)";
      }
    } catch (const std::exception& e) {
      res.failed = true;
      res.failure = e.what();
    }
  });

  // Experience writes are batched at run completion, in request order: the
  // database (and its version stamp) moves only after the whole batch is
  // done, which is what makes the concurrent read path above safe. Failed
  // runs are skipped — censored penalties and partial traces must not
  // become training data for future warm starts.
  if (opts_.record_experience) {
    std::vector<ExperienceRecord> records;
    records.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (out[i].failed) continue;
      ExperienceRecord rec;
      rec.label = requests[i].label;
      rec.signature = requests[i].signature;
      rec.measurements = out[i].tuning.trace;
      records.push_back(std::move(rec));
    }
    ingest_experience(db_, store(), std::move(records));
  }
  return out;
}

}  // namespace harmony
