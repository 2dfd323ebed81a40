#include "net/service.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <latch>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/analyzer.hpp"
#include "core/history.hpp"
#include "core/protocol.hpp"
#include "net/client.hpp"
#include "util/error.hpp"

namespace harmony::net {
namespace {

constexpr const char* kRsl =
    "{ harmonyBundle x { int {-10 10 1 0} } }"
    "{ harmonyBundle y { int {-10 10 1 0} } }";

double measure(const Configuration& c) {
  return -(c[0] - 3.0) * (c[0] - 3.0) - (c[1] + 2.0) * (c[1] + 2.0);
}

/// Runs a service on a background thread for the scope of a test.
class ServiceFixture {
 public:
  explicit ServiceFixture(ServiceOptions opts = {})
      : service_(db_, analyzer_, nullptr, std::move(opts)),
        thread_([this] { service_.run(); }) {}

  ~ServiceFixture() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      service_.stop();
      thread_.join();
    }
  }

  [[nodiscard]] std::uint16_t port() const noexcept { return service_.port(); }
  [[nodiscard]] TuningService& service() noexcept { return service_; }
  [[nodiscard]] HistoryDatabase& db() noexcept { return db_; }

 private:
  HistoryDatabase db_;
  DataAnalyzer analyzer_;
  TuningService service_;
  std::thread thread_;
};

struct SessionOutcome {
  double best_perf = 0.0;
  Configuration best;
  int evaluations = 0;
  std::string stop_reason;
};

SessionOutcome run_session(std::uint16_t port, bool binary,
                           const std::string& label = "app") {
  SocketTransport transport("127.0.0.1", port, binary);
  proto::HarmonyClient client(
      [&transport](const proto::Message& m) { return transport(m); });
  client.open(label, kRsl);
  (void)client.send_signature({0.0});
  while (const std::optional<Configuration> config = client.fetch()) {
    client.report(measure(*config));
  }
  SessionOutcome out;
  out.best_perf = client.best_performance();
  out.best = client.best_configuration();
  out.evaluations = client.evaluations();
  out.stop_reason = client.stop_reason();
  client.close();
  return out;
}

TEST(TuningService, ConcurrentTextAndBinaryClientsAgree) {
  ServiceOptions opts;
  opts.session.tuning.simplex.max_evaluations = 30;
  opts.session.record_experience = false;  // keep every session cold
  ServiceFixture fixture(opts);

  std::vector<SessionOutcome> outcomes(3);
  std::vector<std::thread> clients;
  clients.emplace_back(
      [&] { outcomes[0] = run_session(fixture.port(), false); });
  clients.emplace_back(
      [&] { outcomes[1] = run_session(fixture.port(), true); });
  clients.emplace_back(
      [&] { outcomes[2] = run_session(fixture.port(), false); });
  for (std::thread& t : clients) t.join();

  // Identical cold sessions: same search, same framings, same answer —
  // bit-identical across text and binary.
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(outcomes[i].best_perf, outcomes[0].best_perf);
    EXPECT_EQ(outcomes[i].best, outcomes[0].best);
    EXPECT_EQ(outcomes[i].evaluations, outcomes[0].evaluations);
    EXPECT_EQ(outcomes[i].stop_reason, outcomes[0].stop_reason);
  }
  EXPECT_GT(outcomes[0].evaluations, 0);
  EXPECT_NEAR(outcomes[0].best[0], 3.0, 1.0);
  EXPECT_NEAR(outcomes[0].best[1], -2.0, 1.0);

  fixture.stop();
  EXPECT_GE(fixture.service().stats().sessions_completed, 3u);
  EXPECT_EQ(fixture.service().stats().wire_errors, 0u);
}

TEST(TuningService, ExperienceAccumulatesAcrossSessions) {
  ServiceOptions opts;
  opts.session.tuning.simplex.max_evaluations = 20;
  ServiceFixture fixture(opts);

  (void)run_session(fixture.port(), false, "first");
  (void)run_session(fixture.port(), true, "second");
  fixture.stop();

  EXPECT_EQ(fixture.db().size(), 2u);
  EXPECT_EQ(fixture.service().stats().records_ingested, 2u);
}

TEST(TuningService, TenantBudgetRejectsWithCleanError) {
  ServiceOptions opts;
  opts.session.tuning.simplex.max_evaluations = 20;
  opts.max_tenant_sessions = 1;
  ServiceFixture fixture(opts);

  // Hold one session open for the tenant, then try a second.
  SocketTransport held("127.0.0.1", fixture.port(), false);
  proto::HarmonyClient first(
      [&held](const proto::Message& m) { return held(m); });
  first.open("tenant-a", kRsl);

  SocketTransport second("127.0.0.1", fixture.port(), false);
  const proto::Message reply = second({"HELLO", {"tenant-a"}});
  EXPECT_EQ(reply.verb, "ERROR");
  ASSERT_FALSE(reply.args.empty());
  EXPECT_NE(reply.args[0].find("budget"), std::string::npos);

  // A different tenant is unaffected, and the server stayed healthy.
  (void)run_session(fixture.port(), false, "tenant-b");

  first.close();
  fixture.stop();
  EXPECT_EQ(fixture.service().stats().rejected_sessions, 1u);
}

TEST(TuningService, DrainFinishesInFlightStepsAndExitsCleanly) {
  ServiceOptions opts;
  opts.session.tuning.simplex.max_evaluations = 20;
  ServiceFixture fixture(opts);

  // A session abandoned mid-tune (EOF) must not record experience or wedge
  // the loop.
  {
    SocketTransport t("127.0.0.1", fixture.port(), false);
    proto::HarmonyClient c([&t](const proto::Message& m) { return t(m); });
    c.open("abandoned", kRsl);
    (void)c.fetch();
    // Transport closes here without BYE.
  }
  (void)run_session(fixture.port(), false, "finished");
  fixture.stop();

  EXPECT_EQ(fixture.db().size(), 1u);  // only the finished session recorded
  const ServiceStats& s = fixture.service().stats();
  EXPECT_EQ(s.sessions_completed, 1u);
  EXPECT_GE(s.accepted, 2u);
}

/// Tunes one session to DONE; `signature`, when non-empty, is sent first,
/// and the server's rejection of it is returned (empty when accepted).
std::string run_signed_session(std::uint16_t port, bool binary,
                               const std::string& label,
                               const WorkloadSignature& signature) {
  SocketTransport transport("127.0.0.1", port, binary);
  proto::HarmonyClient client(
      [&transport](const proto::Message& m) { return transport(m); });
  client.open(label, kRsl);
  std::string rejection;
  if (!signature.empty()) {
    try {
      (void)client.send_signature(signature);
    } catch (const Error& e) {
      rejection = e.what();
    }
  }
  while (const std::optional<Configuration> config = client.fetch()) {
    client.report(measure(*config));
  }
  client.close();
  return rejection;
}

TEST(TuningService, OnlyRunsUnderAnAcceptedSignatureAreStored) {
  // A client that never sends SIGNATURE, or whose SIGNATURE the history
  // rejects, still tunes to DONE but stores nothing: ingested under an
  // empty or wrong-arity signature, its run would make the history mix
  // arities, and the server would refuse every later SIGNATURE.
  ServiceOptions opts;
  opts.session.tuning.simplex.max_evaluations = 20;
  ServiceFixture fixture(opts);
  const std::uint16_t port = fixture.port();

  EXPECT_EQ(run_signed_session(port, false, "first", {0.0}), "");
  for (const bool binary : {false, true}) {
    SCOPED_TRACE(binary ? "binary" : "text");
    EXPECT_EQ(run_signed_session(port, binary, "unsigned", {}), "");
    EXPECT_EQ(run_signed_session(port, binary, "wrong-arity", {0.5, 0.5}),
              "server error: signature arity mismatch");
    EXPECT_EQ(run_signed_session(port, binary, "later", {0.25}), "");
  }
  fixture.stop();

  ASSERT_EQ(fixture.db().size(), 3u);
  EXPECT_EQ(fixture.db().record(1).label, "later");
  EXPECT_EQ(fixture.db().record(2).label, "later");
  for (std::size_t i = 0; i < fixture.db().size(); ++i) {
    EXPECT_EQ(fixture.db().record(i).signature.size(), 1u);
  }
  EXPECT_EQ(fixture.service().stats().records_ingested, 3u);
}

TEST(TuningService, OneBatchCannotMixSignatureAritiesInAnEmptyHistory) {
  // Two SIGNATUREs of different arities in one dispatch batch against an
  // empty history: the first fixes the arity and the other is rejected, so
  // the finished runs never leave the history mixing arities.
  ServiceOptions opts;
  opts.session.tuning.simplex.max_evaluations = 20;
  // Far longer than the two clients need to send after the latch: the
  // batch waits for the second SIGNATURE, and fires as soon as it lands
  // because every connection then has a pending step.
  opts.coalesce_window_us = 1'000'000;
  ServiceFixture fixture(opts);
  const std::uint16_t port = fixture.port();

  const std::vector<WorkloadSignature> signatures = {{0.5}, {0.5, 0.5}};
  std::vector<std::string> rejections(signatures.size());
  std::latch opened(static_cast<std::ptrdiff_t>(signatures.size()));
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < signatures.size(); ++i) {
    clients.emplace_back([&, i] {
      SocketTransport transport("127.0.0.1", port, i == 1);
      proto::HarmonyClient client(
          [&transport](const proto::Message& m) { return transport(m); });
      client.open("client" + std::to_string(i), kRsl);
      opened.arrive_and_wait();
      try {
        (void)client.send_signature(signatures[i]);
      } catch (const Error& e) {
        rejections[i] = e.what();
      }
      while (const std::optional<Configuration> config = client.fetch()) {
        client.report(measure(*config));
      }
      client.close();
    });
  }
  for (std::thread& t : clients) t.join();

  const std::size_t accepted = rejections[0].empty() ? 0 : 1;
  EXPECT_TRUE(rejections[accepted].empty());
  EXPECT_EQ(rejections[1 - accepted],
            "server error: signature arity mismatch");
  const std::size_t arity = signatures[accepted].size();
  EXPECT_EQ(run_signed_session(port, false, "later",
                               WorkloadSignature(arity, 0.25)),
            "");
  fixture.stop();

  ASSERT_EQ(fixture.db().size(), 2u);
  for (std::size_t i = 0; i < fixture.db().size(); ++i) {
    EXPECT_EQ(fixture.db().record(i).signature.size(), arity);
  }
}

TEST(TuningService, StatsCountBatchesAndSteps) {
  ServiceOptions opts;
  opts.session.tuning.simplex.max_evaluations = 20;
  ServiceFixture fixture(opts);
  (void)run_session(fixture.port(), true, "counted");
  fixture.stop();
  const ServiceStats& s = fixture.service().stats();
  EXPECT_GT(s.steps, 0u);
  EXPECT_GT(s.batches, 0u);
  EXPECT_GE(s.steps, s.batches);
}

}  // namespace
}  // namespace harmony::net
