#include "core/protocol.hpp"

#include <string>

#include <gtest/gtest.h>

#include "core/rsl.hpp"
#include "core/server.hpp"
#include "util/error.hpp"

namespace harmony::proto {
namespace {

TEST(Wire, SerializeParseRoundTrip) {
  const Message m{"CONFIG", {"2", "3.5", "-1"}};
  const Message back = parse_message(serialize(m));
  EXPECT_EQ(back.verb, "CONFIG");
  EXPECT_EQ(back.args, m.args);
}

TEST(Wire, RestOfLineVerbsKeepWhitespace) {
  const Message m{"BUNDLES", {"{ harmonyBundle B { int {1 10 1} } }"}};
  const Message back = parse_message(serialize(m));
  ASSERT_EQ(back.args.size(), 1u);
  EXPECT_EQ(back.args[0], m.args[0]);
}

TEST(Wire, ParseHandlesExtraWhitespace) {
  const Message m = parse_message("  REPORT   42.5  ");
  EXPECT_EQ(m.verb, "REPORT");
  EXPECT_EQ(m.args, (std::vector<std::string>{"42.5"}));
}

TEST(Wire, Validation) {
  EXPECT_THROW((void)parse_message(""), Error);
  EXPECT_THROW((void)serialize(Message{"", {}}), Error);
  EXPECT_THROW((void)serialize(Message{"REPORT", {"1 2"}}), Error);
  EXPECT_NO_THROW((void)serialize(Message{"HELLO", {"my client"}}));
}

constexpr const char* kRsl =
    "{ harmonyBundle x { int {-10 10 1 0} } }"
    "{ harmonyBundle y { int {-10 10 1 0} } }";

/// Measures -(x-3)^2 - (y+2)^2; optimum (3, -2).
double measure(const Configuration& c) {
  return -(c[0] - 3.0) * (c[0] - 3.0) - (c[1] + 2.0) * (c[1] + 2.0);
}

TEST(ServerSession, HappyPathTunesToOptimum) {
  ServerSession session;
  EXPECT_EQ(session.handle({"HELLO", {"app"}}).verb, "OK");
  const Message bundles = session.handle({"BUNDLES", {kRsl}});
  ASSERT_EQ(bundles.verb, "OK");
  EXPECT_EQ(bundles.args, (std::vector<std::string>{"2"}));

  int fetches = 0;
  while (true) {
    const Message r = session.handle({"FETCH", {}});
    if (r.is("DONE")) {
      ASSERT_GE(r.args.size(), 4u);
      EXPECT_EQ(r.args[0], "2");
      const double best = std::stod(r.args[3]);
      EXPECT_GE(best, -4.0);  // near the optimum value 0
      break;
    }
    ASSERT_EQ(r.verb, "CONFIG");
    Configuration c = {std::stod(r.args[1]), std::stod(r.args[2])};
    const Message okr =
        session.handle({"REPORT", {std::to_string(measure(c))}});
    EXPECT_EQ(okr.verb, "OK");
    ++fetches;
    ASSERT_LT(fetches, 500);
  }
  EXPECT_TRUE(session.finished());
  EXPECT_EQ(static_cast<int>(session.trace().size()), fetches);
}

TEST(ServerSession, ProtocolViolationsReturnErrors) {
  ServerSession session;
  EXPECT_EQ(session.handle({"FETCH", {}}).verb, "ERROR");
  EXPECT_EQ(session.handle({"HELLO", {}}).verb, "ERROR");
  (void)session.handle({"HELLO", {"app"}});
  EXPECT_EQ(session.handle({"HELLO", {"again"}}).verb, "ERROR");
  EXPECT_EQ(session.handle({"BUNDLES", {"not rsl"}}).verb, "ERROR");
  (void)session.handle({"BUNDLES", {kRsl}});
  // REPORT before FETCH.
  EXPECT_EQ(session.handle({"REPORT", {"1.0"}}).verb, "ERROR");
  // Double FETCH.
  EXPECT_EQ(session.handle({"FETCH", {}}).verb, "CONFIG");
  EXPECT_EQ(session.handle({"FETCH", {}}).verb, "ERROR");
  // Bad report payloads.
  EXPECT_EQ(session.handle({"REPORT", {"abc"}}).verb, "ERROR");
  EXPECT_EQ(session.handle({"REPORT", {"1", "2"}}).verb, "ERROR");
  // Still recoverable.
  EXPECT_EQ(session.handle({"REPORT", {"1.5"}}).verb, "OK");
  // BYE closes.
  EXPECT_EQ(session.handle({"BYE", {}}).verb, "OK");
  EXPECT_EQ(session.handle({"FETCH", {}}).verb, "ERROR");
  EXPECT_TRUE(session.finished());
}

// Client-reachable rejections reply with the plain reason: no source path
// or line number of the check that fired.
TEST(ServerSession, ErrorRepliesCarryPlainReasons) {
  const auto reason = [](const Message& reply) {
    EXPECT_EQ(reply.verb, "ERROR");
    return reply.args.empty() ? std::string() : reply.args[0];
  };
  ServerSession session;
  EXPECT_EQ(reason(session.handle({"HELLO", {"app strategy=gradient"}})),
            "unknown strategy 'gradient' (expected simplex, ils or "
            "evolutionary)");
  EXPECT_EQ(reason(session.handle({"HELLO", {"app verbose"}})),
            "HELLO option must be key=value: 'verbose'");
  ASSERT_EQ(session.handle({"HELLO", {"app"}}).verb, "OK");
  ASSERT_EQ(session.handle({"BUNDLES", {kRsl}}).verb, "OK");
  EXPECT_EQ(reason(session.handle({"SIGNATURE", {"2", "0.5", "abc"}})),
            "invalid number: 'abc'");
  ASSERT_EQ(session.handle({"FETCH", {}}).verb, "CONFIG");
  EXPECT_EQ(reason(session.handle({"REPORT", {"1.5x"}})),
            "invalid number: '1.5x'");
}

TEST(ServerSession, DoneIsIdempotent) {
  SessionOptions opts;
  opts.tuning.simplex.max_evaluations = 30;
  ServerSession session(opts);
  (void)session.handle({"HELLO", {"app"}});
  (void)session.handle({"BUNDLES", {kRsl}});
  while (true) {
    const Message r = session.handle({"FETCH", {}});
    if (r.is("DONE")) break;
    Configuration c = {std::stod(r.args[1]), std::stod(r.args[2])};
    (void)session.handle({"REPORT", {std::to_string(measure(c))}});
  }
  const Message again = session.handle({"FETCH", {}});
  EXPECT_EQ(again.verb, "DONE");  // repeated FETCH keeps answering DONE
}

TEST(ServerSession, SignatureMustPrecedeFetch) {
  ServerSession session;
  (void)session.handle({"HELLO", {"app"}});
  (void)session.handle({"BUNDLES", {kRsl}});
  (void)session.handle({"FETCH", {}});
  EXPECT_EQ(session.handle({"SIGNATURE", {"1", "0.5"}}).verb, "ERROR");
}

TEST(ServerSession, ExperienceIsStoredAndRetrieved) {
  HistoryDatabase db;
  const DataAnalyzer analyzer;
  SessionOptions opts;
  opts.tuning.simplex.max_evaluations = 120;

  // First client tunes cold and stores experience under its signature.
  {
    ServerSession session(opts);
    const Transport s1 = host_session(session, db, analyzer);
    (void)s1({"HELLO", {"day1"}});
    (void)s1({"BUNDLES", {kRsl}});
    const Message sig = s1({"SIGNATURE", {"2", "0.8", "0.2"}});
    EXPECT_EQ(sig.verb, "OK");
    EXPECT_TRUE(sig.args.empty());  // no experience yet
    while (true) {
      const Message r = s1({"FETCH", {}});
      if (r.is("DONE")) break;
      Configuration c = {std::stod(r.args[1]), std::stod(r.args[2])};
      (void)s1({"REPORT", {std::to_string(measure(c))}});
    }
  }
  ASSERT_EQ(db.size(), 1u);
  EXPECT_EQ(db.record(0).label, "day1");

  // Second client with a nearby signature gets a warm start.
  ServerSession session(opts);
  const Transport s2 = host_session(session, db, analyzer);
  (void)s2({"HELLO", {"day2"}});
  (void)s2({"BUNDLES", {kRsl}});
  const Message sig = s2({"SIGNATURE", {"2", "0.78", "0.22"}});
  ASSERT_EQ(sig.args.size(), 2u);
  EXPECT_EQ(sig.args[0], "experience");
  EXPECT_EQ(sig.args[1], "day1");
  // With recorded values the first FETCH already reflects training: the
  // proposed configuration must be near the optimum region.
  const Message r = s2({"FETCH", {}});
  ASSERT_EQ(r.verb, "CONFIG");
  Configuration c = {std::stod(r.args[1]), std::stod(r.args[2])};
  EXPECT_GE(measure(c), -60.0);  // far better than corner configs (-200+)
}

/// Tunes one session to DONE and says BYE through `transport`; `signature`
/// (when non-empty) is sent first and its reply returned.
Message tune_through(const Transport& transport, const std::string& name,
                     const std::vector<std::string>& signature) {
  EXPECT_EQ(transport({"HELLO", {name}}).verb, "OK");
  EXPECT_EQ(transport({"BUNDLES", {kRsl}}).verb, "OK");
  Message sig_reply = ok();
  if (!signature.empty()) sig_reply = transport({"SIGNATURE", signature});
  for (int guard = 0; guard < 500; ++guard) {
    const Message r = transport({"FETCH", {}});
    if (r.is("DONE")) break;
    EXPECT_EQ(r.verb, "CONFIG");
    const Configuration c = {std::stod(r.args[1]), std::stod(r.args[2])};
    EXPECT_EQ(transport({"REPORT", {std::to_string(measure(c))}}).verb, "OK");
  }
  EXPECT_EQ(transport({"BYE", {}}).verb, "OK");
  return sig_reply;
}

TEST(ServerSession, OnlyRunsUnderAnAcceptedSignatureAreStored) {
  // A run is stored under its session's accepted signature or not at all.
  // Stored under an empty or rejected signature, it would make the history
  // mix arities, and every later SIGNATURE would be refused.
  HistoryDatabase db;
  const DataAnalyzer analyzer;
  SessionOptions opts;
  opts.tuning.simplex.max_evaluations = 25;
  auto run = [&](const std::string& name,
                 const std::vector<std::string>& signature) {
    ServerSession session(opts);
    return tune_through(host_session(session, db, analyzer), name, signature);
  };

  EXPECT_EQ(run("first", {"2", "0.8", "0.2"}).verb, "OK");
  ASSERT_EQ(db.size(), 1u);

  EXPECT_EQ(run("unsigned", {}).verb, "OK");
  const Message rejected = run("wrong-arity", {"3", "0.8", "0.2", "0.1"});
  ASSERT_EQ(rejected.verb, "ERROR");
  EXPECT_EQ(rejected.args[0], "signature arity mismatch");
  EXPECT_EQ(db.size(), 1u);

  // A rejected SIGNATURE keeps the session's previous one.
  {
    ServerSession session(opts);
    const Transport t = host_session(session, db, analyzer);
    (void)t({"HELLO", {"resent"}});
    (void)t({"BUNDLES", {kRsl}});
    EXPECT_EQ(t({"SIGNATURE", {"2", "0.7", "0.3"}}).args.size(), 2u);
    EXPECT_EQ(t({"SIGNATURE", {"1", "0.7"}}).verb, "ERROR");
    for (int guard = 0; guard < 500; ++guard) {
      const Message r = t({"FETCH", {}});
      if (r.is("DONE")) break;
      const Configuration c = {std::stod(r.args[1]), std::stod(r.args[2])};
      (void)t({"REPORT", {std::to_string(measure(c))}});
    }
  }
  ASSERT_EQ(db.size(), 2u);
  EXPECT_EQ(db.record(1).label, "resent");
  EXPECT_EQ(db.record(1).signature, (WorkloadSignature{0.7, 0.3}));

  // The history still classifies: a later session warm-starts.
  const Message warm = run("later", {"2", "0.78", "0.22"});
  ASSERT_EQ(warm.args.size(), 2u);
  EXPECT_EQ(warm.args[0], "experience");
  EXPECT_EQ(db.size(), 3u);
}

TEST(HarmonyClient, EndToEndOverLoopback) {
  HistoryDatabase db;
  const DataAnalyzer analyzer;
  SessionOptions opts;
  opts.tuning.simplex.max_evaluations = 150;
  ServerSession session(opts);
  HarmonyClient client(host_session(session, db, analyzer));

  client.open("loopback-app", kRsl);
  EXPECT_FALSE(client.send_signature({0.5, 0.5}).has_value());
  int iterations = 0;
  while (auto c = client.fetch()) {
    client.report(measure(*c));
    ++iterations;
    ASSERT_LT(iterations, 500);
  }
  EXPECT_GE(client.best_performance(), -4.0);
  EXPECT_EQ(client.best_configuration().size(), 2u);
  client.close();
  EXPECT_EQ(db.size(), 1u);
}

TEST(HarmonyClient, ServerErrorsBecomeExceptions) {
  ServerSession session;
  HarmonyClient client(
      [&](const Message& m) { return session.handle(m); });
  EXPECT_THROW(client.report(1.0), Error);  // no session opened
}

TEST(Wire, RestOfLinePayloadsCannotSmuggleMessages) {
  // Embedded CR/LF in a rest-of-line payload would let one serialized
  // message masquerade as two on a line-framed transport. Rejected at
  // serialization AND at parse, so neither endpoint trusts the other.
  EXPECT_THROW((void)serialize(Message{"HELLO", {"app\nFETCH"}}), Error);
  EXPECT_THROW((void)serialize(Message{"HELLO", {"app\rFETCH"}}), Error);
  EXPECT_THROW((void)serialize(Message{"BUNDLES", {"rsl }\nREPORT 1"}}),
               Error);
  EXPECT_THROW((void)serialize(Message{"ERROR", {"oops\nOK"}}), Error);
  EXPECT_THROW((void)serialize(Message{"REPORT", {"1\n2"}}), Error);
  EXPECT_THROW((void)parse_message("HELLO app\nFETCH"), Error);
  EXPECT_THROW((void)parse_message("FETCH\r"), Error);
  // error() sanitizes control characters, so exception text containing
  // newlines still serializes to exactly one line.
  const Message err = error("multi\nline\rmessage");
  EXPECT_NO_THROW((void)serialize(err));
  EXPECT_EQ(serialize(err).find('\n'), std::string::npos);
}

TEST(HarmonyClient, ExtendedDoneCarriesEvaluationsAndStopReason) {
  SessionOptions opts;
  opts.tuning.simplex.max_evaluations = 40;
  ServerSession session(opts);
  HarmonyClient client(
      [&](const Message& m) { return session.handle(m); });
  client.open("ext-done", kRsl);
  while (auto c = client.fetch()) client.report(measure(*c));
  // The extended DONE appends <evals> <stop-reason> after <perf>; the
  // client exposes both and still parses <perf> from its fixed position.
  EXPECT_GT(client.evaluations(), 0);
  EXPECT_FALSE(client.stop_reason().empty());
  EXPECT_EQ(client.stop_reason().find(' '), std::string::npos);
  EXPECT_GE(client.best_performance(), -4.0);
  client.close();
}

TEST(ServerSession, StepBudgetLimitsFetches) {
  SessionOptions opts;
  opts.max_steps = 3;
  ServerSession session(opts);
  (void)session.handle({"HELLO", {"budgeted"}});
  (void)session.handle({"BUNDLES", {kRsl}});
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(session.handle({"FETCH", {}}).verb, "CONFIG");
    EXPECT_EQ(session.handle({"REPORT", {"1.0"}}).verb, "OK");
  }
  const Message over = session.handle({"FETCH", {}});
  EXPECT_EQ(over.verb, "ERROR");
  EXPECT_NE(over.args[0].find("budget"), std::string::npos);
}

}  // namespace
}  // namespace harmony::proto
