#include "core/protocol.hpp"

#include "core/rsl.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace harmony::proto {

namespace {

/// Verbs whose single argument is transmitted as rest-of-line (may contain
/// whitespace).
bool rest_of_line_verb(const std::string& verb) {
  return verb == "HELLO" || verb == "BUNDLES" || verb == "ERROR";
}

}  // namespace

std::string serialize(const Message& message) {
  HARMONY_REQUIRE(!message.verb.empty(), "message needs a verb");
  HARMONY_REQUIRE(message.verb.find_first_of(" \t\r\n") == std::string::npos,
                  "verb must not contain whitespace");
  std::string out = message.verb;
  if (rest_of_line_verb(message.verb)) {
    HARMONY_REQUIRE(message.args.size() <= 1,
                    "rest-of-line verb takes at most one argument");
    // A rest-of-line payload may hold spaces/tabs, but never a line break:
    // an embedded CR/LF would smuggle a second message past the framing.
    if (!message.args.empty()) {
      HARMONY_REQUIRE(message.args[0].find_first_of("\r\n") ==
                          std::string::npos,
                      "rest-of-line payload must not contain CR/LF");
      out += " " + message.args[0];
    }
    return out;
  }
  for (const std::string& a : message.args) {
    HARMONY_REQUIRE(a.find_first_of(" \t\r\n") == std::string::npos,
                    "argument must not contain whitespace: '" + a + "'");
    out += " " + a;
  }
  return out;
}

Message parse_message(const std::string& line) {
  if (line.find_first_of("\r\n") != std::string::npos) {
    throw Error("protocol line contains embedded CR/LF");
  }
  const std::string_view trimmed = trim(line);
  if (trimmed.empty()) throw Error("empty protocol line");
  const std::size_t sp = trimmed.find_first_of(" \t");
  Message m;
  if (sp == std::string_view::npos) {
    m.verb = std::string(trimmed);
    return m;
  }
  m.verb = std::string(trimmed.substr(0, sp));
  const std::string_view rest = trim(trimmed.substr(sp + 1));
  if (rest_of_line_verb(m.verb)) {
    if (!rest.empty()) m.args.emplace_back(rest);
  } else {
    m.args = split_ws(rest);
  }
  return m;
}

HelloPayload parse_hello_payload(const std::string& payload) {
  HelloPayload out;
  const std::vector<std::string> tokens = split_ws(trim(payload));
  if (tokens.empty()) throw Error("HELLO needs a client name");
  out.name = tokens[0];
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw Error("HELLO option must be key=value: '" + tok + "'");
    }
    const std::string key = tok.substr(0, eq);
    const std::string value = tok.substr(eq + 1);
    if (key == "strategy") {
      if (!is_search_kernel(value)) {
        throw Error("unknown strategy '" + value +
                    "' (expected simplex, ils or evolutionary)");
      }
      out.strategy = value;
    }
    // Unknown keys are ignored: older servers reject the whole line anyway,
    // newer ones must tolerate options they have not learned yet.
  }
  return out;
}

Message ok() { return {"OK", {}}; }

Message error(const std::string& what) {
  // Exception text can carry anything; fold control characters to spaces so
  // the reply always survives serialize()'s CR/LF rejection.
  std::string clean = what;
  for (char& c : clean) {
    if (c == '\r' || c == '\n' || c == '\t') c = ' ';
  }
  return {"ERROR", {std::move(clean)}};
}

ServerSession::ServerSession(SessionOptions options)
    : opts_(std::move(options)) {
  HARMONY_REQUIRE(opts_.tuning.strategy != nullptr,
                  "null initial-simplex strategy");
}

bool ServerSession::finished() const noexcept {
  return state_ == State::kClosed ||
         (kernel_ != nullptr && kernel_->finished());
}

std::optional<WorkloadSignature> ServerSession::signature_query(
    const Message& request) const {
  if (state_ != State::kTuning || !request.is("SIGNATURE")) return std::nullopt;
  try {
    return parse_signature(request);
  } catch (const Error&) {
    return std::nullopt;
  }
}

Message ServerSession::handle(const Message& request, const HostInput& host) {
  try {
    if (request.is("BYE")) return handle_bye();
    switch (state_) {
      case State::kAwaitHello:
        if (request.is("HELLO")) return handle_hello(request);
        return error("expected HELLO");
      case State::kAwaitBundles:
        if (request.is("BUNDLES")) return handle_bundles(request);
        return error("expected BUNDLES");
      case State::kTuning:
        if (request.is("SIGNATURE")) return handle_signature(request, host);
        if (request.is("FETCH")) return handle_fetch(host);
        if (request.is("REPORT")) return handle_report(request);
        return error("unexpected verb in tuning state: " + request.verb);
      case State::kClosed:
        return error("session closed");
    }
    return error("unreachable");
  } catch (const Error& e) {
    return error(e.what());
  }
}

Message ServerSession::handle_hello(const Message& m) {
  if (m.args.size() != 1 || m.args[0].empty()) {
    return error("HELLO needs a client name");
  }
  const HelloPayload hello = parse_hello_payload(m.args[0]);
  client_name_ = hello.name;
  requested_strategy_ = hello.strategy;
  state_ = State::kAwaitBundles;
  return ok();
}

void ServerSession::start_kernel(std::span<const Measurement> prior) {
  SearchSpec spec = opts_.tuning.search;
  if (!requested_strategy_.empty()) spec.kernel = requested_strategy_;
  WarmStartPlan plan =
      plan_warm_start(space_, *opts_.tuning.strategy, space_.defaults(),
                      prior, opts_.use_recorded_values);
  kernel_ = make_search_kernel(spec, space_, opts_.tuning.simplex,
                               std::move(plan.vertices),
                               std::move(plan.values), plan.history);
  kernel_name_ = kernel_->name();
}

Message ServerSession::handle_bundles(const Message& m) {
  if (m.args.size() != 1) return error("BUNDLES needs an RSL payload");
  ParameterSpace space = parse_rsl(m.args[0]);
  if (space.empty()) return error("no bundles declared");
  space_ = std::move(space);
  start_kernel({});
  state_ = State::kTuning;
  Message reply = ok();
  reply.args.push_back(std::to_string(space_.size()));
  return reply;
}

WorkloadSignature ServerSession::parse_signature(const Message& m) const {
  if (!trace_.empty() || outstanding_.has_value()) {
    throw Error("SIGNATURE must precede the first FETCH");
  }
  if (m.args.empty()) throw Error("SIGNATURE needs a length");
  const long k = parse_long(m.args[0]);
  if (k < 0 || static_cast<std::size_t>(k) + 1 != m.args.size()) {
    throw Error("SIGNATURE arity mismatch");
  }
  WorkloadSignature signature;
  for (long i = 0; i < k; ++i) {
    signature.push_back(parse_double(m.args[static_cast<std::size_t>(i) + 1]));
  }
  if (!signature_is_finite(signature)) {
    throw Error("SIGNATURE values must be finite");
  }
  return signature;
}

Message ServerSession::handle_signature(const Message& m,
                                        const HostInput& host) {
  WorkloadSignature signature =
      host.query != nullptr ? *host.query : parse_signature(m);
  // Only an accepted signature replaces the session's: it is the one the
  // finished run is stored under.
  if (!host.warm.error.empty()) return error(host.warm.error);
  signature_ = std::move(signature);
  Message reply = ok();
  if (const ExperienceRecord* exp = host.warm.record) {
    // Warm start: rebuild the kernel from the experience's measurements.
    start_kernel(exp->measurements);
    reply.args.push_back("experience");
    reply.args.push_back(exp->label);
  }
  return reply;
}

ServerSession::FetchStep ServerSession::step_fetch() {
  FetchStep step;
  if (state_ != State::kTuning) {
    step.error = state_ == State::kClosed ? "session closed"
                                          : "FETCH before BUNDLES";
    return step;
  }
  if (outstanding_.has_value()) {
    step.error = "REPORT the previous configuration first";
    return step;
  }
  const Configuration* next = kernel_->peek();
  if (next == nullptr) {
    run_over_ = true;
    step.kind = FetchStep::Kind::kDone;
    step.result = &kernel_->result();
    step.strategy = &kernel_name_;
    return step;
  }
  if (opts_.max_steps > 0 && steps_issued_ >= opts_.max_steps) {
    step.error = "session step budget exhausted";
    return step;
  }
  ++steps_issued_;
  outstanding_ = *next;
  step.kind = FetchStep::Kind::kConfig;
  step.config = &*outstanding_;
  return step;
}

const char* ServerSession::step_report(double performance) {
  if (state_ != State::kTuning) {
    return state_ == State::kClosed ? "session closed"
                                    : "REPORT before BUNDLES";
  }
  if (!outstanding_.has_value()) return "no configuration outstanding";
  trace_.push_back({*outstanding_, performance, /*estimated=*/false});
  kernel_->report(performance);
  outstanding_.reset();
  return nullptr;
}

Message ServerSession::handle_fetch(const HostInput& host) {
  const FetchStep step = step_fetch();
  if (step.kind == FetchStep::Kind::kError) return error(step.error);
  if (step.kind == FetchStep::Kind::kDone) {
    const SearchResult& r = *step.result;
    Message reply{"DONE", {}};
    reply.args.push_back(std::to_string(r.best.size()));
    for (double v : r.best) reply.args.push_back(format_double(v));
    reply.args.push_back(format_double(r.best_value));
    reply.args.push_back(std::to_string(r.evaluations));
    reply.args.push_back(r.stop_reason);
    reply.args.push_back(std::to_string(host.refits.full));
    reply.args.push_back(std::to_string(host.refits.incremental));
    reply.args.push_back(*step.strategy);
    return reply;
  }
  Message reply{"CONFIG", {}};
  reply.args.push_back(std::to_string(step.config->size()));
  for (double v : *step.config) reply.args.push_back(format_double(v));
  return reply;
}

Message ServerSession::handle_report(const Message& m) {
  if (m.args.size() != 1) return error("REPORT needs one performance value");
  const double perf = parse_double(m.args[0]);
  if (const char* err = step_report(perf)) return error(err);
  return ok();
}

Message ServerSession::handle_bye() {
  if (state_ == State::kTuning) run_over_ = true;
  state_ = State::kClosed;
  return ok();
}

std::optional<ExperienceRecord> ServerSession::take_pending_experience() {
  if (!run_over_ || experience_taken_ || !opts_.record_experience ||
      trace_.empty() || !signature_.has_value()) {
    return std::nullopt;
  }
  experience_taken_ = true;
  return ExperienceRecord{client_name_, *signature_, trace_};
}

HarmonyClient::HarmonyClient(Transport transport)
    : transport_(std::move(transport)) {
  HARMONY_REQUIRE(static_cast<bool>(transport_), "null transport");
}

Message HarmonyClient::call(const Message& m) {
  // Round-trip through the wire format so both sides exercise it.
  const Message response = parse_message(
      serialize(transport_(parse_message(serialize(m)))));
  if (response.is("ERROR")) {
    throw Error("server error: " +
                (response.args.empty() ? "?" : response.args[0]));
  }
  return response;
}

void HarmonyClient::open(const std::string& name, const std::string& rsl,
                         const std::string& strategy) {
  std::string hello = name;
  if (!strategy.empty()) hello += " strategy=" + strategy;
  (void)call({"HELLO", {hello}});
  // Collapse the RSL to one line for the wire.
  std::string flat;
  for (char c : rsl) flat += (c == '\n' || c == '\t') ? ' ' : c;
  (void)call({"BUNDLES", {flat}});
}

std::optional<std::string> HarmonyClient::send_signature(
    const WorkloadSignature& sig) {
  Message m{"SIGNATURE", {std::to_string(sig.size())}};
  for (double v : sig) m.args.push_back(format_double(v));
  const Message reply = call(m);
  if (reply.args.size() == 2 && reply.args[0] == "experience") {
    return reply.args[1];
  }
  return std::nullopt;
}

std::optional<Configuration> HarmonyClient::fetch() {
  const Message reply = call({"FETCH", {}});
  if (reply.is("CONFIG")) {
    HARMONY_REQUIRE(!reply.args.empty(), "CONFIG missing arity");
    const long n = parse_long(reply.args[0]);
    HARMONY_REQUIRE(n >= 0 && reply.args.size() ==
                                  static_cast<std::size_t>(n) + 1,
                    "CONFIG arity mismatch");
    Configuration c;
    for (long i = 0; i < n; ++i) {
      c.push_back(parse_double(reply.args[static_cast<std::size_t>(i) + 1]));
    }
    return c;
  }
  if (reply.is("DONE")) {
    HARMONY_REQUIRE(!reply.args.empty(), "DONE missing arity");
    const long n = parse_long(reply.args[0]);
    const auto un = static_cast<std::size_t>(n);
    // n, values, perf — plus optional trailing fields (evaluations and
    // stop reason today; clients tolerate any future extension).
    HARMONY_REQUIRE(n >= 0 && reply.args.size() >= un + 2,
                    "DONE arity mismatch");
    best_.clear();
    for (std::size_t i = 0; i < un; ++i) {
      best_.push_back(parse_double(reply.args[i + 1]));
    }
    best_perf_ = parse_double(reply.args[un + 1]);
    if (reply.args.size() >= un + 4) {
      evaluations_ = static_cast<int>(parse_long(reply.args[un + 2]));
      stop_reason_ = reply.args[un + 3];
    }
    if (reply.args.size() >= un + 6) {
      full_refits_ =
          static_cast<std::uint32_t>(parse_long(reply.args[un + 4]));
      incremental_refits_ =
          static_cast<std::uint32_t>(parse_long(reply.args[un + 5]));
    }
    if (reply.args.size() >= un + 7) {
      server_strategy_ = reply.args[un + 6];
    }
    done_ = true;
    return std::nullopt;
  }
  throw Error("unexpected reply to FETCH: " + reply.verb);
}

void HarmonyClient::report(double performance) {
  (void)call({"REPORT", {format_double(performance)}});
}

void HarmonyClient::close() { (void)call({"BYE", {}}); }

const Configuration& HarmonyClient::best_configuration() const {
  HARMONY_REQUIRE(done_, "no DONE received yet");
  return best_;
}

}  // namespace harmony::proto
