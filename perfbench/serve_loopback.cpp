// serve_loopback — the served, write-heavy path.
//
// Why: it exercises net (wire + event loop), proto sessions, the store's
// group commit and the analyzer's incremental refit; measurement and large
// scans are almost absent (the objective is a cheap client-side function).
//
// Shape: a net::TuningService on its own thread, coalescing on, over a
// durable store recovered at start-up (a snapshot plus a log tail of
// clustered prior runs) with the least-square analyzer. One load-generator
// thread drives nproc - 1 binary-framed connections in lock-step: each
// round sends one request per open connection, then reads every reply.
// Every round's requests therefore reach the service together, so batch
// composition — and with it refits and the tuner-quality values — is a
// function of the seed, not of thread timing. Each session connects, runs
// HELLO/BUNDLES/SIGNATURE, the FETCH/REPORT loop until DONE, then BYE; every
// finished session that measured anything ingests one record.
//
// The service executes its batches on one thread (`harmony_serve --threads
// 1`): a batch holds at most nproc - 1 microsecond-scale steps, so fanning it
// out over the pool only adds thread wake-ups, and on a small VM those
// wake-ups were the main source of run-to-run spread. The loop thread then
// does all of the service's work, which is what service.cpu_* measure.
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "core/analyzer.hpp"
#include "core/store.hpp"
#include "net/service.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "probes.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using harmony::Configuration;
namespace net = harmony::net;
namespace proto = harmony::proto;

constexpr std::size_t kClusters = 128;
constexpr std::size_t kDims = 8;
constexpr std::size_t kParams = 4;
constexpr double kNoise = 0.01;
constexpr std::size_t kPriorSnapshot = 10000;
constexpr std::size_t kPriorTail = 1000;
constexpr std::size_t kPriorMeasurements = kParams + 1;  // a full simplex
constexpr std::size_t kSessions = 450;
constexpr int kMaxEvaluations = 60;
// Lock-step rounds arrive within microseconds; the window only matters if a
// round's writes straddle it, so it is generous to keep batches whole.
constexpr std::uint32_t kCoalesceUs = 20000;

struct SessionInput {
  std::size_t cluster = 0;
  harmony::WorkloadSignature signature;
};

/// One connection slot of the lock-step generator.
struct Slot {
  enum class Phase { kIdle, kHello, kBundles, kSignature, kFetch, kReport, kBye };
  Phase phase = Phase::kIdle;
  net::Fd fd;
  net::StreamDecoder decoder{net::StreamDecoder::Mode::kBinary};
  std::vector<std::uint8_t> out;
  proto::Message reply;
  std::int64_t reply_ns = 0;

  std::size_t session = 0;  ///< index into the session inputs
  std::int64_t connect_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t fetch_ns = 0;
  double pending_perf = 0.0;
  double worst = 0.0;
  int reports = 0;
};

struct GenResult {
  std::size_t done = 0;
  std::size_t measured = 0;  ///< done sessions that reported at least once
  std::size_t failed = 0;
  std::size_t warm = 0;
  double evals_sum = 0.0, best_sum = 0.0, worst_sum = 0.0;
  std::vector<double> step_us, connect_us, signature_us, fetch_us, report_us;
};

void write_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("write: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(w);
  }
}

/// Closes with an RST instead of a FIN. Thousands of sessions per run each
/// use a fresh connection; orderly closes would leave a TIME_WAIT socket
/// per session, and the kernel's connect/accept costs grow with their
/// number, so successive runs would slow each other down.
void close_abortively(net::Fd& fd) {
  const linger lg{1, 0};
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
  fd.reset();
}

const char* phase_span(Slot::Phase p) {
  switch (p) {
    case Slot::Phase::kHello: return "net.hello";
    case Slot::Phase::kBundles: return "net.bundles";
    case Slot::Phase::kSignature: return "net.signature";
    case Slot::Phase::kFetch: return "net.fetch";
    case Slot::Phase::kReport: return "net.report";
    case Slot::Phase::kBye: return "net.bye";
    case Slot::Phase::kIdle: break;
  }
  return "net.idle";
}

class LockStepGenerator {
 public:
  LockStepGenerator(std::uint16_t port, const ClusterModel& model,
                    const std::vector<SessionInput>& sessions,
                    std::size_t connections)
      : port_(port), model_(model), sessions_(sessions),
        slots_(connections), rsl_(model.rsl()) {}

  GenResult run() {
    for (Slot& s : slots_) start_next_session(s);
    std::vector<Slot*> active;
    for (;;) {
      active.clear();
      for (Slot& s : slots_) {
        if (s.phase != Slot::Phase::kIdle) active.push_back(&s);
      }
      if (active.empty()) break;
      {
        ScopedSpan span("loadgen.write");
        for (Slot* s : active) {
          compose(*s);
          s->sent_ns = now_ns();
          write_all(s->fd.get(), s->out);
          s->out.clear();
        }
      }
      {
        ScopedSpan span("loadgen.wait");
        read_replies(active);
      }
      for (Slot* s : active) handle_reply(*s);
    }
    return std::move(result_);
  }

 private:
  void start_next_session(Slot& s) {
    s.phase = Slot::Phase::kIdle;
    if (next_session_ >= sessions_.size()) return;
    s.session = next_session_++;
    s.phase = Slot::Phase::kHello;
    s.reports = 0;
    s.worst = 0.0;
    s.decoder = net::StreamDecoder(net::StreamDecoder::Mode::kBinary);
    ScopedSpan span("net.connect", s.session + 1);
    s.connect_ns = now_ns();
    s.fd = net::connect_tcp("127.0.0.1", port_);
    s.out.assign(net::kBinaryPreamble,
                 net::kBinaryPreamble + sizeof net::kBinaryPreamble);
  }

  void compose(Slot& s) {
    switch (s.phase) {
      case Slot::Phase::kHello:
        net::append_frame(s.out, {"HELLO", {"bench"}});
        break;
      case Slot::Phase::kBundles:
        net::append_frame(s.out, {"BUNDLES", {rsl_}});
        break;
      case Slot::Phase::kSignature: {
        const auto& sig = sessions_[s.session].signature;
        proto::Message m{"SIGNATURE", {std::to_string(sig.size())}};
        for (double v : sig) m.args.push_back(harmony::format_double(v));
        net::append_frame(s.out, m);
        break;
      }
      case Slot::Phase::kFetch:
        net::append_fetch_frame(s.out);
        break;
      case Slot::Phase::kReport:
        net::append_report_frame(s.out, s.pending_perf);
        break;
      case Slot::Phase::kBye:
        net::append_frame(s.out, {"BYE", {}});
        break;
      case Slot::Phase::kIdle:
        break;
    }
  }

  void read_replies(const std::vector<Slot*>& active) {
    std::vector<pollfd> fds(active.size());
    std::size_t waiting = active.size();
    for (std::size_t i = 0; i < active.size(); ++i) {
      fds[i] = {active[i]->fd.get(), POLLIN, 0};
    }
    while (waiting > 0) {
      const int n = ::poll(fds.data(), fds.size(), 30000);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("load generator: reply timeout");
      for (std::size_t i = 0; i < active.size(); ++i) {
        if (fds[i].revents == 0) continue;
        Slot& s = *active[i];
        std::uint8_t buf[4096];
        const ssize_t r = ::read(s.fd.get(), buf, sizeof buf);
        if (r == 0) throw std::runtime_error("server closed a connection");
        if (r < 0) {
          if (errno == EINTR || errno == EAGAIN) continue;
          throw std::runtime_error(std::string("read: ") +
                                   std::strerror(errno));
        }
        s.decoder.append(buf, static_cast<std::size_t>(r));
        const net::StreamDecoder::Unit unit = s.decoder.next();
        if (unit.kind != net::StreamDecoder::Unit::Kind::kFrame) continue;
        s.reply = net::decode_frame_payload(unit.payload, unit.payload_len);
        s.reply_ns = now_ns();
        fds[i].fd = -1;  // answered; ignore for the rest of the round
        --waiting;
      }
    }
  }

  void fail(Slot& s) {
    ++result_.failed;
    close_abortively(s.fd);
    start_next_session(s);
  }

  void handle_reply(Slot& s) {
    const double took_us = static_cast<double>(s.reply_ns - s.sent_ns) / 1e3;
    if (trace::enabled()) {
      trace::record_on(static_cast<int>(&s - slots_.data()),
                       "connection " + std::to_string(&s - slots_.data()),
                       phase_span(s.phase), s.sent_ns, s.reply_ns,
                       s.session + 1);
    }
    const proto::Message& m = s.reply;
    if (m.is("ERROR")) {
      fail(s);
      return;
    }
    switch (s.phase) {
      case Slot::Phase::kHello:
        s.phase = Slot::Phase::kBundles;
        return;
      case Slot::Phase::kBundles:
        result_.connect_us.push_back(
            static_cast<double>(s.reply_ns - s.connect_ns) / 1e3);
        s.phase = Slot::Phase::kSignature;
        return;
      case Slot::Phase::kSignature:
        result_.signature_us.push_back(took_us);
        if (m.args.size() == 2 && m.args[0] == "experience") ++result_.warm;
        s.phase = Slot::Phase::kFetch;
        return;
      case Slot::Phase::kFetch:
        result_.fetch_us.push_back(took_us);
        s.fetch_ns = s.sent_ns;
        if (m.is("CONFIG")) {
          Configuration c;
          for (std::size_t i = 1; i < m.args.size(); ++i) {
            c.push_back(harmony::parse_double(m.args[i]));
          }
          ScopedSpan span("client.objective", s.session + 1);
          s.pending_perf =
              model_.landscapes[sessions_[s.session].cluster](c);
          s.worst = s.reports == 0 ? s.pending_perf
                                   : std::min(s.worst, s.pending_perf);
          s.phase = Slot::Phase::kReport;
          return;
        }
        if (m.is("DONE") && !m.args.empty()) {
          // DONE <n> <v1..vn> <perf> <evals> ...
          const auto n = static_cast<std::size_t>(harmony::parse_long(m.args[0]));
          if (m.args.size() < n + 3) {
            fail(s);
            return;
          }
          result_.best_sum += harmony::parse_double(m.args[n + 1]);
          result_.evals_sum += harmony::parse_double(m.args[n + 2]);
          result_.worst_sum += s.worst;
          if (s.reports > 0) ++result_.measured;
          s.phase = Slot::Phase::kBye;
          return;
        }
        fail(s);
        return;
      case Slot::Phase::kReport:
        result_.report_us.push_back(took_us);
        result_.step_us.push_back(
            static_cast<double>(s.reply_ns - s.fetch_ns) / 1e3);
        ++s.reports;
        s.phase = Slot::Phase::kFetch;
        return;
      case Slot::Phase::kBye:
        ++result_.done;
        close_abortively(s.fd);
        start_next_session(s);
        return;
      case Slot::Phase::kIdle:
        return;
    }
  }

  std::uint16_t port_;
  const ClusterModel& model_;
  const std::vector<SessionInput>& sessions_;
  std::vector<Slot> slots_;
  std::string rsl_;
  std::size_t next_session_ = 0;
  GenResult result_;
};

class ServeLoopback final : public Workload {
 public:
  explicit ServeLoopback(std::uint64_t seed)
      : seed_(seed),
        model_(kWorldSeed, kClusters, kDims, kParams, kNoise) {
    harmony::set_thread_count(1);
    harmony::Rng rng(seed ^ 0x5e55105eULL);
    for (std::size_t i = 0; i < kSessions; ++i) {
      SessionInput in;
      in.cluster = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kClusters) - 1));
      in.signature = model_.signature(in.cluster, rng);
      sessions_.push_back(std::move(in));
    }
  }

  void prepare(const std::string& dir) override {
    write_prior_store(dir + "/prior", model_, kPriorSnapshot, kPriorTail,
                      kPriorMeasurements, seed_ + 1);
  }

  RepResult run_rep(const std::string& dir, bool traced) override {
    RepResult out;
    // Preparation: a fresh copy of the prior store, since the run appends.
    const std::string prefix = dir + "/rep";
    for (const auto& path : {harmony::ExperienceStore::log_path(""),
                             harmony::ExperienceStore::snapshot_path("")}) {
      std::filesystem::copy_file(
          dir + "/prior" + path, prefix + path,
          std::filesystem::copy_options::overwrite_existing);
    }

    // ---- set-up: recover the store, first fit, bind, start the loop ------
    const std::int64_t t0 = now_ns();
    harmony::HistoryDatabase db;
    harmony::ExperienceStore store;
    const harmony::RecoveryInfo info = store.open(prefix, db);
    const std::int64_t t_open = now_ns();
    harmony::DataAnalyzer analyzer(make_classifier(traced));
    analyzer.ensure_fitted(db);
    net::ServiceOptions so;
    so.coalesce_window_us = kCoalesceUs;
    so.session.tuning.simplex.max_evaluations = kMaxEvaluations;
    auto service =
        std::make_unique<net::TuningService>(db, analyzer, &store, so);
    std::atomic<long> loop_tid{0};
    std::string loop_error;
    std::thread loop([&] {
      if (traced) trace::name_current_track("service loop");
      loop_tid.store(current_tid());
      try {
        service->run();
      } catch (const std::exception& e) {
        loop_error = e.what();
      }
    });
    while (loop_tid.load() == 0) std::this_thread::yield();
    out.setup_s = seconds_between(t0, now_ns());
    const std::size_t prior = db.size();

    // ---- the sessions --------------------------------------------------
    const auto refits0 = analyzer.refit_stats();
    const std::uint64_t log0 = store.log_end();
    double user0 = 0, sys0 = 0, user1 = 0, sys1 = 0;
    task_cpu_s(loop_tid.load(), user0, sys0);
    const double cpu0 = process_cpu_s();
    const double gen_cpu0 = thread_cpu_s();
    const std::int64_t w0 = now_ns();
    GenResult gen;
    std::string gen_error;
    try {
      const std::size_t conns = std::max<std::size_t>(nproc() - 1, 1);
      gen = LockStepGenerator(service->port(), model_, sessions_, conns).run();
    } catch (const std::exception& e) {
      gen_error = e.what();
    }
    const std::int64_t w1 = now_ns();
    out.cpu_s = (process_cpu_s() - cpu0) - (thread_cpu_s() - gen_cpu0);
    task_cpu_s(loop_tid.load(), user1, sys1);
    out.wall_s = seconds_between(w0, w1);
    service->stop();
    loop.join();
    const net::ServiceStats stats = service->stats();
    const auto refits1 = analyzer.refit_stats();
    const std::uint64_t log1 = store.log_end();
    service.reset();
    store.close();

    // ---- output checks -------------------------------------------------
    if (!gen_error.empty()) out.errors.push_back(gen_error);
    if (!loop_error.empty()) out.errors.push_back(loop_error);
    out.sessions = kSessions;
    out.failed = kSessions - gen.done;
    if (gen.done != kSessions || gen.failed != 0) {
      out.errors.push_back("serve_loopback: " + std::to_string(gen.done) +
                           " of " + std::to_string(kSessions) +
                           " sessions reached DONE without ERROR");
    }
    if (prior != kPriorSnapshot + kPriorTail ||
        info.replayed_records != kPriorTail) {
      out.errors.push_back("serve_loopback: prior store recovered " +
                           std::to_string(prior) + " records");
    }
    {
      harmony::HistoryDatabase reopened;
      harmony::ExperienceStore check;
      check.open(prefix, reopened);
      // A session ingests its record at DONE, before the reply is sent,
      // unless it finished without measuring anything (a warm start can
      // converge on recorded values alone).
      if (reopened.size() != prior + gen.measured ||
          stats.records_ingested != gen.measured) {
        out.errors.push_back(
            "serve_loopback: reopened store holds " +
            std::to_string(reopened.size()) + " records, expected " +
            std::to_string(prior + gen.measured));
      }
    }

    const double n = static_cast<double>(std::max<std::size_t>(gen.done, 1));
    out.evals = gen.evals_sum / n;
    out.best = gen.best_sum / n;
    out.worst = gen.worst_sum / n;
    out.refits_full = refits1.full - refits0.full;
    out.refits_incr = refits1.incremental - refits0.incremental;
    out.step_us = gen.step_us;

    out.samples["net.connect_us"] = std::move(gen.connect_us);
    out.samples["net.signature_us"] = std::move(gen.signature_us);
    out.samples["net.fetch_us"] = std::move(gen.fetch_us);
    out.samples["net.report_us"] = std::move(gen.report_us);
    out.samples["net.step_us"] = std::move(gen.step_us);
    out.samples["store.open_ms"] = {seconds_between(t0, t_open) * 1e3};
    out.values["service.cpu_user_ms_per_session"] =
        (user1 - user0) * 1e3 / n;
    out.values["service.cpu_sys_ms_per_session"] = (sys1 - sys0) * 1e3 / n;
    out.values["service.steps_per_batch"] =
        stats.batches == 0 ? 0.0
                           : static_cast<double>(stats.steps) /
                                 static_cast<double>(stats.batches);
    out.values["store.log_bytes_per_session"] =
        static_cast<double>(log1 - log0) / n;
    out.values["tuner.warm_started_share"] =
        static_cast<double>(gen.warm) / n;
    if (traced) {
      out.samples["trace.attributed_share"] = {
          trace::root_time_ns(trace::current_track(), w0, w1) /
          static_cast<double>(w1 - w0)};
    }
    std::remove(harmony::ExperienceStore::log_path(prefix).c_str());
    std::remove(harmony::ExperienceStore::snapshot_path(prefix).c_str());
    return out;
  }

 private:

  std::uint64_t seed_;
  ClusterModel model_;
  std::vector<SessionInput> sessions_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_loopback(std::uint64_t seed) {
  return std::make_unique<ServeLoopback>(seed);
}

}  // namespace perfbench
