#include "net/service.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>

#include "core/server.hpp"
#include "net/conn.hpp"
#include "util/error.hpp"

namespace harmony::net {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

struct TuningService::Slot {
  Connection conn;
  bool epollout = false;
};

TuningService::TuningService(HistoryDatabase& db, DataAnalyzer& analyzer,
                             ExperienceStore* store, ServiceOptions options)
    : db_(db), analyzer_(analyzer), store_(store), opts_(std::move(options)) {
  listener_ = listen_tcp(opts_.address, opts_.port, opts_.backlog, &port_);
  stop_fd_ = Fd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  HARMONY_REQUIRE(stop_fd_.valid(), "eventfd failed");
}

TuningService::~TuningService() = default;

void TuningService::stop() noexcept {
  // Async-signal-safe: one relaxed atomic store plus one write(2).
  stop_requested_.store(true, std::memory_order_relaxed);
  const std::uint64_t one = 1;
  if (stop_fd_.valid()) {
    [[maybe_unused]] const ssize_t r =
        ::write(stop_fd_.get(), &one, sizeof one);
  }
}

void TuningService::run() {
  loop_.add(listener_.get(), EPOLLIN, &listener_tag_);
  listener_armed_ = true;
  loop_.add(stop_fd_.get(), EPOLLIN, &stop_tag_);

  std::vector<Slot*> batch;
  bool deadline_set = false;
  Clock::time_point deadline{};
  epoll_event events[64];

  while (!stopping_) {
    if (stop_requested_.load(std::memory_order_relaxed)) break;

    // Coalescing decision: fire the batch when every open connection has a
    // step pending (nothing left to wait for), when the batch is full, or
    // at the window deadline.
    std::size_t pending = 0;
    std::size_t open = 0;
    for (const auto& s : conns_) {
      if (!s->conn.wants_close()) ++open;
      if (s->conn.has_pending()) ++pending;
    }
    int timeout_ms = -1;
    if (pending > 0) {
      if (!opts_.coalesce) {
        // One-at-a-time baseline: each pending step is its own dispatch.
        batch.clear();
        for (const auto& s : conns_) {
          if (s->conn.has_pending()) batch.push_back(s.get());
        }
        for (Slot* s : batch) dispatch_batch({s});
        deadline_set = false;
        continue;
      }
      const Clock::time_point now = Clock::now();
      if (!deadline_set) {
        deadline = now + std::chrono::microseconds(opts_.coalesce_window_us);
        deadline_set = true;
      }
      if (pending >= opts_.max_batch_steps || pending >= open ||
          now >= deadline) {
        batch.clear();
        for (const auto& s : conns_) {
          if (s->conn.has_pending()) batch.push_back(s.get());
        }
        dispatch_batch(batch);
        deadline_set = false;
        continue;
      }
      const auto left = std::chrono::duration_cast<std::chrono::microseconds>(
                            deadline - now)
                            .count();
      timeout_ms = static_cast<int>((left + 999) / 1000);
    } else {
      deadline_set = false;
    }

    const int n = loop_.wait(events, 64, timeout_ms);
    for (int i = 0; i < n; ++i) {
      void* p = events[i].data.ptr;
      if (p == &listener_tag_) {
        accept_ready();
        continue;
      }
      if (p == &stop_tag_) {
        std::uint64_t v = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(stop_fd_.get(), &v, sizeof v);
        stopping_ = true;
        continue;
      }
      Slot* slot = static_cast<Slot*>(p);
      const std::uint32_t ev = events[i].events;
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0 && (ev & EPOLLIN) == 0) {
        close_slot(slot);
        continue;
      }
      if ((ev & EPOLLIN) != 0 && !handle_readable(slot)) continue;
      if ((ev & EPOLLOUT) != 0) (void)flush_output(slot);
    }
  }
  drain_and_close();
}

void TuningService::accept_ready() {
  while (conns_.size() < opts_.max_sessions) {
    const int fd = ::accept4(listener_.get(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN, or a transient accept failure: retry on next wake
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto slot =
        std::make_unique<Slot>(Connection(Fd(fd), opts_.session), false);
    loop_.add(fd, EPOLLIN, slot.get());
    conns_.push_back(std::move(slot));
    ++stats_.accepted;
  }
  arm_listener(conns_.size() < opts_.max_sessions);
}

bool TuningService::handle_readable(Slot* slot) {
  for (;;) {
    std::uint8_t buf[4096];
    const ssize_t n = ::read(slot->conn.fd(), buf, sizeof buf);
    if (n > 0) {
      if (!slot->conn.on_input(buf, static_cast<std::size_t>(n))) {
        ++stats_.wire_errors;
        return flush_output(slot);  // ERROR queued; close once drained
      }
      continue;
    }
    if (n == 0) {
      close_slot(slot);
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    close_slot(slot);
    return false;
  }
}

void TuningService::dispatch_batch(const std::vector<Slot*>& batch) {
  ++stats_.batches;

  // Admission: a pending HELLO is the tenant's claim on a session slot.
  for (Slot* s : batch) {
    Connection& c = s->conn;
    if (c.admitted()) continue;
    const proto::Message* m = c.pending_message();
    if (m == nullptr || !m->is("HELLO") || m->args.empty()) continue;
    // The payload may carry options after the name (strategy=...); the
    // tenant key is the name alone. A malformed payload is admitted as-is
    // and rejected with a precise ERROR by the session state machine.
    std::string tenant = m->args[0];
    try {
      tenant = proto::parse_hello_payload(m->args[0]).name;
    } catch (const Error&) {
    }
    if (opts_.max_tenant_sessions > 0 &&
        tenant_sessions_[tenant] >= opts_.max_tenant_sessions) {
      ++stats_.rejected_sessions;
      c.reject_pending("tenant session budget exceeded: " + tenant);
    } else {
      ++tenant_sessions_[tenant];
      c.set_tenant(tenant);
      c.set_admitted();
    }
  }

  std::vector<Slot*> exec;
  exec.reserve(batch.size());
  for (Slot* s : batch) {
    if (s->conn.has_pending()) exec.push_back(s);
  }
  if (!exec.empty()) {
    stats_.steps += exec.size();
    // Each pending step is one item of the batch executor; a pending
    // SIGNATURE brings its workload as the item's query.
    std::vector<std::optional<WorkloadSignature>> parsed(exec.size());
    std::vector<const WorkloadSignature*> queries(exec.size(), nullptr);
    for (std::size_t i = 0; i < exec.size(); ++i) {
      Connection& c = exec[i]->conn;
      if (const proto::Message* m = c.pending_message()) {
        parsed[i] = c.session().signature_query(*m);
        if (parsed[i]) queries[i] = &*parsed[i];
      }
    }
    stats_.records_ingested += execute_batch(
        db_, store_, analyzer_, queries,
        [&](std::size_t i, const DataAnalyzer::Retrieval& found) {
          Connection& c = exec[i]->conn;
          c.execute_pending({queries[i], found, analyzer_.refit_stats()});
          return c.session().take_pending_experience();
        });
    // The executor's one fit per batch is usually an O(batch) incremental
    // update, not an O(db) rebuild — the stats record which.
    const auto& rs = analyzer_.refit_stats();
    stats_.full_refits = rs.full;
    stats_.incremental_refits = rs.incremental;
  }

  // Reply, pick up pipelined bytes, and close what finished. flush_output
  // may free the slot; it must be the last touch.
  for (Slot* s : batch) {
    (void)s->conn.try_parse();
    (void)flush_output(s);
  }
}

bool TuningService::flush_output(Slot* slot) {
  Connection& c = slot->conn;
  while (c.output_size() > 0) {
    const ssize_t n = ::write(c.fd(), c.output_data(), c.output_size());
    if (n > 0) {
      c.consume_output(static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!slot->epollout) {
        loop_.modify(c.fd(), EPOLLIN | EPOLLOUT, slot);
        slot->epollout = true;
      }
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    close_slot(slot);  // EPIPE/reset: the client is gone
    return false;
  }
  if (slot->epollout) {
    loop_.modify(c.fd(), EPOLLIN, slot);
    slot->epollout = false;
  }
  if (c.wants_close()) {
    close_slot(slot);
    return false;
  }
  return true;
}

void TuningService::close_slot(Slot* slot) {
  Connection& c = slot->conn;
  if (c.admitted()) {
    auto it = tenant_sessions_.find(c.tenant());
    if (it != tenant_sessions_.end() && --it->second == 0) {
      tenant_sessions_.erase(it);
    }
  }
  if (c.session().finished()) ++stats_.sessions_completed;
  loop_.remove(c.fd());
  for (auto it = conns_.begin(); it != conns_.end(); ++it) {
    if (it->get() == slot) {
      conns_.erase(it);
      break;
    }
  }
  if (!stopping_) arm_listener(conns_.size() < opts_.max_sessions);
}

void TuningService::arm_listener(bool want) {
  if (want == listener_armed_) return;
  if (want) {
    loop_.add(listener_.get(), EPOLLIN, &listener_tag_);
  } else {
    loop_.remove(listener_.get());
  }
  listener_armed_ = want;
}

void TuningService::drain_and_close() {
  stopping_ = true;
  arm_listener(false);

  // Finish the in-flight steps: one final coalesced dispatch (which also
  // ingests their experience and replies).
  std::vector<Slot*> batch;
  for (const auto& s : conns_) {
    if (s->conn.has_pending()) batch.push_back(s.get());
  }
  if (!batch.empty()) dispatch_batch(batch);

  // Push out any reply bytes still buffered (blocking writes now — the
  // acked-before-drain guarantee), then close everything.
  while (!conns_.empty()) {
    Slot* slot = conns_.back().get();
    Connection& c = slot->conn;
    if (c.output_size() > 0 && c.fd() >= 0) {
      const int flags = ::fcntl(c.fd(), F_GETFL, 0);
      if (flags >= 0) (void)::fcntl(c.fd(), F_SETFL, flags & ~O_NONBLOCK);
      while (c.output_size() > 0) {
        const ssize_t n = ::write(c.fd(), c.output_data(), c.output_size());
        if (n > 0) {
          c.consume_output(static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        break;  // the peer is gone; nothing more to deliver
      }
    }
    close_slot(slot);
  }
  if (store_ != nullptr) store_->flush();
}

}  // namespace harmony::net
