#include "net/conn.hpp"

#include <cstring>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace harmony::net {

Connection::Connection(Fd fd, proto::SessionOptions options)
    : fd_(std::move(fd)), session_(std::move(options)) {}

bool Connection::on_input(const std::uint8_t* data, std::size_t n) {
  if (wants_close_) return true;  // draining; late bytes are ignored
  decoder_.append(data, n);
  return try_parse();
}

bool Connection::try_parse() {
  if (wants_close_ || has_pending()) return true;
  try {
    for (;;) {
      const StreamDecoder::Unit unit = decoder_.next();
      switch (unit.kind) {
        case StreamDecoder::Unit::Kind::kNone:
          return true;
        case StreamDecoder::Unit::Kind::kLine: {
          if (unit.line.empty()) continue;  // tolerate blank lines
          try {
            pending_msg_ = proto::parse_message(std::string(unit.line));
          } catch (const Error& e) {
            // Bad message on an intact framing layer: ERROR and carry on.
            queue_reply(proto::error(e.what()));
            continue;
          }
          pending_ = PendingKind::kMessage;
          return true;
        }
        case StreamDecoder::Unit::Kind::kFrame: {
          // Hot shapes skip Message construction entirely.
          if (unit.payload_len == 1 && unit.payload[0] == kFetch) {
            pending_ = PendingKind::kFetchHot;
            return true;
          }
          if (unit.payload_len == 9 && unit.payload[0] == kReport) {
            std::memcpy(&report_value_, unit.payload + 1, sizeof(double));
            pending_ = PendingKind::kReportHot;
            return true;
          }
          pending_msg_ = decode_frame_payload(unit.payload, unit.payload_len);
          pending_ = PendingKind::kMessage;
          return true;
        }
      }
    }
  } catch (const Error& e) {
    // Wire-level violation: the stream cannot be resynced.
    fatal(e.what());
    return false;
  }
}

const proto::Message* Connection::pending_message() const noexcept {
  return pending_ == PendingKind::kMessage ? &pending_msg_ : nullptr;
}

void Connection::reject_pending(const std::string& what) {
  queue_reply(proto::error(what));
  pending_ = PendingKind::kNone;
}

void Connection::execute_pending(const proto::HostInput& host) {
  switch (pending_) {
    case PendingKind::kNone:
      return;
    case PendingKind::kFetchHot: {
      const proto::ServerSession::FetchStep step = session_.step_fetch();
      switch (step.kind) {
        case proto::ServerSession::FetchStep::Kind::kConfig:
          append_config_frame(out_, *step.config);
          break;
        case proto::ServerSession::FetchStep::Kind::kDone:
          append_done_frame(out_, *step.result,
                            static_cast<std::uint32_t>(host.refits.full),
                            static_cast<std::uint32_t>(host.refits.incremental),
                            *step.strategy);
          break;
        case proto::ServerSession::FetchStep::Kind::kError:
          queue_reply(proto::error(step.error));
          break;
      }
      break;
    }
    case PendingKind::kReportHot: {
      const char* err = session_.step_report(report_value_);
      if (err == nullptr) {
        append_ok_frame(out_);
      } else {
        queue_reply(proto::error(err));
      }
      break;
    }
    case PendingKind::kMessage: {
      const proto::Message reply = session_.handle(pending_msg_, host);
      queue_reply(reply);
      if (pending_msg_.is("BYE") && reply.is("OK")) wants_close_ = true;
      break;
    }
  }
  pending_ = PendingKind::kNone;
}

void Connection::consume_output(std::size_t n) noexcept {
  out_pos_ += n;
  if (out_pos_ >= out_.size()) {
    out_.clear();
    out_pos_ = 0;
  }
}

void Connection::queue_reply(const proto::Message& m) {
  if (binary()) {
    append_frame(out_, m);
  } else {
    const std::string line = proto::serialize(m);
    out_.insert(out_.end(), line.begin(), line.end());
    out_.push_back('\n');
  }
}

void Connection::fatal(const std::string& what) {
  pending_ = PendingKind::kNone;
  try {
    queue_reply(proto::error(what));
  } catch (const Error&) {
    // Even the ERROR could not be encoded; just close.
  }
  wants_close_ = true;
}

}  // namespace harmony::net
