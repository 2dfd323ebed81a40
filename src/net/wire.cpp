#include "net/wire.hpp"

#include <cstring>

#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace harmony::net {

namespace {

/// Verb tags used inside generic payloads (distinct from WireCode, which
/// tags the payload *shape*).
enum VerbTag : std::uint8_t {
  kVerbHello = 1,
  kVerbBundles = 2,
  kVerbSignature = 3,
  kVerbFetch = 4,
  kVerbReport = 5,
  kVerbBye = 6,
  kVerbOk = 7,
  kVerbConfig = 8,
  kVerbDone = 9,
  kVerbError = 10,
};

std::uint8_t verb_tag(const std::string& verb) {
  if (verb == "HELLO") return kVerbHello;
  if (verb == "BUNDLES") return kVerbBundles;
  if (verb == "SIGNATURE") return kVerbSignature;
  if (verb == "FETCH") return kVerbFetch;
  if (verb == "REPORT") return kVerbReport;
  if (verb == "BYE") return kVerbBye;
  if (verb == "OK") return kVerbOk;
  if (verb == "CONFIG") return kVerbConfig;
  if (verb == "DONE") return kVerbDone;
  if (verb == "ERROR") return kVerbError;
  throw Error("binary codec: unknown verb: " + verb);
}

const char* tag_verb(std::uint8_t tag) {
  switch (tag) {
    case kVerbHello: return "HELLO";
    case kVerbBundles: return "BUNDLES";
    case kVerbSignature: return "SIGNATURE";
    case kVerbFetch: return "FETCH";
    case kVerbReport: return "REPORT";
    case kVerbBye: return "BYE";
    case kVerbOk: return "OK";
    case kVerbConfig: return "CONFIG";
    case kVerbDone: return "DONE";
    case kVerbError: return "ERROR";
    default: throw Error("binary codec: unknown verb tag");
  }
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint8_t raw[sizeof v];
  std::memcpy(raw, &v, sizeof v);
  out.insert(out.end(), raw, raw + sizeof v);
}

/// Reserves the [len][crc] header; end_frame() patches it once the payload
/// is in place — no scratch buffer, no allocation once `out` has capacity.
std::size_t begin_frame(std::vector<std::uint8_t>& out) {
  const std::size_t header = out.size();
  out.resize(header + 8);
  return header;
}

void end_frame(std::vector<std::uint8_t>& out, std::size_t header) {
  const std::size_t len = out.size() - header - 8;
  HARMONY_REQUIRE(len >= 1 && len <= kMaxFrameBytes,
                  "binary codec: frame payload out of range");
  const std::uint32_t len32 = static_cast<std::uint32_t>(len);
  const std::uint32_t crc = crc32(out.data() + header + 8, len);
  for (int i = 0; i < 4; ++i) {
    out[header + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(len32 >> (8 * i));
    out[header + 4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

/// Bounds-checked cursor over a received payload.
struct Cursor {
  const std::uint8_t* p;
  std::size_t n;
  std::size_t at = 0;

  std::uint8_t u8() {
    HARMONY_REQUIRE(at + 1 <= n, "binary codec: truncated payload");
    return p[at++];
  }
  std::uint16_t u16() {
    HARMONY_REQUIRE(at + 2 <= n, "binary codec: truncated payload");
    const std::uint16_t v =
        static_cast<std::uint16_t>(p[at]) |
        static_cast<std::uint16_t>(static_cast<std::uint16_t>(p[at + 1]) << 8);
    at += 2;
    return v;
  }
  std::uint32_t u32() {
    HARMONY_REQUIRE(at + 4 <= n, "binary codec: truncated payload");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(p[at + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    at += 4;
    return v;
  }
  double f64() {
    HARMONY_REQUIRE(at + 8 <= n, "binary codec: truncated payload");
    double v;
    std::memcpy(&v, p + at, sizeof v);
    at += 8;
    return v;
  }
  std::string bytes(std::size_t len) {
    HARMONY_REQUIRE(at + len <= n, "binary codec: truncated payload");
    std::string s(reinterpret_cast<const char*>(p + at), len);
    at += len;
    return s;
  }
  void done() const {
    HARMONY_REQUIRE(at == n, "binary codec: trailing bytes in payload");
  }
};

}  // namespace

void append_fetch_frame(std::vector<std::uint8_t>& out) {
  const std::size_t h = begin_frame(out);
  out.push_back(kFetch);
  end_frame(out, h);
}

void append_report_frame(std::vector<std::uint8_t>& out, double performance) {
  const std::size_t h = begin_frame(out);
  out.push_back(kReport);
  put_f64(out, performance);
  end_frame(out, h);
}

void append_ok_frame(std::vector<std::uint8_t>& out) {
  const std::size_t h = begin_frame(out);
  out.push_back(kOk);
  end_frame(out, h);
}

void append_config_frame(std::vector<std::uint8_t>& out,
                         const Configuration& config) {
  const std::size_t h = begin_frame(out);
  out.push_back(kConfig);
  put_u16(out, static_cast<std::uint16_t>(config.size()));
  for (double v : config) put_f64(out, v);
  end_frame(out, h);
}

void append_done_frame(std::vector<std::uint8_t>& out, const SearchResult& r,
                       std::uint32_t full_refits,
                       std::uint32_t incremental_refits,
                       const std::string& strategy) {
  const std::size_t h = begin_frame(out);
  out.push_back(kDone);
  put_u16(out, static_cast<std::uint16_t>(r.best.size()));
  for (double v : r.best) put_f64(out, v);
  put_f64(out, r.best_value);
  put_u32(out, static_cast<std::uint32_t>(r.evaluations));
  put_u16(out, static_cast<std::uint16_t>(r.stop_reason.size()));
  out.insert(out.end(), r.stop_reason.begin(), r.stop_reason.end());
  put_u32(out, full_refits);
  put_u32(out, incremental_refits);
  put_u16(out, static_cast<std::uint16_t>(strategy.size()));
  out.insert(out.end(), strategy.begin(), strategy.end());
  end_frame(out, h);
}

void append_frame(std::vector<std::uint8_t>& out, const proto::Message& m) {
  if (m.verb == "FETCH" && m.args.empty()) return append_fetch_frame(out);
  if (m.verb == "REPORT" && m.args.size() == 1) {
    return append_report_frame(out, parse_double(m.args[0]));
  }
  if (m.verb == "OK" && m.args.empty()) return append_ok_frame(out);
  const std::size_t h = begin_frame(out);
  out.push_back(kGeneric);
  out.push_back(verb_tag(m.verb));
  HARMONY_REQUIRE(m.args.size() <= 0xFFFF, "binary codec: too many arguments");
  put_u16(out, static_cast<std::uint16_t>(m.args.size()));
  for (const std::string& a : m.args) {
    put_u32(out, static_cast<std::uint32_t>(a.size()));
    out.insert(out.end(), a.begin(), a.end());
  }
  end_frame(out, h);
}

proto::Message decode_frame_payload(const std::uint8_t* p, std::size_t n) {
  Cursor c{p, n};
  const std::uint8_t code = c.u8();
  proto::Message m;
  switch (code) {
    case kFetch:
      c.done();
      m.verb = "FETCH";
      return m;
    case kOk:
      c.done();
      m.verb = "OK";
      return m;
    case kReport: {
      const double perf = c.f64();
      c.done();
      m.verb = "REPORT";
      m.args.push_back(format_double(perf));
      return m;
    }
    case kConfig: {
      const std::uint16_t count = c.u16();
      m.verb = "CONFIG";
      m.args.reserve(static_cast<std::size_t>(count) + 1);
      m.args.push_back(std::to_string(count));
      for (std::uint16_t i = 0; i < count; ++i) {
        m.args.push_back(format_double(c.f64()));
      }
      c.done();
      return m;
    }
    case kDone: {
      const std::uint16_t count = c.u16();
      m.verb = "DONE";
      m.args.reserve(static_cast<std::size_t>(count) + 7);
      m.args.push_back(std::to_string(count));
      for (std::uint16_t i = 0; i < count; ++i) {
        m.args.push_back(format_double(c.f64()));
      }
      m.args.push_back(format_double(c.f64()));
      m.args.push_back(std::to_string(c.u32()));
      const std::uint16_t rlen = c.u16();
      m.args.push_back(c.bytes(rlen));
      m.args.push_back(std::to_string(c.u32()));
      m.args.push_back(std::to_string(c.u32()));
      const std::uint16_t slen = c.u16();
      m.args.push_back(c.bytes(slen));
      c.done();
      return m;
    }
    case kGeneric: {
      m.verb = tag_verb(c.u8());
      const std::uint16_t nargs = c.u16();
      m.args.reserve(nargs);
      for (std::uint16_t i = 0; i < nargs; ++i) {
        const std::uint32_t len = c.u32();
        HARMONY_REQUIRE(len <= kMaxFrameBytes,
                        "binary codec: argument too long");
        m.args.push_back(c.bytes(len));
      }
      c.done();
      return m;
    }
    default:
      throw Error("binary codec: unknown payload code " +
                  std::to_string(static_cast<int>(code)));
  }
}

void StreamDecoder::append(const std::uint8_t* data, std::size_t n) {
  // Compact once the consumed prefix dominates, keeping steady-state
  // appends memmove-free and allocation-free after warmup.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

StreamDecoder::Unit StreamDecoder::next() {
  Unit unit;
  if (mode_ == Mode::kDetect) {
    if (buffered() == 0) return unit;
    if (buf_[pos_] == kBinaryPreamble[0]) {
      if (buffered() < sizeof kBinaryPreamble) return unit;
      HARMONY_REQUIRE(
          std::memcmp(buf_.data() + pos_, kBinaryPreamble,
                      sizeof kBinaryPreamble) == 0,
          "wire: bad binary preamble");
      pos_ += sizeof kBinaryPreamble;
      mode_ = Mode::kBinary;
    } else {
      mode_ = Mode::kText;
    }
  }
  if (mode_ == Mode::kText) {
    const std::uint8_t* start = buf_.data() + pos_;
    const void* nl = std::memchr(start, '\n', buffered());
    if (nl == nullptr) {
      HARMONY_REQUIRE(buffered() <= kMaxFrameBytes,
                      "wire: text line exceeds length cap");
      return unit;
    }
    std::size_t len = static_cast<std::size_t>(
        static_cast<const std::uint8_t*>(nl) - start);
    HARMONY_REQUIRE(len <= kMaxFrameBytes,
                    "wire: text line exceeds length cap");
    pos_ += len + 1;
    if (len > 0 && start[len - 1] == '\r') --len;
    unit.kind = Unit::Kind::kLine;
    unit.line = std::string_view(reinterpret_cast<const char*>(start), len);
    return unit;
  }
  // Binary.
  if (buffered() < 8) return unit;
  const std::uint8_t* h = buf_.data() + pos_;
  std::uint32_t len = 0, crc = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(h[i]) << (8 * i);
    crc |= static_cast<std::uint32_t>(h[4 + i]) << (8 * i);
  }
  HARMONY_REQUIRE(len >= 1 && len <= kMaxFrameBytes,
                  "wire: frame length out of range");
  if (buffered() < 8 + static_cast<std::size_t>(len)) return unit;
  const std::uint8_t* payload = h + 8;
  HARMONY_REQUIRE(crc32(payload, len) == crc, "wire: frame CRC mismatch");
  pos_ += 8 + static_cast<std::size_t>(len);
  unit.kind = Unit::Kind::kFrame;
  unit.payload = payload;
  unit.payload_len = len;
  return unit;
}

}  // namespace harmony::net
