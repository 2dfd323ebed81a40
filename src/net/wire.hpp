// Wire formats for the serving front end.
//
// Two framings share every connection-facing code path:
//
//  * Text: the line-oriented protocol of core/protocol.hpp, one message per
//    '\n'-terminated line (a trailing '\r' is stripped for telnet-style
//    clients). Human-debuggable and the compatibility format.
//
//  * Binary: length-prefixed CRC-framed messages using the experience
//    store's frame convention —
//        [u32 payload_len][u32 crc32(payload)][payload]
//    (little-endian, crc32 from util/crc32.hpp). A connection opts in by
//    sending the 4-byte preamble AB 'H' 'B' '1' before its first frame;
//    the first byte 0xAB can never start a text verb, so the mode is
//    decided by one byte. Server responses carry no preamble.
//
// Binary payloads: the hot verbs get fixed shapes that move doubles as raw
// IEEE bits (no format/parse on the FETCH/REPORT path), everything else is
// a generic tagged argument list that mirrors the text message exactly:
//
//    [kGeneric][u8 verb][u16 nargs] nargs x ([u32 len][bytes])
//    [kFetch]                                  FETCH
//    [kReport][f64 perf]                       REPORT
//    [kOk]                                     OK (no arguments)
//    [kConfig][u16 n][n x f64]                 CONFIG
//    [kDone][u16 n][n x f64][f64 perf][u32 evals][u16 rlen][rbytes]
//           [u32 full-refits][u32 incr-refits]
//           [u16 slen][sbytes]                  DONE (slen/sbytes: the
//                                               strategy tag — name of the
//                                               search kernel that ran)
//
// Both framings are value-equivalent: numbers cross the text wire through
// format_double/parse_double, and the binary codec converts through the
// same pair at the boundary, so a session driven over either framing sees
// bit-identical values.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/parameter.hpp"
#include "core/protocol.hpp"
#include "core/simplex.hpp"

namespace harmony::net {

/// Frame payloads above this are rejected as hostile (the text line length
/// shares the cap). Big enough for any RSL a tuning client ships.
inline constexpr std::size_t kMaxFrameBytes = 1u << 20;

/// Binary-mode preamble a client sends once, straight after connect.
inline constexpr unsigned char kBinaryPreamble[4] = {0xAB, 'H', 'B', '1'};

/// Payload type codes.
enum WireCode : std::uint8_t {
  kGeneric = 0,
  kFetch = 4,
  kReport = 5,
  kOk = 7,
  kConfig = 8,
  kDone = 9,
};

// --- encoding: append one frame to an output buffer ------------------------

void append_fetch_frame(std::vector<std::uint8_t>& out);
void append_report_frame(std::vector<std::uint8_t>& out, double performance);
void append_ok_frame(std::vector<std::uint8_t>& out);
void append_config_frame(std::vector<std::uint8_t>& out,
                         const Configuration& config);
/// The refit counts and the strategy tag mirror the text DONE's trailing
/// fields (serving observability); both framings surface them as extra
/// arguments after the stop reason.
void append_done_frame(std::vector<std::uint8_t>& out, const SearchResult& r,
                       std::uint32_t full_refits = 0,
                       std::uint32_t incremental_refits = 0,
                       const std::string& strategy = "simplex");
/// Any message: FETCH/REPORT/argument-free OK take their hot shapes, the
/// rest goes generic. Throws harmony::Error on an unknown verb.
void append_frame(std::vector<std::uint8_t>& out, const proto::Message& m);

// --- decoding --------------------------------------------------------------

/// Decodes one CRC-verified payload into the text-equivalent message
/// (binary doubles come back through format_double, so the result is
/// exactly what the text framing would have carried). Throws
/// harmony::Error on malformed bytes.
[[nodiscard]] proto::Message decode_frame_payload(const std::uint8_t* p,
                                                  std::size_t n);

/// Incremental stream decoder: buffers raw bytes, detects the framing from
/// the first byte (or is pinned to one mode for client use), reassembles
/// torn frames/lines across reads, verifies CRCs and enforces the length
/// cap. Wire-level violations (bad preamble, CRC mismatch, oversized
/// frame/line) throw harmony::Error — the connection layer answers with
/// ERROR and closes, since a corrupt framing layer cannot be resynced.
class StreamDecoder {
 public:
  enum class Mode { kDetect, kText, kBinary };

  explicit StreamDecoder(Mode mode = Mode::kDetect) : mode_(mode) {}

  void append(const std::uint8_t* data, std::size_t n);

  /// One decoded unit, valid until the next next()/append() call.
  struct Unit {
    enum class Kind { kNone, kLine, kFrame };
    Kind kind = Kind::kNone;
    std::string_view line;           ///< kLine (without the terminator)
    const std::uint8_t* payload = nullptr;  ///< kFrame
    std::size_t payload_len = 0;
  };

  /// Next complete line/frame, or kind == kNone when more bytes are needed.
  [[nodiscard]] Unit next();

  [[nodiscard]] Mode mode() const noexcept { return mode_; }
  /// Bytes buffered but not yet consumed by next().
  [[nodiscard]] std::size_t buffered() const noexcept {
    return buf_.size() - pos_;
  }

 private:
  Mode mode_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

}  // namespace harmony::net
