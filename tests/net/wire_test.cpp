#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace harmony::net {
namespace {

/// Feeds `bytes` whole and expects exactly one decoded frame back.
proto::Message decode_one(const std::vector<std::uint8_t>& bytes) {
  StreamDecoder d(StreamDecoder::Mode::kBinary);
  d.append(bytes.data(), bytes.size());
  const StreamDecoder::Unit u = d.next();
  EXPECT_EQ(u.kind, StreamDecoder::Unit::Kind::kFrame);
  return decode_frame_payload(u.payload, u.payload_len);
}

TEST(WireCodec, GenericRoundTripsEveryVerb) {
  const std::vector<proto::Message> messages = {
      {"HELLO", {"my client"}},
      {"BUNDLES", {"{ harmonyBundle x { int {0 10 1 0} } }"}},
      {"SIGNATURE", {"2", "0.5", "-3.25"}},
      {"FETCH", {}},
      {"REPORT", {"-12.5"}},
      {"BYE", {}},
      {"OK", {"experience", "prior"}},
      {"CONFIG", {"2", "3", "-2"}},
      {"DONE", {"1", "4", "-0.5", "17", "budget"}},
      {"ERROR", {"something went wrong"}},
  };
  for (const proto::Message& m : messages) {
    std::vector<std::uint8_t> bytes;
    append_frame(bytes, m);
    const proto::Message back = decode_one(bytes);
    EXPECT_EQ(back.verb, m.verb);
    EXPECT_EQ(back.args, m.args);
  }
}

TEST(WireCodec, HotShapesMatchTextFraming) {
  std::vector<std::uint8_t> bytes;
  append_fetch_frame(bytes);
  proto::Message m = decode_one(bytes);
  EXPECT_EQ(m.verb, "FETCH");
  EXPECT_TRUE(m.args.empty());

  bytes.clear();
  append_report_frame(bytes, -123.0625);
  m = decode_one(bytes);
  EXPECT_EQ(m.verb, "REPORT");
  ASSERT_EQ(m.args.size(), 1u);
  EXPECT_EQ(m.args[0], format_double(-123.0625));

  bytes.clear();
  append_config_frame(bytes, Configuration{1.5, -2.0, 1e300});
  m = decode_one(bytes);
  EXPECT_EQ(m.verb, "CONFIG");
  ASSERT_EQ(m.args.size(), 4u);
  EXPECT_EQ(m.args[0], "3");
  EXPECT_EQ(m.args[3], format_double(1e300));

  SearchResult r;
  r.best = {3.0, -2.0};
  r.best_value = -0.25;
  r.evaluations = 42;
  r.stop_reason = "perf-spread";
  bytes.clear();
  append_done_frame(bytes, r);
  m = decode_one(bytes);
  EXPECT_EQ(m.verb, "DONE");
  ASSERT_EQ(m.args.size(), 9u);
  EXPECT_EQ(m.args[0], "2");
  EXPECT_EQ(m.args[3], format_double(-0.25));
  EXPECT_EQ(m.args[4], "42");
  EXPECT_EQ(m.args[5], "perf-spread");
  // Default refit counts and strategy tag (the appended DONE extensions).
  EXPECT_EQ(m.args[6], "0");
  EXPECT_EQ(m.args[7], "0");
  EXPECT_EQ(m.args[8], "simplex");

  bytes.clear();
  append_done_frame(bytes, r, 3, 17, "evolutionary");
  m = decode_one(bytes);
  ASSERT_EQ(m.args.size(), 9u);
  EXPECT_EQ(m.args[6], "3");
  EXPECT_EQ(m.args[7], "17");
  EXPECT_EQ(m.args[8], "evolutionary");
}

TEST(WireCodec, TornFramesReassembleByteByByte) {
  std::vector<std::uint8_t> bytes;
  append_report_frame(bytes, 1.25);
  append_fetch_frame(bytes);
  StreamDecoder d(StreamDecoder::Mode::kBinary);
  std::vector<proto::Message> out;
  for (std::uint8_t b : bytes) {
    d.append(&b, 1);
    for (;;) {
      const StreamDecoder::Unit u = d.next();
      if (u.kind != StreamDecoder::Unit::Kind::kFrame) break;
      out.push_back(decode_frame_payload(u.payload, u.payload_len));
    }
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].verb, "REPORT");
  EXPECT_EQ(out[1].verb, "FETCH");
  EXPECT_EQ(d.buffered(), 0u);
}

TEST(WireCodec, CorruptCrcRejected) {
  std::vector<std::uint8_t> bytes;
  append_report_frame(bytes, 7.0);
  bytes.back() ^= 0x01;  // flip one payload bit; the CRC no longer matches
  StreamDecoder d(StreamDecoder::Mode::kBinary);
  d.append(bytes.data(), bytes.size());
  EXPECT_THROW((void)d.next(), Error);
}

TEST(WireCodec, OversizedFrameRejected) {
  // A header claiming a payload larger than kMaxFrameBytes must be
  // rejected from the length field alone, before any buffering attempt.
  std::uint8_t header[8] = {};
  const std::uint32_t len = kMaxFrameBytes + 1;
  std::memcpy(header, &len, sizeof len);
  StreamDecoder d(StreamDecoder::Mode::kBinary);
  d.append(header, sizeof header);
  EXPECT_THROW((void)d.next(), Error);
}

TEST(WireCodec, ZeroLengthFrameRejected) {
  const std::uint8_t header[8] = {};
  StreamDecoder d(StreamDecoder::Mode::kBinary);
  d.append(header, sizeof header);
  EXPECT_THROW((void)d.next(), Error);
}

TEST(WireCodec, TruncatedPayloadRejected) {
  std::vector<std::uint8_t> bytes;
  append_config_frame(bytes, Configuration{1.0, 2.0});
  StreamDecoder d(StreamDecoder::Mode::kBinary);
  d.append(bytes.data(), bytes.size());
  const StreamDecoder::Unit u = d.next();
  ASSERT_EQ(u.kind, StreamDecoder::Unit::Kind::kFrame);
  // Claim fewer payload bytes than the shape needs.
  EXPECT_THROW((void)decode_frame_payload(u.payload, u.payload_len - 4),
               Error);
  // Trailing junk past the shape is rejected too (cursor must end exactly).
  std::vector<std::uint8_t> longer(u.payload, u.payload + u.payload_len);
  longer.push_back(0);
  EXPECT_THROW((void)decode_frame_payload(longer.data(), longer.size()),
               Error);
}

TEST(WireCodec, PreambleSelectsBinaryMode) {
  StreamDecoder d;  // kDetect
  std::vector<std::uint8_t> bytes(kBinaryPreamble,
                                  kBinaryPreamble + sizeof kBinaryPreamble);
  append_fetch_frame(bytes);
  d.append(bytes.data(), bytes.size());
  const StreamDecoder::Unit u = d.next();
  EXPECT_EQ(u.kind, StreamDecoder::Unit::Kind::kFrame);
  EXPECT_EQ(d.mode(), StreamDecoder::Mode::kBinary);
}

TEST(WireCodec, BadPreambleRejected) {
  StreamDecoder d;  // kDetect: first byte 0xAB promises the full preamble
  const std::uint8_t bytes[4] = {0xAB, 'H', 'B', '9'};
  d.append(bytes, sizeof bytes);
  EXPECT_THROW((void)d.next(), Error);
}

TEST(WireCodec, TextModeSplitsLinesAndStripsCr) {
  StreamDecoder d;  // kDetect: a printable first byte selects text
  const std::string text = "HELLO app\r\nFETCH\nREP";
  d.append(reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
  StreamDecoder::Unit u = d.next();
  ASSERT_EQ(u.kind, StreamDecoder::Unit::Kind::kLine);
  EXPECT_EQ(u.line, "HELLO app");
  EXPECT_EQ(d.mode(), StreamDecoder::Mode::kText);
  u = d.next();
  ASSERT_EQ(u.kind, StreamDecoder::Unit::Kind::kLine);
  EXPECT_EQ(u.line, "FETCH");
  // The torn tail stays buffered until its newline arrives.
  EXPECT_EQ(d.next().kind, StreamDecoder::Unit::Kind::kNone);
  const std::string rest = "ORT 1.5\n";
  d.append(reinterpret_cast<const std::uint8_t*>(rest.data()), rest.size());
  u = d.next();
  ASSERT_EQ(u.kind, StreamDecoder::Unit::Kind::kLine);
  EXPECT_EQ(u.line, "REPORT 1.5");
}

TEST(WireCodec, UnterminatedTextLineCapped) {
  StreamDecoder d(StreamDecoder::Mode::kText);
  const std::vector<std::uint8_t> junk(kMaxFrameBytes + 1, 'x');
  d.append(junk.data(), junk.size());
  EXPECT_THROW((void)d.next(), Error);
}

TEST(WireCodec, DecoderSurvivesRandomBytes) {
  // Seeded fuzz over the decoder alone: any byte soup either yields units
  // or throws harmony::Error — never crashes, never loops forever.
  Rng rng(20260808);
  for (int iter = 0; iter < 200; ++iter) {
    StreamDecoder d;
    const std::size_t len =
        static_cast<std::size_t>(rng.uniform_int(1, 400));
    std::vector<std::uint8_t> bytes(len);
    for (std::uint8_t& b : bytes) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    try {
      std::size_t feed = 0;
      while (feed < bytes.size()) {
        const std::size_t chunk = std::min<std::size_t>(
            static_cast<std::size_t>(rng.uniform_int(1, 16)),
            bytes.size() - feed);
        d.append(bytes.data() + feed, chunk);
        feed += chunk;
        for (int guard = 0; guard < 1000; ++guard) {
          const StreamDecoder::Unit u = d.next();
          if (u.kind == StreamDecoder::Unit::Kind::kNone) break;
          if (u.kind == StreamDecoder::Unit::Kind::kFrame) {
            try {
              (void)decode_frame_payload(u.payload, u.payload_len);
            } catch (const Error&) {
            }
          }
        }
      }
    } catch (const Error&) {
      // Wire violation: the expected rejection path.
    }
  }
}

}  // namespace
}  // namespace harmony::net
