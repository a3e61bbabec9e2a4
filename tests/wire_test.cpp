// Wire-protocol robustness tests — the acceptance bar mirrors
// snapshot_test's: every malformed-stream case (truncation at every
// header offset, bad magic/version/byte order, oversize length prefix,
// fingerprint and dim mismatch at handshake, mid-stream disconnect,
// out-of-order and unknown frames) fails with its *distinct typed*
// net::WireError, never a crash and never a hang — every read in this
// suite is deadline-bounded (set_recv_timeout), so a protocol bug shows
// up as WireTimeoutError instead of a stuck CI job. The server half of
// each case also proves resilience: one hostile connection never stops
// the ShardServer from serving the next good one.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dist/shard_server.h"
#include "net/socket.h"
#include "net/wire_format.h"

namespace gnn4ip {
namespace {

using net::FrameBuilder;
using net::FrameCursor;
using net::MsgType;

/// A live ShardServer on an ephemeral loopback port, serving on its own
/// thread for the lifetime of the fixture.
struct LiveServer {
  explicit LiveServer(dist::ShardServerOptions options = {}) {
    options.poll_ms = 20;  // fast stop() for test teardown
    server = std::make_unique<dist::ShardServer>(0, std::move(options));
    thread = std::thread([this] { server->serve(); });
  }
  ~LiveServer() {
    server->stop();
    thread.join();
  }
  [[nodiscard]] net::Socket connect() const {
    net::Socket sock = net::Socket::connect_to("127.0.0.1", server->port());
    // Nothing in this suite may hang: a missing response is a typed
    // timeout, not a stuck test.
    sock.set_recv_timeout(2000);
    return sock;
  }

  std::unique_ptr<dist::ShardServer> server;
  std::thread thread;
};

/// A well-formed Hello frame (the knobs let each test break one field).
std::vector<std::uint8_t> hello_frame(const char* magic = net::kWireMagic,
                                      std::uint32_t version = net::kWireVersion,
                                      std::uint32_t bom = net::kWireByteOrderMark,
                                      std::uint32_t dim = 0,
                                      const std::string& fingerprint = "") {
  std::vector<std::uint8_t> buf;
  FrameBuilder b(buf, MsgType::kHello);
  b.put_bytes(magic, sizeof(net::kWireMagic));
  b.put_u32(version);
  b.put_u32(bom);
  b.put_u32(dim);
  b.put_string(fingerprint);
  b.finish();
  return buf;
}

/// Send a Hello and consume the HelloAck — the preamble of every
/// post-handshake test.
void handshake(net::Socket& sock, const std::string& fingerprint = "") {
  const std::vector<std::uint8_t> hello =
      hello_frame(net::kWireMagic, net::kWireVersion, net::kWireByteOrderMark,
                  0, fingerprint);
  sock.write_all(hello.data(), hello.size());
  (void)net::expect_frame(sock, MsgType::kHelloAck);
}

// ---- Frame encode/decode over a real fd (socketpair harness) --------------

TEST(WireFrame, RoundTripsOverSocketPair) {
  auto [a, b] = net::Socket::pair();
  std::vector<std::uint8_t> buf;
  FrameBuilder out(buf, MsgType::kInfo);
  out.put_u32(7);
  out.put_u64(1234567890123ULL);
  out.put_f32(0.25F);
  out.put_string("adder#3");
  out.finish();
  a.write_all(buf.data(), buf.size());

  const net::Frame frame = net::read_frame(b);
  EXPECT_EQ(frame.type, MsgType::kInfo);
  FrameCursor cur(frame.payload);
  EXPECT_EQ(cur.get_u32("u32"), 7u);
  EXPECT_EQ(cur.get_u64("u64"), 1234567890123ULL);
  EXPECT_EQ(cur.get_f32("f32"), 0.25F);
  EXPECT_EQ(cur.get_string("str"), "adder#3");
  EXPECT_NO_THROW(cur.done("info"));
}

TEST(WireFrame, TruncationAtEveryHeaderOffsetIsTyped) {
  // A full valid frame is 5 header bytes (u32 length + u8 type) plus
  // payload. Cut the stream at every offset inside the header and the
  // first payload byte: offset 0 is a clean goodbye (connection error);
  // every later cut is a truncation. Never a crash, never a hang.
  std::vector<std::uint8_t> full;
  FrameBuilder b(full, MsgType::kInfo);
  b.put_u32(42);
  b.finish();
  ASSERT_GE(full.size(), 6u);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    auto [tx, rx] = net::Socket::pair();
    tx.write_all(full.data(), cut);
    tx.close();  // EOF after `cut` bytes
    if (cut == 0) {
      EXPECT_THROW((void)net::read_frame(rx), net::WireConnectionError)
          << "cut at " << cut;
    } else {
      EXPECT_THROW((void)net::read_frame(rx), net::WireTruncatedError)
          << "cut at " << cut;
    }
  }
}

TEST(WireFrame, OversizeLengthRejectedBeforeAllocation) {
  auto [tx, rx] = net::Socket::pair();
  // A hostile length prefix claiming ~4 GiB: read_frame must throw on
  // the prefix alone — no payload bytes exist to be read, so reaching
  // the allocation (or a blocking read) would hang or OOM instead.
  const std::uint32_t hostile = 0xFFFFFFF0u;
  tx.write_all(&hostile, sizeof(hostile));
  EXPECT_THROW((void)net::read_frame(rx), net::WireOversizeError);

  auto [tx2, rx2] = net::Socket::pair();
  const std::uint32_t barely_over = net::kMaxFrameBytes + 1;
  tx2.write_all(&barely_over, sizeof(barely_over));
  EXPECT_THROW((void)net::read_frame(rx2), net::WireOversizeError);
}

TEST(WireFrame, ZeroLengthFrameIsProtocolError) {
  auto [tx, rx] = net::Socket::pair();
  const std::uint32_t zero = 0;  // a frame must at least carry its type
  tx.write_all(&zero, sizeof(zero));
  EXPECT_THROW((void)net::read_frame(rx), net::WireProtocolError);
}

TEST(WireFrame, TrailingBytesAndShortPayloadAreTyped) {
  std::vector<std::uint8_t> buf;
  FrameBuilder b(buf, MsgType::kInfo);
  b.put_u32(1);
  b.finish();
  auto [tx, rx] = net::Socket::pair();
  tx.write_all(buf.data(), buf.size());
  const net::Frame frame = net::read_frame(rx);
  FrameCursor cur(frame.payload);
  // Reading more than the payload holds is a truncation of the frame's
  // own claim; leaving bytes unread is a protocol violation.
  EXPECT_THROW((void)cur.get_u64("too much"), net::WireTruncatedError);
  FrameCursor cur2(frame.payload);
  EXPECT_THROW(cur2.done("unread"), net::WireProtocolError);
}

TEST(WireFrame, BuilderRefusesOversizeFrames) {
  std::vector<std::uint8_t> buf;
  FrameBuilder b(buf, MsgType::kScreen);
  b.put_u32(16);
  // Declaring a bulk tail that would push the frame over the ceiling
  // must throw at finish() — before any of it hits the socket.
  EXPECT_THROW(b.finish(net::kMaxFrameBytes), net::WireOversizeError);
}

// ---- Handshake rejection (live server) ------------------------------------

TEST(WireHandshake, BadMagicIsTypedAndServerSurvives) {
  LiveServer live;
  {
    net::Socket sock = live.connect();
    const auto bad = hello_frame("G4IPWRONG");
    sock.write_all(bad.data(), bad.size());
    EXPECT_THROW((void)net::expect_frame(sock, MsgType::kHelloAck),
                 net::WireMagicError);
  }
  // The hostile connection closed; a well-formed client still gets in.
  net::Socket good = live.connect();
  EXPECT_NO_THROW(handshake(good));
}

TEST(WireHandshake, WrongVersionIsTyped) {
  LiveServer live;
  net::Socket sock = live.connect();
  const auto bad = hello_frame(net::kWireMagic, net::kWireVersion + 1);
  sock.write_all(bad.data(), bad.size());
  EXPECT_THROW((void)net::expect_frame(sock, MsgType::kHelloAck),
               net::WireVersionError);
}

TEST(WireHandshake, V1PeerIsRefusedTyped) {
  // v2 dropped v1's prefilter byte from Screen/TopK: a v1 peer would
  // mis-frame every request, so it is refused at Hello, never served.
  LiveServer live;
  net::Socket sock = live.connect();
  const auto v1 = hello_frame(net::kWireMagic, 1);
  sock.write_all(v1.data(), v1.size());
  EXPECT_THROW((void)net::expect_frame(sock, MsgType::kHelloAck),
               net::WireVersionError);
}

TEST(WireHandshake, ForeignByteOrderIsTyped) {
  LiveServer live;
  net::Socket sock = live.connect();
  const auto bad = hello_frame(net::kWireMagic, net::kWireVersion,
                               __builtin_bswap32(net::kWireByteOrderMark));
  sock.write_all(bad.data(), bad.size());
  EXPECT_THROW((void)net::expect_frame(sock, MsgType::kHelloAck),
               net::WireByteOrderError);
}

TEST(WireHandshake, FingerprintMismatchIsTyped) {
  dist::ShardServerOptions options;
  options.fingerprint = "model-A";
  LiveServer live(options);
  net::Socket sock = live.connect();
  const auto bad = hello_frame(net::kWireMagic, net::kWireVersion,
                               net::kWireByteOrderMark, 0, "model-B");
  sock.write_all(bad.data(), bad.size());
  EXPECT_THROW((void)net::expect_frame(sock, MsgType::kHelloAck),
               net::WireFingerprintError);
  // An agreeing client (and one that does not claim a fingerprint at
  // all) is still welcome.  The server fronts one connection at a time,
  // so each client hangs up before the next one expects service.
  {
    net::Socket good = live.connect();
    EXPECT_NO_THROW(handshake(good, "model-A"));
  }
  net::Socket agnostic = live.connect();
  EXPECT_NO_THROW(handshake(agnostic));
}

TEST(WireHandshake, DimMismatchAgainstLoadedStoreIsTyped) {
  LiveServer live;
  {
    // First client admits a 4-float row, fixing the store's dim.
    net::Socket sock = live.connect();
    handshake(sock);
    std::vector<std::uint8_t> buf;
    FrameBuilder admit(buf, MsgType::kAdmitRows);
    admit.put_u32(4);
    admit.put_u32(1);
    admit.put_string("seed");
    const float row[4] = {1.0F, 0.0F, 0.0F, 0.0F};
    admit.put_bytes(row, sizeof(row));
    admit.finish();
    FrameBuilder info(buf, MsgType::kInfo);  // request forces the flush
    info.finish();
    sock.write_all(buf.data(), buf.size());
    const net::Frame ack = net::expect_frame(sock, MsgType::kInfoAck);
    FrameCursor cur(ack.payload);
    EXPECT_EQ(cur.get_u32("dim"), 4u);
    EXPECT_EQ(cur.get_u64("rows"), 1u);
    EXPECT_EQ(cur.get_u64("live"), 1u);
    cur.done("InfoAck");
  }
  // Second client claims dim 8 up front: typed rejection at handshake.
  net::Socket sock = live.connect();
  const auto bad = hello_frame(net::kWireMagic, net::kWireVersion,
                               net::kWireByteOrderMark, 8);
  sock.write_all(bad.data(), bad.size());
  EXPECT_THROW((void)net::expect_frame(sock, MsgType::kHelloAck),
               net::WireDimError);
}

TEST(WireHandshake, NonHelloFirstFrameIsProtocolError) {
  LiveServer live;
  net::Socket sock = live.connect();
  std::vector<std::uint8_t> buf;
  FrameBuilder b(buf, MsgType::kInfo);  // valid frame, wrong opener
  b.finish();
  sock.write_all(buf.data(), buf.size());
  EXPECT_THROW((void)net::expect_frame(sock, MsgType::kInfoAck),
               net::WireProtocolError);
}

// ---- Mid-stream failures (live server) ------------------------------------

TEST(WireStream, UnknownFrameTypeAfterHandshakeIsTyped) {
  LiveServer live;
  net::Socket sock = live.connect();
  handshake(sock);
  std::vector<std::uint8_t> buf;
  FrameBuilder b(buf, MsgType::kHelloAck);  // a server-only type
  b.finish();
  sock.write_all(buf.data(), buf.size());
  EXPECT_THROW((void)net::expect_frame(sock, MsgType::kInfoAck),
               net::WireProtocolError);
}

TEST(WireStream, RetiredFlagFrameTypesAreTyped) {
  // Types 8 and 9 (v1's all-pairs Flag and CrossFlag requests) are
  // retired: each gets a typed protocol error, and the server keeps
  // serving the next client.
  LiveServer live;
  for (const std::uint8_t retired : {std::uint8_t{8}, std::uint8_t{9}}) {
    net::Socket sock = live.connect();
    handshake(sock);
    std::vector<std::uint8_t> buf;
    FrameBuilder b(buf, static_cast<MsgType>(retired));
    b.put_f32(0.5F);  // v1 Flag's delta, prefilter byte, candidate limit
    b.put_u8(0);
    b.put_u64(0);
    b.finish();
    sock.write_all(buf.data(), buf.size());
    EXPECT_THROW((void)net::expect_frame(sock, MsgType::kInfoAck),
                 net::WireProtocolError)
        << "frame type " << static_cast<unsigned>(retired);
  }
  net::Socket good = live.connect();
  EXPECT_NO_THROW(handshake(good));
}

TEST(WireStream, HostileProbeBlockSizeIsTyped) {
  // nrows × dim × 4 bytes would wrap a 64-bit count: the cursor must
  // compare in floats and refuse, not read a wrapped-to-zero block.
  LiveServer live;
  net::Socket sock = live.connect();
  handshake(sock);
  std::vector<std::uint8_t> buf;
  FrameBuilder b(buf, MsgType::kScreen);
  b.put_u32(0x80000000u);  // dim
  b.put_u32(0x80000000u);  // probe count
  b.put_f32(0.5F);         // delta
  b.put_u64(0);            // candidate limit (the store is empty)
  b.finish();
  sock.write_all(buf.data(), buf.size());
  EXPECT_THROW((void)net::expect_frame(sock, MsgType::kScreenResult),
               net::WireTruncatedError);
}

TEST(WireStream, TruncatedRequestGetsTypedErrorNotHang) {
  LiveServer live;
  net::Socket sock = live.connect();
  handshake(sock);
  // A frame whose length prefix promises more than ever arrives, then a
  // half-close: the server sees a mid-frame EOF, answers with the typed
  // truncation error, and closes — the client reads that error instead
  // of hanging.
  std::vector<std::uint8_t> buf;
  FrameBuilder b(buf, MsgType::kScreen);
  b.put_u32(4);
  b.finish(1024);  // declares a 1 KiB tail that never comes
  sock.write_all(buf.data(), buf.size());
  sock.shutdown_both();
  EXPECT_THROW((void)net::expect_frame(sock, MsgType::kScreenResult),
               net::WireError);
  // And the server is still alive for the next client.
  net::Socket good = live.connect();
  EXPECT_NO_THROW(handshake(good));
}

TEST(WireStream, PeerDisconnectMidResponseIsTyped) {
  // Client-side mid-stream disconnect, socketpair-harnessed so the
  // "server" can die at an exact byte offset: half a response frame,
  // then EOF.
  auto [server_end, client_end] = net::Socket::pair();
  std::vector<std::uint8_t> buf;
  FrameBuilder b(buf, MsgType::kInfoAck);
  b.put_u32(16);
  b.put_u64(100);
  b.put_u64(90);
  b.finish();
  server_end.write_all(buf.data(), buf.size() / 2);
  server_end.close();
  EXPECT_THROW((void)net::expect_frame(client_end, MsgType::kInfoAck),
               net::WireTruncatedError);
}

TEST(WireStream, CleanGoodbyeBetweenFramesIsConnectionError) {
  auto [server_end, client_end] = net::Socket::pair();
  server_end.close();  // peer gone before any frame
  EXPECT_THROW((void)net::expect_frame(client_end, MsgType::kInfoAck),
               net::WireConnectionError);
}

TEST(WireStream, ErrorFrameCarriesCodeAndMessage) {
  auto [tx, rx] = net::Socket::pair();
  std::vector<std::uint8_t> buf;
  net::build_error_frame(buf, net::WireErrorCode::kDim, "dim drift");
  tx.write_all(buf.data(), buf.size());
  try {
    (void)net::expect_frame(rx, MsgType::kInfoAck);
    FAIL() << "expected WireDimError";
  } catch (const net::WireDimError& e) {
    EXPECT_NE(std::string(e.what()).find("dim drift"), std::string::npos);
  }
}

TEST(WireStream, RecvTimeoutIsTypedNotAHang) {
  auto [tx, rx] = net::Socket::pair();
  rx.set_recv_timeout(50);  // nothing will ever arrive
  EXPECT_THROW((void)net::read_frame(rx), net::WireTimeoutError);
}

}  // namespace
}  // namespace gnn4ip
