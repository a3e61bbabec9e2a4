// G4IPWIRE v2 — the length-prefixed binary protocol between the
// distributed-corpus front end (dist::DistCorpus) and shard servers
// (dist::ShardServer / gnn4ip_shardd). Byte-level spec in
// docs/FORMATS.md; this header is the single source of the constants,
// message types, error taxonomy, and the frame builder/cursor both
// sides share.
//
// Design mirrors the snapshot format deliberately: native-endian
// payloads guarded by a byte-order mark in the handshake, a magic +
// version that reject foreign streams before anything is trusted, and
// a *distinct typed error* for every malformed-input class — the wire
// is exactly the surface a hostile or confused peer pokes, so nothing
// is best-effort: a frame either parses completely or throws before
// any state changes. The oversize check runs on the length prefix
// *before* any allocation, so a hostile 4-GiB length cannot OOM the
// server; truncation anywhere mid-frame is WireTruncatedError, and a
// clean hang-up between frames is WireConnectionError (the one error
// that is a legal end of conversation server-side).
//
// Perf shape (Galois NetworkInterfaceBuffered): frames are built into
// per-connection send buffers and flushed on size/batch boundaries, so
// many small mutations ride one send(2); bulk float payloads (the N×D
// probe block of a Screen) are *not* copied into the buffer — the
// header goes in the buffer and the rows go out behind it in one
// writev (Socket::write_vectored).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "net/socket.h"

namespace gnn4ip::net {

// ---- Protocol constants ---------------------------------------------------

/// 8-byte magic opening every Hello (no terminating NUL).
inline constexpr char kWireMagic[8] = {'G', '4', 'I', 'P', 'W', 'I', 'R', 'E'};
/// Protocol version this build speaks. v2 dropped v1's prefilter byte
/// from Screen/TopK and retired frame types 8, 9, 35 and 36, so a v1
/// peer is refused at Hello (WireVersionError).
inline constexpr std::uint32_t kWireVersion = 2;
/// Byte-order mark carried in the Hello: reads back scrambled on a
/// foreign-endian peer, turning silent float garbage into a typed
/// rejection (same trick as the snapshot header).
inline constexpr std::uint32_t kWireByteOrderMark = 0x0A0B0C0Du;
/// Hard frame-size ceiling, enforced on the length prefix *before*
/// allocating the payload. Generous for real traffic (a 64 MiB frame
/// holds a million 16-float rows) and small enough that a hostile
/// length cannot OOM the process.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;
/// Send-buffer flush threshold: buffered one-way frames are flushed
/// once the buffer crosses this (roughly a jumbo packet's worth), or
/// at the latest when a request needs a response — aggregation à la
/// Galois NetworkInterfaceBuffered.
inline constexpr std::size_t kFlushThresholdBytes = 16 * 1024;

/// Frame types. Client→server use 1..31, server→client 32..62, and 63
/// is the error frame either side may send before closing. Numbers are
/// never reused: 8, 9, 35 and 36 (v1's all-pairs flag frames) are
/// retired and answered as unknown types.
enum class MsgType : std::uint8_t {
  // client → server
  kHello = 1,      // magic, version, BOM, dim, model fingerprint
  kAdmitRows = 2,  // one-way: append rows (name + D floats each)
  kRemove = 3,     // one-way: tombstone one local row
  kCompact = 4,    // one-way: compact the shard store
  kReset = 5,      // one-way: drop every row (warm-restart push)
  kScreen = 6,     // N probe rows → per-row flagged/best partials
  kTopK = 7,       // one probe row → ≤k best matches in this shard
  kSaveShard = 10, // write this store as shard file s into a directory
  kInfo = 11,      // dim / row count / live count probe
  // server → client
  kHelloAck = 32,
  kScreenResult = 33,
  kTopKResult = 34,
  kSaveAck = 37,
  kInfoAck = 38,
  kError = 63,  // u32 WireErrorCode + message; sender closes after
};

/// On-wire error codes (the kError payload). One per WireError type
/// that can cross the wire; connection/timeout errors are client-local
/// conditions and have no code.
enum class WireErrorCode : std::uint32_t {
  kMagic = 1,
  kVersion = 2,
  kByteOrder = 3,
  kDim = 4,
  kTruncated = 5,
  kOversize = 6,
  kFingerprint = 7,
  kProtocol = 8,
  kIo = 9,
};

// ---- Error taxonomy (mirrors core::SnapshotError) -------------------------

/// Base of every wire rejection — catchable as one family when the
/// caller only cares that the conversation is over.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what_arg)
      : std::runtime_error(what_arg) {}
};

/// The Hello does not open with the G4IPWIRE magic: not our protocol.
class WireMagicError final : public WireError {
 public:
  using WireError::WireError;
};

/// The peer speaks a protocol version this build does not.
class WireVersionError final : public WireError {
 public:
  using WireError::WireError;
};

/// The peer runs on a host with a different byte order.
class WireByteOrderError final : public WireError {
 public:
  using WireError::WireError;
};

/// Embedding dimensionality disagreement between peer and shard store.
class WireDimError final : public WireError {
 public:
  using WireError::WireError;
};

/// A frame ended early: the stream died mid-frame, or a payload is
/// shorter than its own fields claim.
class WireTruncatedError final : public WireError {
 public:
  using WireError::WireError;
};

/// A length prefix exceeds kMaxFrameBytes (rejected before allocation).
class WireOversizeError final : public WireError {
 public:
  using WireError::WireError;
};

/// The peer serves rows embedded by a different model than this
/// client's — scoring across fingerprints would be silent nonsense.
class WireFingerprintError final : public WireError {
 public:
  using WireError::WireError;
};

/// Structurally valid frames in an invalid order or shape: a non-Hello
/// first frame, an unknown type, trailing payload bytes, a zero-length
/// frame, a response of the wrong type.
class WireProtocolError final : public WireError {
 public:
  using WireError::WireError;
};

/// The peer hung up (or reset) at a frame boundary, or could not be
/// reached at all. Client-local; never crosses the wire as a code.
class WireConnectionError final : public WireError {
 public:
  using WireError::WireError;
};

/// A bounded read expired (tests bound every read so a protocol bug
/// can never hang a suite). Client-local.
class WireTimeoutError final : public WireError {
 public:
  using WireError::WireError;
};

/// An OS-level send/recv failure that is none of the above.
class WireIoError final : public WireError {
 public:
  using WireError::WireError;
};

/// Throw the WireError subclass matching an on-wire code (used when a
/// kError frame arrives; unknown codes throw WireProtocolError).
[[noreturn]] void throw_wire_error(WireErrorCode code,
                                   const std::string& message);

/// The on-wire code for an error about to be sent as a kError frame;
/// WireConnectionError/WireTimeoutError map to kIo (they should never
/// need to cross the wire, but a lossy mapping beats an abort).
[[nodiscard]] WireErrorCode wire_error_code(const WireError& error);

// ---- Frame encode/decode --------------------------------------------------
//
// Frame layout: u32 length (bytes after this prefix: type + payload,
// so length ≥ 1), u8 type, payload. All integers native-endian (the
// handshake BOM rejects cross-endian peers before any payload parses).
// Strings are u32 length + bytes, no terminator.

/// One decoded frame, payload owned.
struct Frame {
  MsgType type = MsgType::kError;
  std::vector<std::uint8_t> payload;
};

/// Appends one frame into an external send buffer; finish() patches
/// the length prefix. The builder writes into the *connection's*
/// buffer directly so aggregated frames are contiguous for one send.
/// For frames with a bulk tail (Screen's probe block), finish(tail)
/// counts the tail bytes into the length prefix without copying them —
/// the caller gather-writes buffer + tail (Socket::write_vectored).
class FrameBuilder {
 public:
  FrameBuilder(std::vector<std::uint8_t>& buffer, MsgType type);

  void put_u8(std::uint8_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_f32(float v);
  void put_bytes(const void* data, std::size_t size);
  void put_string(std::string_view s);

  /// Patch the length prefix; `tail_bytes` (default 0) counts a bulk
  /// payload the caller transmits behind the buffer. Throws
  /// WireOversizeError if the frame would exceed kMaxFrameBytes.
  void finish(std::size_t tail_bytes = 0);

 private:
  std::vector<std::uint8_t>& buffer_;
  std::size_t length_offset_;  // where the u32 prefix lives
};

/// Bounds-checked reader over a received payload. Every short read
/// throws WireTruncatedError naming the field; done() rejects trailing
/// bytes (a frame means exactly what it declares, nothing more).
class FrameCursor {
 public:
  explicit FrameCursor(const std::vector<std::uint8_t>& payload)
      : data_(payload.data()), size_(payload.size()) {}

  [[nodiscard]] std::uint8_t get_u8(const char* field);
  [[nodiscard]] std::uint32_t get_u32(const char* field);
  [[nodiscard]] std::uint64_t get_u64(const char* field);
  [[nodiscard]] float get_f32(const char* field);
  void get_bytes(void* out, std::size_t size, const char* field);
  [[nodiscard]] std::string get_string(const char* field);
  /// Borrow `count` floats in place (the zero-copy row read).
  [[nodiscard]] const float* get_f32_array(std::size_t count,
                                           const char* field);
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  /// Throws WireProtocolError unless the payload is fully consumed.
  void done(const char* frame_name) const;

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Read one frame. Clean EOF at the length prefix → WireConnectionError
/// (the peer is gone); EOF anywhere later → WireTruncatedError; a
/// length of 0 → WireProtocolError; a length above kMaxFrameBytes →
/// WireOversizeError *before* any allocation.
[[nodiscard]] Frame read_frame(Socket& socket);

/// read_frame + type check: a kError frame decodes and throws its
/// typed error; any other unexpected type throws WireProtocolError.
[[nodiscard]] Frame expect_frame(Socket& socket, MsgType expected);

/// Append a kError frame carrying `code` + `message` to `buffer`
/// (helper for the server's error path).
void build_error_frame(std::vector<std::uint8_t>& buffer, WireErrorCode code,
                       const std::string& message);

}  // namespace gnn4ip::net
