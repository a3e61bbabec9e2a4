#include "net/wire_format.h"

#include <cstring>

namespace gnn4ip::net {

void throw_wire_error(WireErrorCode code, const std::string& message) {
  switch (code) {
    case WireErrorCode::kMagic:
      throw WireMagicError(message);
    case WireErrorCode::kVersion:
      throw WireVersionError(message);
    case WireErrorCode::kByteOrder:
      throw WireByteOrderError(message);
    case WireErrorCode::kDim:
      throw WireDimError(message);
    case WireErrorCode::kTruncated:
      throw WireTruncatedError(message);
    case WireErrorCode::kOversize:
      throw WireOversizeError(message);
    case WireErrorCode::kFingerprint:
      throw WireFingerprintError(message);
    case WireErrorCode::kProtocol:
      throw WireProtocolError(message);
    case WireErrorCode::kIo:
      throw WireIoError(message);
  }
  throw WireProtocolError("peer sent unknown error code " +
                          std::to_string(static_cast<std::uint32_t>(code)) +
                          ": " + message);
}

WireErrorCode wire_error_code(const WireError& error) {
  if (dynamic_cast<const WireMagicError*>(&error)) {
    return WireErrorCode::kMagic;
  }
  if (dynamic_cast<const WireVersionError*>(&error)) {
    return WireErrorCode::kVersion;
  }
  if (dynamic_cast<const WireByteOrderError*>(&error)) {
    return WireErrorCode::kByteOrder;
  }
  if (dynamic_cast<const WireDimError*>(&error)) return WireErrorCode::kDim;
  if (dynamic_cast<const WireTruncatedError*>(&error)) {
    return WireErrorCode::kTruncated;
  }
  if (dynamic_cast<const WireOversizeError*>(&error)) {
    return WireErrorCode::kOversize;
  }
  if (dynamic_cast<const WireFingerprintError*>(&error)) {
    return WireErrorCode::kFingerprint;
  }
  if (dynamic_cast<const WireProtocolError*>(&error)) {
    return WireErrorCode::kProtocol;
  }
  return WireErrorCode::kIo;
}

// ---- FrameBuilder ---------------------------------------------------------

FrameBuilder::FrameBuilder(std::vector<std::uint8_t>& buffer, MsgType type)
    : buffer_(buffer), length_offset_(buffer.size()) {
  const std::uint32_t placeholder = 0;
  put_bytes(&placeholder, sizeof(placeholder));
  put_u8(static_cast<std::uint8_t>(type));
}

void FrameBuilder::put_u8(std::uint8_t v) { buffer_.push_back(v); }

void FrameBuilder::put_u32(std::uint32_t v) { put_bytes(&v, sizeof(v)); }

void FrameBuilder::put_u64(std::uint64_t v) { put_bytes(&v, sizeof(v)); }

void FrameBuilder::put_f32(float v) { put_bytes(&v, sizeof(v)); }

void FrameBuilder::put_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  buffer_.insert(buffer_.end(), bytes, bytes + size);
}

void FrameBuilder::put_string(std::string_view s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  put_bytes(s.data(), s.size());
}

void FrameBuilder::finish(std::size_t tail_bytes) {
  const std::size_t body =
      buffer_.size() - length_offset_ - sizeof(std::uint32_t) + tail_bytes;
  if (body > kMaxFrameBytes) {
    throw WireOversizeError("frame of " + std::to_string(body) +
                            " bytes exceeds the " +
                            std::to_string(kMaxFrameBytes) + "-byte ceiling");
  }
  const std::uint32_t length = static_cast<std::uint32_t>(body);
  std::memcpy(buffer_.data() + length_offset_, &length, sizeof(length));
}

// ---- FrameCursor ----------------------------------------------------------

std::uint8_t FrameCursor::get_u8(const char* field) {
  std::uint8_t v = 0;
  get_bytes(&v, sizeof(v), field);
  return v;
}

std::uint32_t FrameCursor::get_u32(const char* field) {
  std::uint32_t v = 0;
  get_bytes(&v, sizeof(v), field);
  return v;
}

std::uint64_t FrameCursor::get_u64(const char* field) {
  std::uint64_t v = 0;
  get_bytes(&v, sizeof(v), field);
  return v;
}

float FrameCursor::get_f32(const char* field) {
  float v = 0.0F;
  get_bytes(&v, sizeof(v), field);
  return v;
}

void FrameCursor::get_bytes(void* out, std::size_t size, const char* field) {
  if (size_ - pos_ < size) {
    throw WireTruncatedError("frame payload ends inside field '" +
                             std::string(field) + "' (" +
                             std::to_string(size_ - pos_) + " of " +
                             std::to_string(size) + " bytes present)");
  }
  std::memcpy(out, data_ + pos_, size);
  pos_ += size;
}

std::string FrameCursor::get_string(const char* field) {
  const std::uint32_t len = get_u32(field);
  if (size_ - pos_ < len) {
    throw WireTruncatedError("string field '" + std::string(field) +
                             "' declares " + std::to_string(len) +
                             " bytes but only " +
                             std::to_string(size_ - pos_) + " remain");
  }
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

const float* FrameCursor::get_f32_array(std::size_t count, const char* field) {
  // Compared in floats, not bytes: a hostile count × 4 could wrap.
  if ((size_ - pos_) / sizeof(float) < count) {
    throw WireTruncatedError("float block '" + std::string(field) +
                             "' declares " + std::to_string(count) +
                             " floats but only " +
                             std::to_string(size_ - pos_) + " bytes remain");
  }
  const std::size_t bytes = count * sizeof(float);
  // Payload buffers come from std::vector<uint8_t> (aligned for any
  // scalar), and the floats were packed at float offsets — but the
  // frame header is 5 bytes, so the block itself may sit unaligned;
  // the callers memcpy row-by-row, which is alignment-safe.
  const float* out = reinterpret_cast<const float*>(data_ + pos_);
  pos_ += bytes;
  return out;
}

void FrameCursor::done(const char* frame_name) const {
  if (pos_ != size_) {
    throw WireProtocolError(std::string(frame_name) + " frame carries " +
                            std::to_string(size_ - pos_) +
                            " trailing bytes past its declared fields");
  }
}

// ---- Frame IO -------------------------------------------------------------

Frame read_frame(Socket& socket) {
  std::uint32_t length = 0;
  if (!socket.read_exact_or_eof(&length, sizeof(length))) {
    throw WireConnectionError("peer closed the connection");
  }
  if (length == 0) {
    throw WireProtocolError("zero-length frame (a frame is at least a type "
                            "byte)");
  }
  // The ceiling check precedes the allocation: a hostile length prefix
  // must not be able to reserve gigabytes before it is rejected.
  if (length > kMaxFrameBytes) {
    throw WireOversizeError("frame declares " + std::to_string(length) +
                            " bytes; the ceiling is " +
                            std::to_string(kMaxFrameBytes));
  }
  std::uint8_t type = 0;
  socket.read_exact(&type, sizeof(type));
  Frame frame;
  frame.type = static_cast<MsgType>(type);
  frame.payload.resize(length - 1);
  if (!frame.payload.empty()) {
    socket.read_exact(frame.payload.data(), frame.payload.size());
  }
  return frame;
}

Frame expect_frame(Socket& socket, MsgType expected) {
  Frame frame = read_frame(socket);
  if (frame.type == expected) return frame;
  if (frame.type == MsgType::kError) {
    FrameCursor cur(frame.payload);
    const auto code = static_cast<WireErrorCode>(cur.get_u32("error code"));
    const std::string message = cur.get_string("error message");
    throw_wire_error(code, message);
  }
  throw WireProtocolError(
      "expected frame type " +
      std::to_string(static_cast<unsigned>(expected)) + " but peer sent " +
      std::to_string(static_cast<unsigned>(frame.type)));
}

void build_error_frame(std::vector<std::uint8_t>& buffer, WireErrorCode code,
                       const std::string& message) {
  FrameBuilder b(buffer, MsgType::kError);
  b.put_u32(static_cast<std::uint32_t>(code));
  b.put_string(message);
  b.finish();
}

}  // namespace gnn4ip::net
