#include "sentinel/control.hpp"

namespace afs::sentinel {

namespace {
// Response frame flag bits (wire byte after the version).  0x01 is
// reserved: encoders leave it clear and decoders ignore it.
constexpr std::uint8_t kResponseFlagShmRing = 0x02;
}  // namespace

Buffer EncodeControlMessage(const ControlMessage& message) {
  return EncodeControlMessage(message, message.lane);
}

Buffer EncodeControlMessage(const ControlMessage& message, std::uint8_t lane) {
  Buffer out;
  out.reserve(5 + 4 + 8 * 4 + 4 + message.payload.size());
  out.push_back(kWireVersion);
  out.push_back(static_cast<std::uint8_t>(message.op));
  out.push_back(message.origin);
  out.push_back(lane);
  out.push_back(message.cache_flags);
  AppendU32(out, message.length);
  AppendU64(out, static_cast<std::uint64_t>(message.offset));
  AppendU64(out, message.range_len);
  AppendU64(out, message.trace_id);
  AppendU64(out, message.parent_span);
  AppendLenPrefixed(out, ByteSpan(message.payload));
  return out;
}

Result<ControlMessage> DecodeControlMessage(ByteSpan bytes) {
  ByteReader reader(bytes);
  ControlMessage message;
  std::uint8_t version = 0;
  std::uint8_t op = 0;
  std::uint64_t offset = 0;
  ByteSpan payload;
  if (!reader.ReadU8(version) || version != kWireVersion) {
    return ProtocolError("control message from another wire version");
  }
  if (!reader.ReadU8(op) || !reader.ReadU8(message.origin) ||
      !reader.ReadU8(message.lane) || !reader.ReadU8(message.cache_flags) ||
      !reader.ReadU32(message.length) || !reader.ReadU64(offset) ||
      !reader.ReadU64(message.range_len) ||
      !reader.ReadU64(message.trace_id) ||
      !reader.ReadU64(message.parent_span) ||
      !reader.ReadLenPrefixed(payload) || !reader.empty()) {
    return ProtocolError("malformed control message");
  }
  if (op < static_cast<std::uint8_t>(ControlOp::kRead) ||
      op > static_cast<std::uint8_t>(ControlOp::kWriteVec)) {
    return ProtocolError("unknown control op " + std::to_string(op));
  }
  message.op = static_cast<ControlOp>(op);
  message.offset = static_cast<std::int64_t>(offset);
  message.payload.assign(payload.begin(), payload.end());
  return message;
}

Buffer EncodeControlResponse(const ControlResponse& response) {
  return EncodeControlResponse(response, response.shm_ring, response.lane);
}

Buffer EncodeControlResponse(const ControlResponse& response, bool shm_ring,
                             std::uint8_t lane) {
  // When the payload rides the shm lane its bytes are omitted from the
  // frame; lane_len tells the link how many to pull off the ring.
  const bool shm_lane = (lane & kLaneShm) != 0;
  const std::uint32_t lane_len =
      shm_lane ? static_cast<std::uint32_t>(response.payload.size()) : 0;
  // The shed hint: when the responder only tagged it into the status
  // message, lift it into the typed field so the link sees it the same way.
  std::uint32_t retry_after_ms = response.retry_after_ms;
  if (retry_after_ms == 0 &&
      response.status.code() == ErrorCode::kOverloaded) {
    retry_after_ms =
        static_cast<std::uint32_t>(RetryAfterHintMs(response.status));
  }
  std::uint8_t flags = 0;
  if (shm_ring) flags |= kResponseFlagShmRing;
  Buffer out;
  out.reserve(6 + 4 * 4 + 8 + 4 + response.status.message().size() + 4 +
              (shm_lane ? 0 : response.payload.size()) + 4);
  out.push_back(kWireVersion);
  out.push_back(flags);
  AppendU16(out, static_cast<std::uint16_t>(response.status.code()));
  out.push_back(lane);
  out.push_back(response.cache_grant);
  AppendU32(out, lane_len);
  AppendU32(out, retry_after_ms);
  AppendU32(out, response.cache_lease_ms);
  AppendU32(out, response.cache_epoch);
  AppendU64(out, response.number);
  AppendLenPrefixed(out, response.status.message());
  AppendLenPrefixed(out, shm_lane ? ByteSpan() : ByteSpan(response.payload));
  obs::AppendSpans(out, response.remote_spans);
  return out;
}

Result<ControlResponse> DecodeControlResponse(ByteSpan bytes) {
  ByteReader reader(bytes);
  ControlResponse response;
  std::uint8_t version = 0;
  std::uint8_t flags = 0;
  std::uint16_t code = 0;
  std::string message;
  ByteSpan payload;
  if (!reader.ReadU8(version) || version != kWireVersion) {
    return ProtocolError("control response from another wire version");
  }
  if (!reader.ReadU8(flags) || !reader.ReadU16(code) ||
      !reader.ReadU8(response.lane) || !reader.ReadU8(response.cache_grant) ||
      !reader.ReadU32(response.lane_len) ||
      !reader.ReadU32(response.retry_after_ms) ||
      !reader.ReadU32(response.cache_lease_ms) ||
      !reader.ReadU32(response.cache_epoch) ||
      !reader.ReadU64(response.number) ||
      !reader.ReadLenPrefixedString(message) ||
      !reader.ReadLenPrefixed(payload) ||
      !obs::ReadSpans(reader, response.remote_spans) || !reader.empty()) {
    return ProtocolError("malformed control response");
  }
  response.status = Status(static_cast<ErrorCode>(code), std::move(message));
  response.payload.assign(payload.begin(), payload.end());
  response.shm_ring = (flags & kResponseFlagShmRing) != 0;
  return response;
}

}  // namespace afs::sentinel
