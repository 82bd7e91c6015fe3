// The control protocol: typed commands flowing from application stubs to
// the sentinel, and their responses.  This is what rides the control
// channel of the process-plus-control strategy (paper Section 4.2 — "all
// other file operations are now passed to the sentinel process as commands
// with arguments") and the rendezvous slot of the DLL-with-thread strategy.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "obs/trace.hpp"

namespace afs::sentinel {

// First byte of every control message and response frame.  Both ends of
// a link come from one build, so the layout is fixed: every field is
// always present, and a frame with another version byte, missing bytes or
// trailing bytes is rejected with kProtocolError (docs/PROTOCOL.md §3.4).
// Bump on any layout change.
inline constexpr std::uint8_t kWireVersion = 0xA1;

// Lane bit (messages and responses): the bulk payload of this frame rides
// the shared-memory ring instead of the pipe/frame it would classically
// use.
inline constexpr std::uint8_t kLaneShm = 0x01;

// Cache-lease bits (docs/PROTOCOL.md §3.4, docs/CACHING.md).
// Message side — `cache_flags`:
//   kCacheWantLease  : the client runs a block cache and wants a lease on
//                      this bundle; a sentinel without lease state grants
//                      nothing, degrading the client to passthrough.
//   kCacheRecallAck  : the client has dropped its cached blocks for the
//                      epoch the sentinel is recalling; the sentinel clears
//                      its recall latch (idempotent — a lost ack just means
//                      the next op carries it again).
inline constexpr std::uint8_t kCacheWantLease = 0x01;
inline constexpr std::uint8_t kCacheRecallAck = 0x02;
// Response side — `cache_grant`:
//   kGrantRead/kGrantWrite : the sentinel grants a read / read+write lease
//                            for `cache_lease_ms` on content epoch
//                            `cache_epoch`.
//   kGrantRecall           : drop cached blocks now (the upstream changed);
//                            the grant bits remain valid for blocks fetched
//                            AFTER the drop (the new epoch's content).
inline constexpr std::uint8_t kGrantRead = 0x01;
inline constexpr std::uint8_t kGrantWrite = 0x02;
inline constexpr std::uint8_t kGrantRecall = 0x04;

enum class ControlOp : std::uint8_t {
  kRead = 1,     // length
  kWrite = 2,    // length (+ data on the write lane)
  kSeek = 3,     // offset, origin
  kGetSize = 4,
  kSetEof = 5,
  kFlush = 6,
  kLock = 7,     // offset, range_len
  kUnlock = 8,   // offset, range_len
  kCustom = 9,   // payload in/out
  kClose = 10,
  // Vectored multi-block transfers: one crossing for a whole
  // scatter/gather list.  Wire payload is the segment table
  // (u32 count, then count u32 lengths); the bytes travel concatenated on
  // the write lane (kWriteVec) or in the response payload lane (kReadVec).
  kReadVec = 11,
  kWriteVec = 12,
};

struct ControlMessage {
  ControlOp op = ControlOp::kClose;
  std::uint32_t length = 0;      // read/write byte count
  std::int64_t offset = 0;       // seek / lock offset
  std::uint8_t origin = 0;       // vfs::SeekOrigin for kSeek
  std::uint64_t range_len = 0;   // lock length
  Buffer payload;                // kCustom request body

  // Trace propagation: the application-side trace id and the span the
  // sentinel's work should parent under.  Zero means "untraced".
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;

  // Where this message's bulk payload travels.  kLaneShm set by pipe links
  // that routed the kWrite/kWriteVec bytes through the shared ring; clear
  // means the classic write pipe.
  std::uint8_t lane = 0;

  // Cache-lease request bits (kCacheWantLease, kCacheRecallAck).  Zero
  // from uncached clients.
  std::uint8_t cache_flags = 0;

  // Zero-copy lanes used only by in-process endpoints (thread/direct):
  // the application's own buffers, never serialized.  When inline_out is
  // non-empty, read data is placed directly in it and the response payload
  // stays empty — the "user-mode memcpy" fast path of the paper's
  // footnote 2.
  ByteSpan inline_in{};
  MutableByteSpan inline_out{};

  // Vectored lanes (kReadVec/kWriteVec).  In-process endpoints consume
  // them directly; pipe links consult vec_in to feed the write lane and
  // vec_out to scatter the response.  Never serialized — the wire carries
  // the segment table in `payload` instead.
  std::vector<ByteSpan> vec_in;
  std::vector<MutableByteSpan> vec_out;
};

struct ControlResponse {
  Status status;            // the sentinel-side outcome of the operation
  std::uint64_t number = 0;  // count / position / size, op-dependent
  Buffer payload;            // read data (pipe lane) or kCustom reply

  // The responder has the shared ring attached.  The application side
  // reads it from the open banner only: a banner without it means the
  // sentinel could not attach, and the link keeps every payload on pipes.
  bool shm_ring = false;

  // Spans the sentinel completed while serving this command (they ride
  // home at the end of the frame); the application-side link adopts them
  // into its TraceLog, which is how one trace crosses the process
  // boundary.
  std::vector<obs::SpanRecord> remote_spans;

  // When kLaneShm is set, the payload waits in the ring instead of the
  // frame and `lane_len` is its length.
  std::uint8_t lane = 0;
  std::uint32_t lane_len = 0;

  // When `status` is kOverloaded, how long (milliseconds) the responder
  // suggests the client wait before retrying.  Zero on non-shed responses.
  std::uint32_t retry_after_ms = 0;

  // The cache-lease grant (kGrantRead/kGrantWrite/kGrantRecall), its
  // duration, and the sentinel's content epoch.  All zero from sentinels
  // without lease state — the client then holds no lease and serves every
  // op through the link (uncached passthrough).
  std::uint8_t cache_grant = 0;
  std::uint32_t cache_lease_ms = 0;
  std::uint32_t cache_epoch = 0;
};

// Wire codecs (inline and vectored lanes are intentionally not carried).
Buffer EncodeControlMessage(const ControlMessage& message);
// Link-side variant: stamps `lane` without copying the message.
Buffer EncodeControlMessage(const ControlMessage& message, std::uint8_t lane);
Result<ControlMessage> DecodeControlMessage(ByteSpan bytes);

Buffer EncodeControlResponse(const ControlResponse& response);
// Endpoint-side variant: stamps `shm_ring` and `lane` without copying the
// response.  When `lane` has kLaneShm set the payload bytes are omitted
// from the frame (they ride the ring) and `lane_len` carries their count.
Buffer EncodeControlResponse(const ControlResponse& response, bool shm_ring,
                             std::uint8_t lane);
Result<ControlResponse> DecodeControlResponse(ByteSpan bytes);

}  // namespace afs::sentinel
