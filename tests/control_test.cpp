// Control-protocol codec tests plus link/endpoint transports in isolation.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "core/links.hpp"
#include "sentinel/control.hpp"
#include "sentinel/dispatch.hpp"
#include "sentinel/sentinel.hpp"
#include "test_util.hpp"

namespace afs::sentinel {
namespace {

TEST(ControlCodecTest, MessageRoundTrip) {
  ControlMessage msg;
  msg.op = ControlOp::kSeek;
  msg.length = 123;
  msg.offset = -45;
  msg.origin = 2;
  msg.range_len = 999;
  msg.payload = ToBuffer("custom");
  msg.trace_id = 0xdeadbeefcafef00dULL;
  msg.parent_span = 0x123456789abcdef0ULL;
  msg.lane = kLaneShm;
  msg.cache_flags = kCacheWantLease | kCacheRecallAck;

  auto decoded = DecodeControlMessage(ByteSpan(EncodeControlMessage(msg)));
  ASSERT_OK(decoded.status());
  EXPECT_EQ(decoded->op, ControlOp::kSeek);
  EXPECT_EQ(decoded->length, 123u);
  EXPECT_EQ(decoded->offset, -45);
  EXPECT_EQ(decoded->origin, 2);
  EXPECT_EQ(decoded->range_len, 999u);
  EXPECT_EQ(ToString(ByteSpan(decoded->payload)), "custom");
  EXPECT_EQ(decoded->trace_id, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(decoded->parent_span, 0x123456789abcdef0ULL);
  EXPECT_EQ(decoded->lane, kLaneShm);
  EXPECT_EQ(decoded->cache_flags, kCacheWantLease | kCacheRecallAck);
  // Inline lanes never cross the wire.
  EXPECT_TRUE(decoded->inline_in.empty());
  EXPECT_TRUE(decoded->inline_out.empty());

  // Untraced, uncached messages carry zeros in the same fixed fields.
  ControlMessage plain;
  plain.op = ControlOp::kRead;
  auto zeros = DecodeControlMessage(ByteSpan(EncodeControlMessage(plain)));
  ASSERT_OK(zeros.status());
  EXPECT_EQ(zeros->trace_id, 0u);
  EXPECT_EQ(zeros->parent_span, 0u);
  EXPECT_EQ(zeros->cache_flags, 0u);
}

TEST(ControlCodecTest, AllOpsSurvive) {
  for (auto op : {ControlOp::kRead, ControlOp::kWrite, ControlOp::kSeek,
                  ControlOp::kGetSize, ControlOp::kSetEof, ControlOp::kFlush,
                  ControlOp::kLock, ControlOp::kUnlock, ControlOp::kCustom,
                  ControlOp::kClose, ControlOp::kReadVec,
                  ControlOp::kWriteVec}) {
    ControlMessage msg;
    msg.op = op;
    auto decoded = DecodeControlMessage(ByteSpan(EncodeControlMessage(msg)));
    ASSERT_OK(decoded.status());
    EXPECT_EQ(decoded->op, op);
  }
}

TEST(ControlCodecTest, GarbageRejected) {
  auto message_code = [](const Buffer& wire) {
    return DecodeControlMessage(ByteSpan(wire)).status().code();
  };
  auto response_code = [](const Buffer& wire) {
    return DecodeControlResponse(ByteSpan(wire)).status().code();
  };
  Buffer junk = {0x00};
  EXPECT_EQ(message_code(junk), ErrorCode::kProtocolError);

  ControlMessage msg;
  msg.op = ControlOp::kCustom;
  msg.payload = ToBuffer("body");
  msg.trace_id = 7;
  const Buffer message = EncodeControlMessage(msg);
  ControlResponse resp;
  resp.status = OutOfRangeError("past eof");
  resp.payload = ToBuffer("tail");
  resp.remote_spans.push_back(obs::SpanRecord{1, 2, 3, 4, 5, 6, "span"});
  const Buffer response = EncodeControlResponse(resp);
  ASSERT_OK(DecodeControlMessage(ByteSpan(message)).status());
  ASSERT_OK(DecodeControlResponse(ByteSpan(response)).status());

  Buffer bad_op = message;
  bad_op[1] = 0xEE;
  EXPECT_EQ(message_code(bad_op), ErrorCode::kProtocolError);

  // A frame from another wire version fails at its first byte.
  Buffer other_message = message;
  other_message[0] = static_cast<std::uint8_t>(kWireVersion + 1);
  EXPECT_EQ(message_code(other_message), ErrorCode::kProtocolError);
  Buffer other_response = response;
  other_response[0] = static_cast<std::uint8_t>(kWireVersion + 1);
  EXPECT_EQ(response_code(other_response), ErrorCode::kProtocolError);

  // Every field is always present: each strict prefix is short.
  for (std::size_t len = 0; len < message.size(); ++len) {
    EXPECT_EQ(message_code(Buffer(message.begin(), message.begin() + len)),
              ErrorCode::kProtocolError)
        << "message prefix " << len;
  }
  for (std::size_t len = 0; len < response.size(); ++len) {
    EXPECT_EQ(response_code(Buffer(response.begin(), response.begin() + len)),
              ErrorCode::kProtocolError)
        << "response prefix " << len;
  }

  // Nothing may follow the last field.
  Buffer long_message = message;
  long_message.push_back(0);
  EXPECT_EQ(message_code(long_message), ErrorCode::kProtocolError);
  Buffer long_response = response;
  long_response.push_back(0);
  EXPECT_EQ(response_code(long_response), ErrorCode::kProtocolError);
}

TEST(ControlCodecTest, ResponseRoundTrip) {
  ControlResponse resp;
  resp.status = OutOfRangeError("past eof");
  resp.number = 777;
  resp.payload = ToBuffer("tail");
  resp.shm_ring = true;
  resp.cache_grant = kGrantRead | kGrantWrite;
  resp.cache_lease_ms = 750;
  resp.cache_epoch = 3;
  resp.remote_spans.push_back(
      obs::SpanRecord{11, 12, 13, 14, 15, 16, "sentinel.read"});
  auto decoded = DecodeControlResponse(ByteSpan(EncodeControlResponse(resp)));
  ASSERT_OK(decoded.status());
  EXPECT_EQ(decoded->status.code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(decoded->status.message(), "past eof");
  EXPECT_EQ(decoded->number, 777u);
  EXPECT_EQ(ToString(ByteSpan(decoded->payload)), "tail");
  EXPECT_TRUE(decoded->shm_ring);
  EXPECT_EQ(decoded->cache_grant, kGrantRead | kGrantWrite);
  EXPECT_EQ(decoded->cache_lease_ms, 750u);
  EXPECT_EQ(decoded->cache_epoch, 3u);
  ASSERT_EQ(decoded->remote_spans.size(), 1u);
  EXPECT_EQ(decoded->remote_spans[0].trace_id, 11u);
  EXPECT_EQ(decoded->remote_spans[0].name, "sentinel.read");

  // The flag bit does not leak into a plain answer, and the reserved bit
  // 0x01 (flags are the byte after the version) is ignored.
  Buffer plain_frame = EncodeControlResponse({});
  plain_frame[1] |= 0x01;
  auto plain = DecodeControlResponse(ByteSpan(plain_frame));
  ASSERT_OK(plain.status());
  EXPECT_FALSE(plain->shm_ring);
  EXPECT_TRUE(plain->remote_spans.empty());
}

TEST(ControlCodecTest, OverloadedResponseCarriesTypedRetryAfter) {
  // The responder only tagged the hint into the status message; the
  // encoder lifts it into the typed field so the link sees it uniformly.
  ControlResponse resp;
  resp.status = OverloadedError("admission shed", 25);
  auto decoded = DecodeControlResponse(ByteSpan(EncodeControlResponse(resp)));
  ASSERT_OK(decoded.status());
  EXPECT_EQ(decoded->status.code(), ErrorCode::kOverloaded);
  EXPECT_EQ(decoded->retry_after_ms, 25u);
  EXPECT_EQ(RetryAfterHintMs(decoded->status), 25);
}

TEST(ControlCodecTest, ExplicitRetryAfterFieldBeatsTheMessageTag) {
  ControlResponse resp;
  resp.status = OverloadedError("admission shed", 25);
  resp.retry_after_ms = 40;  // the typed field is authoritative
  auto decoded = DecodeControlResponse(ByteSpan(EncodeControlResponse(resp)));
  ASSERT_OK(decoded.status());
  EXPECT_EQ(decoded->retry_after_ms, 40u);
}

// ---- transports -------------------------------------------------------

TEST(PipeLinkTest, CommandAndResponseCrossPipes) {
  auto pair = core::CreatePipePair();
  ASSERT_OK(pair.status());
  core::PipeLink link(std::move(pair->first));
  core::PipeEndpoint endpoint(std::move(pair->second));

  std::thread sentinel_side([&] {
    auto msg = endpoint.AF_GetControl();
    ASSERT_OK(msg.status());
    EXPECT_EQ(msg->op, ControlOp::kWrite);
    EXPECT_EQ(msg->length, 5u);
    // Write payload travels out-of-line on the write pipe.
    auto data = endpoint.AF_GetDataFromAppl(5);
    ASSERT_OK(data.status());
    EXPECT_EQ(ToString(ByteSpan(*data)), "hello");
    ControlResponse resp;
    resp.number = 5;
    ASSERT_OK(endpoint.AF_SendResponse(resp));
  });

  ControlMessage msg;
  msg.op = ControlOp::kWrite;
  msg.length = 5;
  const std::string payload = "hello";
  msg.inline_in = AsBytes(payload);
  ASSERT_OK(link.AF_SendControl(msg, Deadline::Never()));
  auto resp = link.AF_GetResponse(Deadline::Never());
  ASSERT_OK(resp.status());
  EXPECT_EQ(resp->number, 5u);
  sentinel_side.join();
}

TEST(PipeLinkTest, ShutdownGivesEofToEndpoint) {
  auto pair = core::CreatePipePair();
  ASSERT_OK(pair.status());
  core::PipeLink link(std::move(pair->first));
  core::PipeEndpoint endpoint(std::move(pair->second));
  link.Shutdown();
  EXPECT_EQ(endpoint.AF_GetControl().status().code(), ErrorCode::kClosed);
}

// The invariant the link's lane choice rests on: the protocol runs one op
// at a time and each side drains its ring lane before the answer returns,
// so at every send both directions of the ring are empty — a payload
// never finds earlier bytes parked ahead of it.  The 16 KiB ring is
// smaller than the 64 KiB transfers (they stream through a draining
// reader) and larger than each 8 KiB segment.
TEST(PipeLinkTest, RingIsEmptyAtEverySend) {
  constexpr std::size_t kBulk = 64 * 1024;
  constexpr std::size_t kSegment = 8 * 1024;
  constexpr int kSegments = 8;
  auto pair = core::CreatePipePair();
  ASSERT_OK(pair.status());
  auto ring = ipc::ShmRing::Create(16 * 1024);
  ASSERT_OK(ring.status());
  core::PipeLink link(std::move(pair->first));
  core::PipeEndpoint endpoint(std::move(pair->second));
  link.set_shm(*ring, 1);
  endpoint.set_shm(*ring, 1);

  // The null sentinel over a memory-backed data part, served on a thread.
  Sentinel null_sentinel;
  MemoryDataStore store;
  SentinelContext ctx;
  ctx.cache = &store;
  std::thread sentinel_side(
      [&] { EXPECT_EQ(RunSentinelLoop(null_sentinel, endpoint, ctx), 0); });

  auto expect_ring_empty = [&](const char* after) {
    EXPECT_EQ((*ring)->buffered(ipc::ShmRing::kToSentinel), 0u) << after;
    EXPECT_EQ((*ring)->buffered(ipc::ShmRing::kToApp), 0u) << after;
  };
  auto round_trip = [&](const ControlMessage& msg) {
    EXPECT_OK(link.AF_SendControl(msg, Deadline::Never()));
    Result<ControlResponse> resp = link.AF_GetResponse(Deadline::Never());
    EXPECT_OK(resp.status());
    if (!resp.ok()) return ControlResponse{};
    EXPECT_OK(resp->status);
    return std::move(*resp);
  };
  auto rewind = [&] {
    ControlMessage seek;
    seek.op = ControlOp::kSeek;
    round_trip(seek);
    expect_ring_empty("seek");
  };
  auto vec_table = [&] {
    Buffer table;
    AppendU32(table, kSegments);
    for (int i = 0; i < kSegments; ++i) AppendU32(table, kSegment);
    return table;
  };

  Result<ControlResponse> banner = link.AF_GetResponse(Deadline::Never());
  ASSERT_OK(banner.status());
  ASSERT_TRUE(banner->shm_ring);
  expect_ring_empty("banner");

  Buffer written(kBulk);
  for (std::size_t i = 0; i < written.size(); ++i) {
    written[i] = static_cast<std::uint8_t>(i * 7);
  }
  ControlMessage write;
  write.op = ControlOp::kWrite;
  write.length = kBulk;
  write.inline_in = ByteSpan(written);
  EXPECT_EQ(round_trip(write).number, kBulk);
  expect_ring_empty("write");

  rewind();
  Buffer read_back(kBulk);
  ControlMessage read;
  read.op = ControlOp::kRead;
  read.length = kBulk;
  read.inline_out = MutableByteSpan(read_back);
  ControlResponse read_resp = round_trip(read);
  EXPECT_EQ(read_resp.number, kBulk);
  EXPECT_TRUE(read_resp.payload.empty());  // the bytes rode the ring
  EXPECT_EQ(read_back, written);
  expect_ring_empty("read");

  rewind();
  std::vector<Buffer> sources(kSegments, Buffer(kSegment));
  std::vector<ByteSpan> gather;
  for (int i = 0; i < kSegments; ++i) {
    std::fill(sources[i].begin(), sources[i].end(),
              static_cast<std::uint8_t>(0xA0 + i));
    gather.push_back(ByteSpan(sources[i]));
  }
  ControlMessage write_vec;
  write_vec.op = ControlOp::kWriteVec;
  write_vec.payload = vec_table();
  write_vec.length = kBulk;
  write_vec.vec_in = gather;
  EXPECT_EQ(round_trip(write_vec).number, kBulk);
  expect_ring_empty("gather write");

  rewind();
  std::vector<Buffer> sinks(kSegments, Buffer(kSegment));
  std::vector<MutableByteSpan> scatter;
  for (Buffer& sink : sinks) scatter.push_back(MutableByteSpan(sink));
  ControlMessage read_vec;
  read_vec.op = ControlOp::kReadVec;
  read_vec.payload = vec_table();
  read_vec.length = kBulk;
  read_vec.vec_out = scatter;
  ControlResponse scatter_resp = round_trip(read_vec);
  EXPECT_EQ(scatter_resp.number, kBulk);
  EXPECT_TRUE(scatter_resp.payload.empty());  // the bytes rode the ring
  EXPECT_EQ(sinks, sources);
  expect_ring_empty("scatter read");

  ControlMessage close;
  close.op = ControlOp::kClose;
  round_trip(close);
  sentinel_side.join();
}

// A finite deadline that has already passed is an immediate kTimeout —
// never mistaken for "no deadline".
TEST(MailboxSlotTest, ExpiredDeadlineTimesOutAtOnce) {
  core::MailboxSlot slot;
  ControlMessage msg;
  msg.op = ControlOp::kGetSize;
  ASSERT_OK(slot.Post(msg));
  const Deadline passed = Deadline::In(Micros{1});
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(slot.Collect(passed).status().code(), ErrorCode::kTimeout);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(50));
}

TEST(ThreadRendezvousTest, InlineLanesPassUserBuffers) {
  core::ThreadRendezvous rendezvous;

  std::thread sentinel_side([&] {
    auto msg = rendezvous.AF_GetControl();
    ASSERT_OK(msg.status());
    EXPECT_EQ(msg->op, ControlOp::kRead);
    // Fill the application's buffer directly — the one-copy path.
    ASSERT_FALSE(msg->inline_out.empty());
    std::memcpy(msg->inline_out.data(), "direct", 6);
    ControlResponse resp;
    resp.number = 6;
    ASSERT_OK(rendezvous.AF_SendResponse(resp));
  });

  Buffer user_buffer(6);
  ControlMessage msg;
  msg.op = ControlOp::kRead;
  msg.length = 6;
  msg.inline_out = MutableByteSpan(user_buffer);
  ASSERT_OK(rendezvous.AF_SendControl(msg));
  auto resp = rendezvous.AF_GetResponse();
  ASSERT_OK(resp.status());
  EXPECT_EQ(resp->number, 6u);
  EXPECT_EQ(ToString(ByteSpan(user_buffer)), "direct");
  sentinel_side.join();
}

TEST(ThreadRendezvousTest, ShutdownUnblocksBothSides) {
  core::ThreadRendezvous rendezvous;
  std::thread waiter([&] {
    EXPECT_EQ(rendezvous.AF_GetControl().status().code(), ErrorCode::kClosed);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  rendezvous.Shutdown();
  waiter.join();
  ControlMessage msg;
  EXPECT_EQ(rendezvous.AF_SendControl(msg).code(), ErrorCode::kClosed);
  EXPECT_EQ(rendezvous.AF_GetResponse().status().code(), ErrorCode::kClosed);
}

TEST(ThreadRendezvousTest, SequentialCommands) {
  core::ThreadRendezvous rendezvous;
  std::thread sentinel_side([&] {
    for (int i = 0; i < 100; ++i) {
      auto msg = rendezvous.AF_GetControl();
      ASSERT_OK(msg.status());
      ControlResponse resp;
      resp.number = msg->length * 2;
      ASSERT_OK(rendezvous.AF_SendResponse(resp));
    }
  });
  for (int i = 0; i < 100; ++i) {
    ControlMessage msg;
    msg.op = ControlOp::kGetSize;
    msg.length = static_cast<std::uint32_t>(i);
    ASSERT_OK(rendezvous.AF_SendControl(msg));
    auto resp = rendezvous.AF_GetResponse();
    ASSERT_OK(resp.status());
    EXPECT_EQ(resp->number, static_cast<std::uint64_t>(i) * 2);
  }
  sentinel_side.join();
}

}  // namespace
}  // namespace afs::sentinel
