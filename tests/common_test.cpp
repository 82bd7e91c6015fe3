// Unit tests for the common layer: Status/Result, byte codecs, clocks.
#include <gtest/gtest.h>

#include <cstdint>

#include <thread>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/status.hpp"
#include "test_util.hpp"

namespace afs {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing thing");
}

TEST(StatusTest, EveryConstructorMapsToItsCode) {
  EXPECT_EQ(InvalidArgumentError("").code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(NotFoundError("").code(), ErrorCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("").code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(PermissionDeniedError("").code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(UnsupportedError("").code(), ErrorCode::kUnsupported);
  EXPECT_EQ(IoError("").code(), ErrorCode::kIoError);
  EXPECT_EQ(ClosedError("").code(), ErrorCode::kClosed);
  EXPECT_EQ(TimeoutError("").code(), ErrorCode::kTimeout);
  EXPECT_EQ(ProtocolError("").code(), ErrorCode::kProtocolError);
  EXPECT_EQ(RemoteError("").code(), ErrorCode::kRemoteError);
  EXPECT_EQ(BusyError("").code(), ErrorCode::kBusy);
  EXPECT_EQ(OutOfRangeError("").code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(CorruptError("").code(), ErrorCode::kCorrupt);
  EXPECT_EQ(InternalError("").code(), ErrorCode::kInternal);
}

TEST(StatusTest, ErrorCodeNamesAreStable) {
  EXPECT_EQ(ErrorCodeName(ErrorCode::kOk), "OK");
  EXPECT_EQ(ErrorCodeName(ErrorCode::kUnsupported), "UNSUPPORTED");
  EXPECT_EQ(ErrorCodeName(ErrorCode::kCorrupt), "CORRUPT");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(NotFoundError("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string taken = std::move(r).value();
  EXPECT_EQ(taken, "payload");
}

Result<int> Doubler(Result<int> in) {
  AFS_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Doubler(21).value(), 42);
  EXPECT_EQ(Doubler(IoError("disk on fire")).status().code(),
            ErrorCode::kIoError);
}

TEST(BytesTest, IntegerRoundTrips) {
  Buffer buf;
  AppendU16(buf, 0xBEEF);
  AppendU32(buf, 0xDEADBEEF);
  AppendU64(buf, 0x0123456789ABCDEFull);
  ByteReader reader{ByteSpan(buf)};
  std::uint16_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t c = 0;
  ASSERT_TRUE(reader.ReadU16(a));
  ASSERT_TRUE(reader.ReadU32(b));
  ASSERT_TRUE(reader.ReadU64(c));
  EXPECT_EQ(a, 0xBEEF);
  EXPECT_EQ(b, 0xDEADBEEFu);
  EXPECT_EQ(c, 0x0123456789ABCDEFull);
  EXPECT_TRUE(reader.empty());
}

TEST(BytesTest, LittleEndianLayout) {
  Buffer buf;
  AppendU32(buf, 0x04030201u);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[3], 0x04);
}

TEST(BytesTest, LenPrefixedRoundTrip) {
  Buffer buf;
  AppendLenPrefixed(buf, std::string_view("hello"));
  AppendLenPrefixed(buf, std::string_view(""));
  ByteReader reader{ByteSpan(buf)};
  std::string a;
  std::string b;
  ASSERT_TRUE(reader.ReadLenPrefixedString(a));
  ASSERT_TRUE(reader.ReadLenPrefixedString(b));
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
}

TEST(BytesTest, UnderflowLeavesCursorUnchanged) {
  Buffer buf;
  AppendU16(buf, 7);
  ByteReader reader{ByteSpan(buf)};
  std::uint32_t v32 = 0;
  EXPECT_FALSE(reader.ReadU32(v32));
  std::uint16_t v16 = 0;
  EXPECT_TRUE(reader.ReadU16(v16));  // cursor was not consumed by the miss
  EXPECT_EQ(v16, 7);
}

TEST(BytesTest, TruncatedLenPrefixFails) {
  Buffer buf;
  AppendU32(buf, 100);  // claims 100 bytes, provides none
  ByteReader reader{ByteSpan(buf)};
  ByteSpan out;
  EXPECT_FALSE(reader.ReadLenPrefixed(out));
}

TEST(BytesTest, StringBridges) {
  const std::string s = "bytes\x00with nul";
  Buffer b = ToBuffer(s);
  EXPECT_EQ(ToString(ByteSpan(b)), s);
  EXPECT_EQ(AsBytes(s).size(), s.size());
}

TEST(ClockTest, SteadyClockAdvances) {
  auto& clock = SteadyClock::Instance();
  const Micros t0 = clock.Now();
  clock.SleepFor(Micros(2000));
  EXPECT_GE((clock.Now() - t0).count(), 2000);
}

TEST(ClockTest, ManualClockBlocksUntilAdvanced) {
  ManualClock clock;
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    clock.SleepFor(Micros(1000));
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(woke.load());
  clock.Advance(Micros(999));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(woke.load());
  clock.Advance(Micros(1));
  sleeper.join();
  EXPECT_TRUE(woke.load());
  EXPECT_EQ(clock.Now(), Micros(1000));
}

// A non-positive budget, or one past the clock's range, is no deadline;
// a finite one hands out what is left, capped per slice.
TEST(DeadlineTest, BudgetsMapOntoNeverOrAnInstant) {
  for (Micros budget : {Micros{0}, Micros{-5}, Micros::max()}) {
    EXPECT_TRUE(Deadline::In(budget).never()) << budget.count();
  }
  EXPECT_EQ(Deadline::Never().PollMillis(), -1);
  EXPECT_EQ(Deadline::Never().Slice(Micros{7}), Micros{7});
  const Deadline soon = Deadline::In(Micros{50'000});
  EXPECT_FALSE(soon.never());
  EXPECT_GT(soon.PollMillis(), 0);
  EXPECT_LE(soon.PollMillis(), 50);
  EXPECT_EQ(soon.Slice(Micros{10}), Micros{10});
  EXPECT_LE(soon.Slice(Micros{1'000'000}), Micros{50'000});
  EXPECT_TRUE(soon < Deadline::Never());
}

// Spec millisecond values convert without overflow: past the range they
// saturate, and a saturated budget is no deadline.
TEST(DeadlineTest, MillisToMicrosSaturates) {
  EXPECT_EQ(MillisToMicros(0), Micros{0});
  EXPECT_EQ(MillisToMicros(250), Micros{250'000});
  EXPECT_EQ(MillisToMicros(-3), Micros{0});
  const std::int64_t limit = Micros::max().count() / 1000;
  EXPECT_EQ(MillisToMicros(limit), Micros{limit * 1000});
  EXPECT_EQ(MillisToMicros(limit + 1), Micros::max());
  EXPECT_EQ(MillisToMicros(INT64_MAX), Micros::max());
  EXPECT_TRUE(Deadline::In(MillisToMicros(INT64_MAX)).never());
}

}  // namespace
}  // namespace afs
