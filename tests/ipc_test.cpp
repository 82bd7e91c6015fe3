// IPC substrate tests: pipes, framing, process spawning, named mutex.
#include <gtest/gtest.h>

#include <fcntl.h>

#include <atomic>
#include <thread>

#include "ipc/framing.hpp"
#include "ipc/named_mutex.hpp"
#include "ipc/pipe.hpp"
#include "ipc/process.hpp"
#include "test_util.hpp"

namespace afs::ipc {
namespace {

using test::TempDir;

TEST(PipeTest, WriteThenRead) {
  auto pipe = Pipe::Create();
  ASSERT_OK(pipe.status());
  ASSERT_OK(pipe->write_end.WriteAll(AsBytes("hello")));
  Buffer out(5);
  ASSERT_OK(pipe->read_end.ReadExact(MutableByteSpan(out)));
  EXPECT_EQ(ToString(ByteSpan(out)), "hello");
}

TEST(PipeTest, EofAfterWriterCloses) {
  auto pipe = Pipe::Create();
  ASSERT_OK(pipe.status());
  ASSERT_OK(pipe->write_end.WriteAll(AsBytes("x")));
  pipe->write_end.Close();
  Buffer out(8);
  auto n = pipe->read_end.ReadSome(MutableByteSpan(out));
  ASSERT_OK(n.status());
  EXPECT_EQ(*n, 1u);
  n = pipe->read_end.ReadSome(MutableByteSpan(out));
  ASSERT_OK(n.status());
  EXPECT_EQ(*n, 0u);  // EOF
}

TEST(PipeTest, ReadExactFailsOnPrematureEof) {
  auto pipe = Pipe::Create();
  ASSERT_OK(pipe.status());
  ASSERT_OK(pipe->write_end.WriteAll(AsBytes("ab")));
  pipe->write_end.Close();
  Buffer out(5);
  EXPECT_EQ(pipe->read_end.ReadExact(MutableByteSpan(out)).code(),
            ErrorCode::kClosed);
}

TEST(PipeTest, OperationsOnClosedEndFail) {
  PipeEnd end;
  Buffer out(1);
  EXPECT_EQ(end.ReadSome(MutableByteSpan(out)).status().code(),
            ErrorCode::kClosed);
  EXPECT_EQ(end.WriteAll(AsBytes("x")).code(), ErrorCode::kClosed);
}

TEST(PipeTest, BoundedWriteAllIntoFullNonblockingPipeTimesOut) {
  auto pipe = Pipe::Create();
  ASSERT_OK(pipe.status());
  ASSERT_OK(pipe->write_end.SetNonblocking());
  // Fill the kernel buffer: the first write that cannot fit parks on
  // POLLOUT until the bound passes.
  const Buffer chunk(64 * 1024, 0x5A);
  Status status = Status::Ok();
  for (int i = 0; i < 64 && status.ok(); ++i) {
    status = pipe->write_end.WriteAll(ByteSpan(chunk), Micros{20'000});
  }
  EXPECT_EQ(status.code(), ErrorCode::kTimeout);
  // The bounded path never toggles the descriptor back to blocking.
  const int flags = ::fcntl(pipe->write_end.fd(), F_GETFL);
  ASSERT_GE(flags, 0);
  EXPECT_NE(flags & O_NONBLOCK, 0);
}

TEST(PipeTest, UnboundedReadsOnNonblockingPipeWaitForLateWriter) {
  auto pipe = Pipe::Create();
  ASSERT_OK(pipe.status());
  ASSERT_OK(pipe->read_end.SetNonblocking());
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_OK(pipe->write_end.WriteAll(AsBytes("late")));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_OK(WriteFrame(pipe->write_end, AsBytes("frame")));
  });
  Buffer out(4);
  const Status exact = pipe->read_end.ReadExact(MutableByteSpan(out));
  auto frame = ReadFrame(pipe->read_end);
  writer.join();
  ASSERT_OK(exact);
  EXPECT_EQ(ToString(ByteSpan(out)), "late");
  ASSERT_OK(frame.status());
  EXPECT_EQ(ToString(ByteSpan(*frame)), "frame");
}

TEST(FramingTest, ReadFrameTimeoutBoundsTheBody) {
  auto pipe = Pipe::Create();
  ASSERT_OK(pipe.status());
  ASSERT_OK(pipe->read_end.SetNonblocking());
  // A header promising 8 bytes, then only 3: the body wait is bounded too.
  Buffer torn;
  AppendU32(torn, 8);
  torn.push_back('a');
  torn.push_back('b');
  torn.push_back('c');
  ASSERT_OK(pipe->write_end.WriteAll(ByteSpan(torn)));
  EXPECT_EQ(ReadFrame(pipe->read_end, Micros{20'000}).status().code(),
            ErrorCode::kTimeout);
}

// The bound covers the whole frame, not each wait inside it: a peer that
// sends the header and then one body byte every 60 ms (each inside the
// 100 ms budget on its own) still costs the reader kTimeout at ~100 ms.
TEST(FramingTest, TricklingPeerCannotStretchABoundedRead) {
  auto pipe = Pipe::Create();
  ASSERT_OK(pipe.status());
  ASSERT_OK(pipe->read_end.SetNonblocking());
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Buffer header;
    AppendU32(header, 8);
    EXPECT_OK(pipe->write_end.WriteAll(ByteSpan(header)));
    for (int i = 0; i < 8 && !stop.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
      EXPECT_OK(pipe->write_end.WriteAll(AsBytes("x")));
    }
  });
  const auto start = std::chrono::steady_clock::now();
  const Result<Buffer> frame = ReadFrame(pipe->read_end, Micros{100'000});
  const auto elapsed = std::chrono::steady_clock::now() - start;
  stop.store(true);
  writer.join();
  EXPECT_EQ(frame.status().code(), ErrorCode::kTimeout);
  EXPECT_LT(elapsed, std::chrono::milliseconds(200));
}

// A finite deadline that has already passed is an immediate kTimeout —
// never mistaken for "no deadline".
TEST(FramingTest, ExpiredDeadlineTimesOutAtOnce) {
  auto pipe = Pipe::Create();
  ASSERT_OK(pipe.status());
  ASSERT_OK(pipe->read_end.SetNonblocking());
  const Deadline passed = Deadline::In(Micros{1});
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(ReadFrame(pipe->read_end, passed).status().code(),
            ErrorCode::kTimeout);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(50));
}

TEST(FramingTest, RoundTripFrames) {
  auto pipe = Pipe::Create();
  ASSERT_OK(pipe.status());
  ASSERT_OK(WriteFrame(pipe->write_end, AsBytes("frame-one")));
  ASSERT_OK(WriteFrame(pipe->write_end, {}));  // empty frame is legal
  ASSERT_OK(WriteFrame(pipe->write_end, AsBytes("two")));

  auto f1 = ReadFrame(pipe->read_end);
  ASSERT_OK(f1.status());
  EXPECT_EQ(ToString(ByteSpan(*f1)), "frame-one");
  auto f2 = ReadFrame(pipe->read_end);
  ASSERT_OK(f2.status());
  EXPECT_TRUE(f2->empty());
  auto f3 = ReadFrame(pipe->read_end);
  ASSERT_OK(f3.status());
  EXPECT_EQ(ToString(ByteSpan(*f3)), "two");
}

TEST(FramingTest, CleanEofIsClosed) {
  auto pipe = Pipe::Create();
  ASSERT_OK(pipe.status());
  pipe->write_end.Close();
  EXPECT_EQ(ReadFrame(pipe->read_end).status().code(), ErrorCode::kClosed);
}

TEST(FramingTest, TruncatedFrameIsClosed) {
  auto pipe = Pipe::Create();
  ASSERT_OK(pipe.status());
  Buffer header;
  AppendU32(header, 100);  // promises 100 bytes
  ASSERT_OK(pipe->write_end.WriteAll(ByteSpan(header)));
  ASSERT_OK(pipe->write_end.WriteAll(AsBytes("short")));
  pipe->write_end.Close();
  EXPECT_EQ(ReadFrame(pipe->read_end).status().code(), ErrorCode::kClosed);
}

TEST(FramingTest, OversizedLengthRejected) {
  auto pipe = Pipe::Create();
  ASSERT_OK(pipe.status());
  Buffer header;
  AppendU32(header, kMaxFrameBytes + 1);
  ASSERT_OK(pipe->write_end.WriteAll(ByteSpan(header)));
  EXPECT_EQ(ReadFrame(pipe->read_end).status().code(),
            ErrorCode::kProtocolError);
}

TEST(ProcessTest, SpawnFunctionReturnsExitCode) {
  auto child = SpawnFunction([] { return 42; });
  ASSERT_OK(child.status());
  auto code = child->Wait();
  ASSERT_OK(code.status());
  EXPECT_EQ(*code, 42);
}

TEST(ProcessTest, WaitIsIdempotent) {
  auto child = SpawnFunction([] { return 7; });
  ASSERT_OK(child.status());
  EXPECT_EQ(*child->Wait(), 7);
  EXPECT_EQ(*child->Wait(), 7);
}

TEST(ProcessTest, ChildSharesPipeWithParent) {
  auto pipe = Pipe::Create();
  ASSERT_OK(pipe.status());
  auto child = SpawnFunction([&]() -> int {
    pipe->read_end.Close();
    return pipe->write_end.WriteAll(AsBytes("from-child")).ok() ? 0 : 1;
  });
  ASSERT_OK(child.status());
  pipe->write_end.Close();
  Buffer out(10);
  ASSERT_OK(pipe->read_end.ReadExact(MutableByteSpan(out)));
  EXPECT_EQ(ToString(ByteSpan(out)), "from-child");
  EXPECT_EQ(*child->Wait(), 0);
}

TEST(ProcessTest, ThrowingChildExitsWithCode113) {
  auto child = SpawnFunction([]() -> int { throw std::runtime_error("boom"); });
  ASSERT_OK(child.status());
  EXPECT_EQ(*child->Wait(), 113);
}

TEST(ProcessTest, SpawnExecRunsBinary) {
  auto child = SpawnExec({"/bin/true"});
  ASSERT_OK(child.status());
  EXPECT_EQ(*child->Wait(), 0);
  auto failing = SpawnExec({"/bin/false"});
  ASSERT_OK(failing.status());
  EXPECT_EQ(*failing->Wait(), 1);
}

TEST(ProcessTest, SpawnExecMissingBinaryExits127) {
  auto child = SpawnExec({"/no/such/binary"});
  ASSERT_OK(child.status());
  EXPECT_EQ(*child->Wait(), 127);
}

TEST(NamedMutexTest, LockUnlock) {
  TempDir tmp;
  NamedMutex mutex(tmp.path(), "m");
  ASSERT_OK(mutex.Lock());
  EXPECT_TRUE(mutex.held());
  ASSERT_OK(mutex.Unlock());
  EXPECT_FALSE(mutex.held());
}

TEST(NamedMutexTest, UnlockWithoutLockFails) {
  TempDir tmp;
  NamedMutex mutex(tmp.path(), "m");
  EXPECT_EQ(mutex.Unlock().code(), ErrorCode::kInvalidArgument);
}

TEST(NamedMutexTest, TryLockReportsBusyAcrossProcesses) {
  TempDir tmp;
  NamedMutex mine(tmp.path(), "shared");
  ASSERT_OK(mine.Lock());

  auto child = SpawnFunction([&]() -> int {
    NamedMutex theirs(tmp.path(), "shared");
    return theirs.TryLock().code() == ErrorCode::kBusy ? 0 : 1;
  });
  ASSERT_OK(child.status());
  EXPECT_EQ(*child->Wait(), 0);
  ASSERT_OK(mine.Unlock());

  auto child2 = SpawnFunction([&]() -> int {
    NamedMutex theirs(tmp.path(), "shared");
    return theirs.TryLock().ok() ? 0 : 1;
  });
  ASSERT_OK(child2.status());
  EXPECT_EQ(*child2->Wait(), 0);
}

TEST(NamedMutexTest, TryLockReportsBusyWithinOneProcess) {
  // Two sentinels of the thread, direct or loop strategies share one
  // process; their mutexes must still exclude each other.
  TempDir tmp;
  NamedMutex first(tmp.path(), "shared");
  NamedMutex second(tmp.path(), "shared");
  ASSERT_OK(first.Lock());
  EXPECT_EQ(second.TryLock().code(), ErrorCode::kBusy);
  ASSERT_OK(first.Unlock());
  ASSERT_OK(second.TryLock());
  EXPECT_EQ(first.TryLock().code(), ErrorCode::kBusy);
  ASSERT_OK(second.Unlock());
}

TEST(NamedMutexTest, MutualExclusionAcrossProcesses) {
  TempDir tmp;
  const std::string counter_path = tmp.path() + "/counter";
  // Non-atomic read-modify-write, serialized only by the mutex.  Any
  // mutual-exclusion failure loses increments.
  auto bump = [&]() -> int {
    NamedMutex mutex(tmp.path(), "counter");
    for (int i = 0; i < 50; ++i) {
      if (!mutex.Lock().ok()) return 1;
      FILE* f = std::fopen(counter_path.c_str(), "r+");
      if (f == nullptr) f = std::fopen(counter_path.c_str(), "w+");
      long value = 0;
      if (std::fscanf(f, "%ld", &value) != 1) value = 0;
      std::rewind(f);
      std::fprintf(f, "%ld\n", value + 1);
      std::fclose(f);
      if (!mutex.Unlock().ok()) return 1;
    }
    return 0;
  };
  auto a = SpawnFunction(bump);
  auto b = SpawnFunction(bump);
  ASSERT_OK(a.status());
  ASSERT_OK(b.status());
  EXPECT_EQ(*a->Wait(), 0);
  EXPECT_EQ(*b->Wait(), 0);

  FILE* f = std::fopen(counter_path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  long value = 0;
  ASSERT_EQ(std::fscanf(f, "%ld", &value), 1);
  std::fclose(f);
  EXPECT_EQ(value, 100);
}

}  // namespace
}  // namespace afs::ipc
