// Conformance and fault suite for the cross-process shared-memory ring
// (docs/SHM_DATA_PLANE.md): seeded wraparound/size-sweep property tests,
// pipe-vs-shm byte-identity at the file API, fork + attach-by-fd
// conformance, futex wakeup ordering, the ipc.shm.* fault sites, and a
// TSan hammer over both directions at once.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "afs.hpp"
#include "common/faultpoint.hpp"
#include "ipc/shm_ring.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"
#include "util/prng.hpp"

namespace afs {
namespace {

using core::ActiveFileManager;
using core::ManagerOptions;
using ipc::ShmRing;
using sentinel::SentinelSpec;
using test::TempDir;

constexpr Micros kGenerous{10'000'000};

Result<std::shared_ptr<ShmRing>> SmallRing() {
  return ShmRing::Create(1);  // clamps up to the 4 KiB floor
}

// Streams `total` seeded bytes through one direction in random-size chunks
// from a dedicated writer thread while the caller reads (also in random
// chunks) and verifies the byte stream.  Chunks deliberately straddle and
// exceed the ring capacity so every wraparound case is exercised.
void RunSeededStream(ShmRing& ring, int dir, std::uint64_t seed,
                     std::size_t total) {
  // One shared reference stream sliced by both sides: writer chunking and
  // reader chunking are independent, the bytes must still line up.
  Buffer want(total);
  Prng(seed).Fill(MutableByteSpan(want));
  std::atomic<bool> write_ok{true};
  std::thread writer([&] {
    Prng sizes(seed ^ 0xDECAFBADull);
    std::size_t sent = 0;
    while (sent < total) {
      const std::size_t n = static_cast<std::size_t>(
          1 + sizes.NextBelow(std::min<std::uint64_t>(total - sent, 9000)));
      if (!ring.Write(dir, ByteSpan(want).subspan(sent, n), kGenerous).ok()) {
        write_ok.store(false);
        return;
      }
      sent += n;
    }
    ring.CloseDir(dir);
  });

  Prng sizes(seed ^ 0x5EEDull);
  Buffer got;
  std::size_t received = 0;
  while (received < total) {
    got.resize(static_cast<std::size_t>(1 + sizes.NextBelow(7000)));
    auto n = ring.ReadSome(dir, MutableByteSpan(got), kGenerous);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ASSERT_GT(*n, 0u) << "premature EOF at byte " << received;
    ASSERT_EQ(std::memcmp(got.data(), want.data() + received, *n), 0)
        << "stream diverged at byte " << received;
    received += *n;
  }
  // Writer closed after the last byte: the stream must end exactly here.
  Buffer extra(1);
  auto eof = ring.ReadSome(dir, MutableByteSpan(extra), kGenerous);
  ASSERT_TRUE(eof.ok()) << eof.status().ToString();
  EXPECT_EQ(*eof, 0u);
  writer.join();
  EXPECT_TRUE(write_ok.load());
}

TEST(ShmRingTest, CreateRoundsCapacityToPowerOfTwoFloor) {
  auto tiny = ShmRing::Create(1);
  ASSERT_TRUE(tiny.ok()) << tiny.status().ToString();
  EXPECT_EQ((*tiny)->ring_bytes(), 4096u);

  auto odd = ShmRing::Create(5000);
  ASSERT_TRUE(odd.ok()) << odd.status().ToString();
  EXPECT_EQ((*odd)->ring_bytes(), 8192u);
  EXPECT_GE((*odd)->fd(), 0);
}

TEST(ShmRingTest, AttachRejectsForeignRegions) {
  // Too small to even hold the header.
  int fd = static_cast<int>(memfd_create("afs-shm-test", 0));
  ASSERT_GE(fd, 0);
  ASSERT_EQ(ftruncate(fd, 8), 0);
  auto tiny = ShmRing::Attach(fd);  // takes ownership either way
  EXPECT_FALSE(tiny.ok());

  // Right size class, garbage header.
  fd = static_cast<int>(memfd_create("afs-shm-test", 0));
  ASSERT_GE(fd, 0);
  ASSERT_EQ(ftruncate(fd, 1 << 16), 0);
  auto garbage = ShmRing::Attach(fd);
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.status().code(), ErrorCode::kProtocolError);
}

TEST(ShmRingTest, SeededWraparoundStream) {
  auto ring = SmallRing();
  ASSERT_TRUE(ring.ok()) << ring.status().ToString();
  // 1 MiB through a 4 KiB ring: hundreds of wraparounds, chunk sizes both
  // under and far over the capacity.
  RunSeededStream(**ring, ShmRing::kToSentinel, 0xA11CE, 1 << 20);
}

TEST(ShmRingTest, SingleWriteLargerThanCapacityStreamsThrough) {
  auto ring = SmallRing();
  ASSERT_TRUE(ring.ok()) << ring.status().ToString();
  Buffer payload(64 * 1024);
  Prng(0xB16).Fill(MutableByteSpan(payload));
  std::thread writer([&] {
    EXPECT_OK((*ring)->Write(ShmRing::kToApp, ByteSpan(payload), kGenerous));
  });
  Buffer out(payload.size());
  ASSERT_OK((*ring)->ReadExact(ShmRing::kToApp, MutableByteSpan(out),
                               kGenerous));
  writer.join();
  EXPECT_EQ(std::memcmp(out.data(), payload.data(), payload.size()), 0);
}

TEST(ShmRingTest, FutexWakeupOrdering) {
  auto ring = SmallRing();
  ASSERT_TRUE(ring.ok()) << ring.status().ToString();
  obs::Counter& waits =
      obs::Registry::Global().GetCounter("ipc.shm.futex_waits");
  const std::uint64_t waits_before = waits.Value();

  // A reader parked on an empty ring is woken by the producing write, and
  // sees the bytes the waker published before the wake.
  std::atomic<bool> got_abc{false};
  std::thread reader([&] {
    Buffer out(3);
    auto n = (*ring)->ReadSome(ShmRing::kToSentinel, MutableByteSpan(out),
                               kGenerous);
    got_abc.store(n.ok() && *n == 3 &&
                  std::memcmp(out.data(), "abc", 3) == 0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_OK((*ring)->Write(ShmRing::kToSentinel, AsBytes("abc"), kGenerous));
  reader.join();
  EXPECT_TRUE(got_abc.load());
  // The parked read above futex-waited at least once.
  EXPECT_GT(waits.Value(), waits_before);

  // A writer parked on a full ring is woken by the drain on the other side.
  const std::size_t cap = (*ring)->ring_bytes();
  Buffer fill(cap);
  Prng(0xF111).Fill(MutableByteSpan(fill));
  ASSERT_OK((*ring)->Write(ShmRing::kToApp, ByteSpan(fill), kGenerous));
  std::atomic<bool> wrote_more{false};
  std::thread writer([&] {
    wrote_more.store(
        (*ring)->Write(ShmRing::kToApp, AsBytes("tail"), kGenerous).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Buffer drain(cap);
  ASSERT_OK((*ring)->ReadExact(ShmRing::kToApp, MutableByteSpan(drain),
                               kGenerous));
  writer.join();
  EXPECT_TRUE(wrote_more.load());
  Buffer tail(4);
  ASSERT_OK((*ring)->ReadExact(ShmRing::kToApp, MutableByteSpan(tail),
                               kGenerous));
  EXPECT_EQ(ToString(ByteSpan(tail)), "tail");
}

TEST(ShmRingTest, CloseAfterProduceDrainsBeforeEof) {
  auto ring = SmallRing();
  ASSERT_TRUE(ring.ok()) << ring.status().ToString();
  ASSERT_OK((*ring)->Write(ShmRing::kToSentinel, AsBytes("last"), kGenerous));
  (*ring)->CloseDir(ShmRing::kToSentinel);
  // Buffered bytes survive the close; only then does the stream end.
  Buffer out(4);
  ASSERT_OK((*ring)->ReadExact(ShmRing::kToSentinel, MutableByteSpan(out),
                               kGenerous));
  EXPECT_EQ(ToString(ByteSpan(out)), "last");
  auto eof = (*ring)->ReadSome(ShmRing::kToSentinel, MutableByteSpan(out),
                               kGenerous);
  ASSERT_TRUE(eof.ok()) << eof.status().ToString();
  EXPECT_EQ(*eof, 0u);
  // Writers fail immediately once the direction is closed.
  EXPECT_STATUS_CODE(
      (*ring)->Write(ShmRing::kToSentinel, AsBytes("no"), kGenerous),
      ErrorCode::kClosed);
}

// The bound covers the whole read, not each wait inside it: four bytes at
// once, then one every 60 ms (each inside the 100 ms budget on its own),
// still cost the reader kTimeout at ~100 ms.
TEST(ShmRingTest, TricklingWriterCannotStretchABoundedRead) {
  auto ring = SmallRing();
  ASSERT_TRUE(ring.ok()) << ring.status().ToString();
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    EXPECT_OK((*ring)->Write(ShmRing::kToApp, AsBytes("head"), kGenerous));
    for (int i = 0; i < 8 && !stop.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
      EXPECT_OK((*ring)->Write(ShmRing::kToApp, AsBytes("x"), kGenerous));
    }
  });
  Buffer out(12);
  const auto start = std::chrono::steady_clock::now();
  const Status read =
      (*ring)->ReadExact(ShmRing::kToApp, MutableByteSpan(out),
                         Micros{100'000});
  const auto elapsed = std::chrono::steady_clock::now() - start;
  stop.store(true);
  writer.join();
  EXPECT_STATUS_CODE(read, ErrorCode::kTimeout);
  EXPECT_LT(elapsed, std::chrono::milliseconds(200));
}

// A finite deadline that has already passed is an immediate kTimeout —
// never mistaken for "no deadline".
TEST(ShmRingTest, ExpiredDeadlineTimesOutAtOnce) {
  auto ring = SmallRing();
  ASSERT_TRUE(ring.ok()) << ring.status().ToString();
  const Deadline passed = Deadline::In(Micros{1});
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  Buffer out(4);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_STATUS_CODE(
      (*ring)->ReadExact(ShmRing::kToApp, MutableByteSpan(out), passed),
      ErrorCode::kTimeout);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(50));
}

// ---------------------------------------------------------------------------
// Fault sites.

TEST(ShmRingFaultTest, MapFailSurfacesAtCreate) {
  auto plan = fault::ParsePlan("seed=1;ipc.shm.map_fail=error:io@n1");
  ASSERT_TRUE(plan.ok());
  fault::ScopedFaultPlan scoped(std::move(*plan));
  auto ring = ShmRing::Create(1 << 16);
  ASSERT_FALSE(ring.ok());
  EXPECT_EQ(ring.status().code(), ErrorCode::kIoError);
  // The rule was one-shot: the retry maps fine.
  EXPECT_TRUE(ShmRing::Create(1 << 16).ok());
}

TEST(ShmRingFaultTest, TornWriteReportsIoErrorAndPartialBytes) {
  auto ring = SmallRing();
  ASSERT_TRUE(ring.ok()) << ring.status().ToString();
  auto plan = fault::ParsePlan("seed=2;ipc.shm.torn_write=truncate:3@n1");
  ASSERT_TRUE(plan.ok());
  fault::ScopedFaultPlan scoped(std::move(*plan));
  // The torn write stops after 3 of 8 bytes and says so: exactly the shape
  // of a writer dying mid-transfer.  The reader sees the partial prefix,
  // then EOF once the direction closes — never invented bytes.
  EXPECT_STATUS_CODE(
      (*ring)->Write(ShmRing::kToApp, AsBytes("12345678"), kGenerous),
      ErrorCode::kIoError);
  EXPECT_EQ((*ring)->buffered(ShmRing::kToApp), 3u);
  (*ring)->CloseDir(ShmRing::kToApp);
  Buffer out(8);
  auto n = (*ring)->ReadSome(ShmRing::kToApp, MutableByteSpan(out), kGenerous);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 3u);
  EXPECT_EQ(ToString(ByteSpan(out).first(3)), "123");
  auto eof = (*ring)->ReadSome(ShmRing::kToApp, MutableByteSpan(out),
                               kGenerous);
  ASSERT_TRUE(eof.ok());
  EXPECT_EQ(*eof, 0u);
}

TEST(ShmRingFaultTest, PeerStallSurfacesAtRead) {
  auto ring = SmallRing();
  ASSERT_TRUE(ring.ok()) << ring.status().ToString();
  ASSERT_OK((*ring)->Write(ShmRing::kToApp, AsBytes("data"), kGenerous));
  auto plan = fault::ParsePlan("seed=3;ipc.shm.peer_stall=error:timeout@n1");
  ASSERT_TRUE(plan.ok());
  fault::ScopedFaultPlan scoped(std::move(*plan));
  Buffer out(4);
  // The stalled read fails with the injected code even though bytes are
  // buffered; the retry (rule exhausted) delivers them.
  EXPECT_STATUS_CODE(
      (*ring)->ReadSome(ShmRing::kToApp, MutableByteSpan(out), kGenerous)
          .status(),
      ErrorCode::kTimeout);
  ASSERT_OK((*ring)->ReadExact(ShmRing::kToApp, MutableByteSpan(out),
                               kGenerous));
  EXPECT_EQ(ToString(ByteSpan(out)), "data");
}

// ---------------------------------------------------------------------------
// Cross-process conformance: fork, attach by inherited fd, echo 1 MiB.

TEST(ShmRingTest, ForkEchoAttachByFdIsByteIdentical) {
  auto created = ShmRing::Create(64 * 1024);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::shared_ptr<ShmRing> ring = *created;
  // The child attaches through the descriptor (the exec-mode path) rather
  // than reusing the parent's mapping, so header validation and the
  // attach-side fault point run in a real second process.
  const int child_fd = ::dup(ring->fd());
  ASSERT_GE(child_fd, 0);

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto attached = ShmRing::Attach(child_fd);
    if (!attached.ok()) _exit(3);
    Buffer buf(8192);
    while (true) {
      auto n = (*attached)->ReadSome(ShmRing::kToSentinel,
                                     MutableByteSpan(buf), kGenerous);
      if (!n.ok()) _exit(4);
      if (*n == 0) break;  // parent closed: echo complete
      if (!(*attached)
               ->Write(ShmRing::kToApp, ByteSpan(buf).first(*n), kGenerous)
               .ok()) {
        _exit(5);
      }
    }
    (*attached)->CloseDir(ShmRing::kToApp);
    _exit(0);
  }
  ::close(child_fd);

  const std::size_t total = 1 << 20;
  Buffer want(total);
  Prng(0xEC40).Fill(MutableByteSpan(want));
  std::atomic<bool> write_ok{true};
  std::thread writer([&] {
    const std::size_t chunk = 4096 + 1234;  // never divides cap: wraps drift
    std::size_t sent = 0;
    while (sent < total) {
      const std::size_t n = std::min(chunk, total - sent);
      if (!ring->Write(ShmRing::kToSentinel,
                       ByteSpan(want).subspan(sent, n), kGenerous)
               .ok()) {
        write_ok.store(false);
        return;
      }
      sent += n;
    }
    ring->CloseDir(ShmRing::kToSentinel);
  });

  Buffer echoed(total);
  const Status read = ring->ReadExact(ShmRing::kToApp,
                                      MutableByteSpan(echoed), kGenerous);
  writer.join();
  ASSERT_OK(read);
  ASSERT_TRUE(write_ok.load());
  EXPECT_EQ(std::memcmp(echoed.data(), want.data(), total), 0);

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child status " << status;
}

// ---------------------------------------------------------------------------
// TSan hammer: both directions live at once, seeded random chunking on all
// four sides.  Any ordering bug in the head/tail/eventcount protocol shows
// up here as a data race or a checksum mismatch.

TEST(ShmRingTest, HammerBothDirectionsConcurrently) {
  auto ring = ShmRing::Create(8 * 1024);
  ASSERT_TRUE(ring.ok()) << ring.status().ToString();
  constexpr std::size_t kTotal = 2 << 20;

  Buffer stream0(kTotal);
  Buffer stream1(kTotal);
  Prng(0x1111).Fill(MutableByteSpan(stream0));
  Prng(0x2222).Fill(MutableByteSpan(stream1));

  auto writer = [&](int dir, const Buffer& want, std::uint64_t seed,
                    std::atomic<bool>& ok) {
    Prng sizes(seed ^ 0x77ull);
    std::size_t sent = 0;
    while (sent < kTotal) {
      const std::size_t n = static_cast<std::size_t>(
          1 + sizes.NextBelow(std::min<std::uint64_t>(kTotal - sent, 20000)));
      if (!(*ring)->Write(dir, ByteSpan(want).subspan(sent, n), kGenerous)
               .ok()) {
        ok.store(false);
        return;
      }
      sent += n;
    }
    (*ring)->CloseDir(dir);
  };
  auto reader = [&](int dir, const Buffer& want, std::uint64_t seed,
                    std::atomic<bool>& ok) {
    Prng sizes(seed ^ 0x99ull);
    Buffer got;
    std::size_t received = 0;
    while (received < kTotal) {
      got.resize(static_cast<std::size_t>(1 + sizes.NextBelow(16000)));
      auto n = (*ring)->ReadSome(dir, MutableByteSpan(got), kGenerous);
      if (!n.ok() || *n == 0) {
        ok.store(false);
        return;
      }
      if (std::memcmp(got.data(), want.data() + received, *n) != 0) {
        ok.store(false);
        return;
      }
      received += *n;
    }
  };

  std::atomic<bool> w0{true};
  std::atomic<bool> r0{true};
  std::atomic<bool> w1{true};
  std::atomic<bool> r1{true};
  std::thread t0([&] { writer(ShmRing::kToSentinel, stream0, 0x1111, w0); });
  std::thread t1([&] { reader(ShmRing::kToSentinel, stream0, 0x1111, r0); });
  std::thread t2([&] { writer(ShmRing::kToApp, stream1, 0x2222, w1); });
  std::thread t3([&] { reader(ShmRing::kToApp, stream1, 0x2222, r1); });
  t0.join();
  t1.join();
  t2.join();
  t3.join();
  EXPECT_TRUE(w0.load() && r0.load() && w1.load() && r1.load());
}

// ---------------------------------------------------------------------------
// Pipe-vs-shm conformance at the file API: the same sizes through both
// planes come back byte-identical, and the shm plane demonstrably used the
// ring.

class ShmPlaneConformanceTest : public ::testing::Test {
 protected:
  ShmPlaneConformanceTest()
      : api_(tmp_.path() + "/root"),
        manager_(api_, sentinel::SentinelRegistry::Global(),
                 ManagerOptions{}) {
    sentinels::RegisterBuiltinSentinels();
    manager_.Install();
  }

  SentinelSpec Spec(const std::string& strategy,
                    const std::string& threshold) {
    SentinelSpec spec;
    spec.name = "null";
    spec.config["cache"] = "memory";
    spec.config["strategy"] = strategy;
    spec.config["shm_threshold"] = threshold;
    return spec;
  }

  // Writes `payload` then reads it back through a fresh handle.
  Buffer RoundTrip(const std::string& file, const SentinelSpec& spec,
                   ByteSpan payload) {
    EXPECT_OK(manager_.CreateActiveFile(file, spec));
    auto handle = api_.OpenFile(file, vfs::OpenMode::kReadWrite);
    EXPECT_TRUE(handle.ok()) << handle.status().ToString();
    if (!handle.ok()) return {};
    auto wrote = api_.WriteFile(*handle, payload);
    EXPECT_TRUE(wrote.ok()) << wrote.status().ToString();
    auto pos = api_.SetFilePointer(*handle, 0, vfs::SeekOrigin::kBegin);
    EXPECT_TRUE(pos.ok()) << pos.status().ToString();
    Buffer out(payload.size());
    auto got = api_.ReadFile(*handle, MutableByteSpan(out));
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (got.ok()) out.resize(*got);
    EXPECT_OK(api_.CloseHandle(*handle));
    return out;
  }

  TempDir tmp_;
  vfs::FileApi api_;
  ActiveFileManager manager_;
};

TEST_F(ShmPlaneConformanceTest, SizeSweepPipeVsShmByteIdentical) {
  obs::Counter& ring_bytes =
      obs::Registry::Global().GetCounter("ipc.shm.bytes");
  const std::uint64_t before = ring_bytes.Value();
  const std::size_t sizes[] = {1, 7, 4095, 4096, 4097, 65536, 1 << 20};
  int index = 0;
  for (const std::size_t size : sizes) {
    Buffer payload(size);
    Prng(0xC0FFEE ^ size).Fill(MutableByteSpan(payload));
    // threshold=1 forces even the 1-byte payload through the ring.
    Buffer shm = RoundTrip("shm" + std::to_string(index) + ".af",
                           Spec("process_control", "1"), ByteSpan(payload));
    Buffer pipe = RoundTrip("pipe" + std::to_string(index) + ".af",
                            Spec("process_control", "off"), ByteSpan(payload));
    ++index;
    ASSERT_EQ(shm.size(), size);
    ASSERT_EQ(pipe.size(), size);
    EXPECT_EQ(std::memcmp(shm.data(), payload.data(), size), 0)
        << "shm plane diverged at size " << size;
    EXPECT_EQ(std::memcmp(pipe.data(), payload.data(), size), 0)
        << "pipe plane diverged at size " << size;
  }
  // The shm runs really rode the ring: at least every write payload landed
  // in the ipc.shm.bytes counter on this (application) side.
  std::size_t swept = 0;
  for (const std::size_t size : sizes) swept += size;
  EXPECT_GE(ring_bytes.Value() - before, swept);
}

TEST_F(ShmPlaneConformanceTest, StreamStrategyRidesTheRing) {
  obs::Counter& ring_bytes =
      obs::Registry::Global().GetCounter("ipc.shm.bytes");
  const std::uint64_t before = ring_bytes.Value();
  Buffer payload(64 * 1024);
  Prng(0x57AE).Fill(MutableByteSpan(payload));
  ASSERT_OK(manager_.CreateActiveFile("stream.af", Spec("process", "1")));
  auto handle = api_.OpenFile("stream.af", vfs::OpenMode::kReadWrite);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  auto wrote = api_.WriteFile(*handle, ByteSpan(payload));
  ASSERT_TRUE(wrote.ok()) << wrote.status().ToString();
  EXPECT_EQ(*wrote, payload.size());
  ASSERT_OK(api_.CloseHandle(*handle));
  EXPECT_GE(ring_bytes.Value() - before, payload.size());
}

TEST_F(ShmPlaneConformanceTest, MapFailFallsBackToPipesTransparently) {
  obs::Counter& fallbacks =
      obs::Registry::Global().GetCounter("ipc.shm.fallbacks");
  const std::uint64_t before = fallbacks.Value();
  auto plan = fault::ParsePlan("seed=4;ipc.shm.map_fail=error:io@n1");
  ASSERT_TRUE(plan.ok());
  fault::ScopedFaultPlan scoped(std::move(*plan));
  // Ring setup fails at open; the link must come up on pipes and serve the
  // same bytes — fallback is a performance event, not a failure.
  Buffer payload(32 * 1024);
  Prng(0xFA11).Fill(MutableByteSpan(payload));
  Buffer out = RoundTrip("fallback.af", Spec("process_control", "1"),
                         ByteSpan(payload));
  ASSERT_EQ(out.size(), payload.size());
  EXPECT_EQ(std::memcmp(out.data(), payload.data(), out.size()), 0);
  EXPECT_GT(fallbacks.Value(), before);
}

TEST_F(ShmPlaneConformanceTest, VectoredOpsWithoutRingCrossOnce) {
  // With the ring off, a vectored op still takes one crossing: one control
  // frame from this side, the segments concatenated on the write pipe or
  // in the response frame.
  obs::Counter& frames =
      obs::Registry::Global().GetCounter("ipc.frame.write.count");
  ASSERT_OK(
      manager_.CreateActiveFile("vec.af", Spec("process_control", "off")));
  auto handle = api_.OpenFile("vec.af", vfs::OpenMode::kReadWrite);
  ASSERT_OK(handle.status());
  constexpr std::size_t kSegments = 8;
  constexpr std::size_t kSegmentBytes = 1024;
  Buffer payload(kSegments * kSegmentBytes);
  Prng(0x8EC).Fill(MutableByteSpan(payload));
  std::vector<ByteSpan> gather;
  Buffer back(payload.size());
  std::vector<MutableByteSpan> scatter;
  for (std::size_t i = 0; i < kSegments; ++i) {
    gather.push_back(
        ByteSpan(payload).subspan(i * kSegmentBytes, kSegmentBytes));
    scatter.push_back(
        MutableByteSpan(back).subspan(i * kSegmentBytes, kSegmentBytes));
  }

  std::uint64_t before = frames.Value();
  auto wrote = api_.WriteFileGather(*handle, gather);
  ASSERT_OK(wrote.status());
  EXPECT_EQ(*wrote, payload.size());
  EXPECT_EQ(frames.Value() - before, 1u);

  ASSERT_OK(api_.SetFilePointer(*handle, 0, vfs::SeekOrigin::kBegin).status());
  before = frames.Value();
  auto got = api_.ReadFileScatter(*handle, scatter);
  ASSERT_OK(got.status());
  EXPECT_EQ(*got, payload.size());
  EXPECT_EQ(frames.Value() - before, 1u);
  EXPECT_EQ(back, payload);
  ASSERT_OK(api_.CloseHandle(*handle));
}

}  // namespace
}  // namespace afs
