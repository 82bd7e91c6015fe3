// Lease-based client cache tests (docs/CACHING.md): hit-path accounting,
// passthrough degradation against non-granting peers, recall coherence
// after an upstream change, write-behind flushing, and the headline
// seeded property test — a random op tape applied to a cached and an
// uncached twin of the same remote-backed file, driven by 2 writers and
// 2 readers, must leave both upstream files byte-identical, and a read
// after a recall ack must see the latest committed content.
//
// Exercised metrics: core.cache.hits, core.cache.misses,
// core.cache.recalls, core.cache.dirty_bytes, core.cache.lease_renews.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "afs.hpp"
#include "core/cache.hpp"
#include "core/resolvers.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"
#include "util/prng.hpp"

namespace afs {
namespace {

using test::FakeUpstreamServer;
using test::TempDir;

std::uint64_t CounterValue(const std::string& name) {
  return obs::Registry::Global().GetCounter(name).Value();
}

class CacheTest : public ::testing::Test {
 protected:
  CacheTest()
      : upstream_(tmp_.path(), FakeUpstreamServer::Protocol::kFile),
        api_(tmp_.path() + "/root") {
    EXPECT_TRUE(upstream_.Start().ok());
    sentinels::RegisterBuiltinSentinels();
    core::ManagerOptions options;
    options.resolver = &resolver_;
    manager_ = std::make_unique<core::ActiveFileManager>(
        api_, sentinel::SentinelRegistry::Global(), std::move(options));
    manager_->Install();
  }

  // A remote-backed bundle pointing at `file` on the fake upstream.
  sentinel::SentinelSpec RemoteSpec(const std::string& file,
                                    const std::string& cache_mode,
                                    const std::string& lease_ms) {
    sentinel::SentinelSpec spec;
    spec.name = "remote";
    spec.config["url"] = upstream_.url();
    spec.config["file"] = file;
    spec.config["cache"] = cache_mode;
    spec.config["lease_ms"] = lease_ms;
    spec.config["strategy"] = "thread";
    spec.config["consistency"] = "always";
    return spec;
  }

  TempDir tmp_;
  FakeUpstreamServer upstream_;
  core::SocketResolver resolver_;
  vfs::FileApi api_;
  std::unique_ptr<core::ActiveFileManager> manager_;
};

TEST_F(CacheTest, HitPathServesFromClientMemory) {
  ASSERT_OK(upstream_.Mutate("hot.txt", std::string("cache me please")));
  ASSERT_OK(manager_->CreateActiveFile("hot.af", RemoteSpec("hot.txt", "read",
                                                            "5000")));

  auto handle = api_.OpenFile("hot.af", vfs::OpenMode::kRead);
  ASSERT_OK(handle.status());

  const std::uint64_t hits_before = CounterValue("core.cache.hits");
  const std::uint64_t misses_before = CounterValue("core.cache.misses");

  Buffer out(15);
  ASSERT_OK(api_.ReadFile(*handle, MutableByteSpan(out)).status());
  EXPECT_EQ(ToString(ByteSpan(out)), "cache me please");

  // Re-read the same block a few times; after the priming miss every one
  // is a client-memory hit that never crosses the IPC boundary.
  for (int i = 0; i < 8; ++i) {
    ASSERT_OK(api_.SetFilePointer(*handle, 0, vfs::SeekOrigin::kBegin)
                  .status());
    ASSERT_OK(api_.ReadFile(*handle, MutableByteSpan(out)).status());
    EXPECT_EQ(ToString(ByteSpan(out)), "cache me please");
  }
  EXPECT_GE(CounterValue("core.cache.hits") - hits_before, 8u);
  EXPECT_GE(CounterValue("core.cache.misses") - misses_before, 1u);
  ASSERT_OK(api_.CloseHandle(*handle));
}

TEST_F(CacheTest, NonGrantingPeerDegradesToPassthrough) {
  // The "null" sentinel never grants a lease; cache=read on its spec
  // selects the memory data part and the client wrapper must stay a pure
  // passthrough (correct bytes, no renewal storms against a peer that
  // will never answer them).
  sentinel::SentinelSpec spec;
  spec.name = "null";
  spec.config["cache"] = "read";
  spec.config["strategy"] = "thread";
  ASSERT_OK(manager_->CreateActiveFile("plain.af", spec,
                                       AsBytes("plain passthrough text")));

  auto content = api_.ReadWholeFile("plain.af");
  ASSERT_OK(content.status());
  EXPECT_EQ(ToString(ByteSpan(*content)), "plain passthrough text");
}

TEST_F(CacheTest, UpstreamChangeRecallsCachedBlocks) {
  ASSERT_OK(upstream_.Mutate("doc.txt", std::string("version-one")));
  ASSERT_OK(
      manager_->CreateActiveFile("doc.af", RemoteSpec("doc.txt", "read",
                                                      "150")));

  auto handle = api_.OpenFile("doc.af", vfs::OpenMode::kRead);
  ASSERT_OK(handle.status());
  Buffer out(11);
  ASSERT_OK(api_.ReadFile(*handle, MutableByteSpan(out)).status());
  EXPECT_EQ(ToString(ByteSpan(out)), "version-one");

  const std::uint64_t recalls_before = CounterValue("core.cache.recalls");
  const std::uint64_t renews_before = CounterValue("core.cache.lease_renews");
  ASSERT_OK(upstream_.Mutate("doc.txt", std::string("version-TWO")));

  // Within the lease the client may serve the stale block, but once the
  // lease lapses the renewal crossing revalidates upstream, the sentinel
  // recalls, and the next read fetches the new content.
  ASSERT_TRUE(test::PollUntil([&] {
    Buffer again(11);
    if (!api_.SetFilePointer(*handle, 0, vfs::SeekOrigin::kBegin).ok()) {
      return false;
    }
    auto n = api_.ReadFile(*handle, MutableByteSpan(again));
    return n.ok() && ToString(ByteSpan(again)) == "version-TWO";
  }));
  EXPECT_GE(CounterValue("core.cache.recalls") - recalls_before, 1u);
  EXPECT_GE(CounterValue("core.cache.lease_renews") - renews_before, 1u);
  ASSERT_OK(api_.CloseHandle(*handle));
}

TEST_F(CacheTest, WriteBehindFlushesThroughOnFlush) {
  ASSERT_OK(upstream_.Mutate("wb.txt", std::string(8192, 'a')));
  ASSERT_OK(
      manager_->CreateActiveFile("wb.af", RemoteSpec("wb.txt", "write",
                                                     "5000")));

  auto handle = api_.OpenFile("wb.af", vfs::OpenMode::kReadWrite);
  ASSERT_OK(handle.status());

  // Dirty one block; the write is buffered client-side (dirty_bytes grows)
  // until the explicit flush pushes it through the sentinel.
  ASSERT_OK(api_.SetFilePointer(*handle, 100, vfs::SeekOrigin::kBegin)
                .status());
  ASSERT_OK(api_.WriteFile(*handle, AsBytes("DIRTY")).status());
  ASSERT_OK(api_.FlushFileBuffers(*handle));
  ASSERT_OK(api_.CloseHandle(*handle));

  auto server_side = upstream_.store().Get("wb.txt");
  ASSERT_OK(server_side.status());
  std::string expect(8192, 'a');
  expect.replace(100, 5, "DIRTY");
  EXPECT_EQ(ToString(ByteSpan(*server_side)), expect);
}

// ---- the coherence property test -------------------------------------------
//
// One op tape, two files: "cached.af" (cache=write) and "uncached.af"
// (cache=off) both backed by the fake upstream.  2 writer threads own
// disjoint byte ranges and replay deterministic per-writer tapes onto
// both files; 2 reader threads hammer reads concurrently (lease
// consistency: reads must never error and never observe a byte no writer
// ever produced).  After the tape drains and both files flush, the two
// upstream files must be byte-identical.  Then the upstream mutates the
// cached file and a post-recall read must see the new committed content.

constexpr std::size_t kFileSize = 32 * 1024;
constexpr std::size_t kWriterRegion = kFileSize / 2;
constexpr int kOpsPerWriter = 64;

struct TapeOp {
  std::uint64_t offset;
  std::string data;
};

std::vector<TapeOp> MakeTape(std::uint64_t seed, int writer) {
  Prng prng(seed * 1315423911u + static_cast<std::uint64_t>(writer));
  std::vector<TapeOp> tape;
  tape.reserve(kOpsPerWriter);
  const std::uint64_t base = static_cast<std::uint64_t>(writer) * kWriterRegion;
  for (int i = 0; i < kOpsPerWriter; ++i) {
    const std::uint64_t len = 1 + prng.NextU64() % 512;
    const std::uint64_t offset =
        base + prng.NextU64() % (kWriterRegion - len);
    std::string data(len, '\0');
    for (auto& c : data) {
      c = static_cast<char>('A' + (prng.NextU64() % 26));
    }
    tape.push_back({offset, std::move(data)});
  }
  return tape;
}

TEST_F(CacheTest, PropertyCachedAndUncachedTwinsConverge) {
  std::uint64_t seed = 0;
  if (const char* env = std::getenv("AFS_TEST_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  } else {
    seed = static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
  }
  // Printed up front so a failure is reproducible with AFS_TEST_SEED.
  std::fprintf(stderr, "cache property test seed: %llu\n",
               static_cast<unsigned long long>(seed));
  SCOPED_TRACE("AFS_TEST_SEED=" + std::to_string(seed));

  const std::string initial(kFileSize, '.');
  ASSERT_OK(upstream_.Mutate("cached.txt", initial));
  ASSERT_OK(upstream_.Mutate("uncached.txt", initial));
  ASSERT_OK(manager_->CreateActiveFile(
      "cached.af", RemoteSpec("cached.txt", "write", "200")));
  ASSERT_OK(manager_->CreateActiveFile(
      "uncached.af", RemoteSpec("uncached.txt", "off", "200")));

  auto cached = api_.OpenFile("cached.af", vfs::OpenMode::kReadWrite);
  auto uncached = api_.OpenFile("uncached.af", vfs::OpenMode::kReadWrite);
  ASSERT_OK(cached.status());
  ASSERT_OK(uncached.status());

  // Seek+op pairs share the handle's file pointer, so each file gets a
  // tape mutex making the pair atomic; writer interleaving across regions
  // stays free.
  std::mutex cached_mu;
  std::mutex uncached_mu;
  std::atomic<int> errors{0};
  std::atomic<bool> writers_done{false};

  auto write_at = [&](vfs::HandleId h, std::mutex& mu, const TapeOp& op) {
    std::lock_guard<std::mutex> lock(mu);
    if (!api_.SetFilePointer(h, static_cast<std::int64_t>(op.offset),
                             vfs::SeekOrigin::kBegin)
             .ok() ||
        !api_.WriteFile(h, AsBytes(op.data)).ok()) {
      errors.fetch_add(1);
    }
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      for (const TapeOp& op : MakeTape(seed, w)) {
        write_at(*cached, cached_mu, op);
        write_at(*uncached, uncached_mu, op);
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      Prng prng(seed ^ (0xabcdefULL + static_cast<std::uint64_t>(r)));
      while (!writers_done.load(std::memory_order_acquire)) {
        Buffer out(256);
        const std::uint64_t offset = prng.NextU64() % (kFileSize - out.size());
        std::size_t n = 0;
        {
          std::lock_guard<std::mutex> lock(cached_mu);
          if (!api_.SetFilePointer(*cached,
                                   static_cast<std::int64_t>(offset),
                                   vfs::SeekOrigin::kBegin)
                   .ok()) {
            errors.fetch_add(1);
            continue;
          }
          auto got = api_.ReadFile(*cached, MutableByteSpan(out));
          if (!got.ok()) {
            errors.fetch_add(1);
            continue;
          }
          n = *got;
        }
        // Lease consistency: every byte read is one some writer (or the
        // initial fill) actually produced.
        for (std::size_t i = 0; i < n; ++i) {
          const char c = static_cast<char>(out[i]);
          if (c != '.' && (c < 'A' || c > 'Z')) {
            errors.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (int w = 0; w < 2; ++w) threads[static_cast<std::size_t>(w)].join();
  writers_done.store(true, std::memory_order_release);
  for (std::size_t t = 2; t < threads.size(); ++t) threads[t].join();
  EXPECT_EQ(errors.load(), 0);

  // Quiesce: flush both twins through to the upstream and compare there.
  ASSERT_OK(api_.FlushFileBuffers(*cached));
  ASSERT_OK(api_.FlushFileBuffers(*uncached));
  auto cached_side = upstream_.store().Get("cached.txt");
  auto uncached_side = upstream_.store().Get("uncached.txt");
  ASSERT_OK(cached_side.status());
  ASSERT_OK(uncached_side.status());
  EXPECT_EQ(*cached_side, *uncached_side)
      << "cached and uncached twins diverged";

  // Recall coherence: mutate the upstream under the still-open cached
  // handle; once the lease lapses and the recall is acknowledged, a read
  // must see the latest committed content, not a resurrected stale block.
  const std::string final_content(kFileSize, '#');
  ASSERT_OK(upstream_.Mutate("cached.txt", final_content));
  ASSERT_TRUE(test::PollUntil([&] {
    std::lock_guard<std::mutex> lock(cached_mu);
    Buffer out(64);
    if (!api_.SetFilePointer(*cached, 0, vfs::SeekOrigin::kBegin).ok()) {
      return false;
    }
    auto n = api_.ReadFile(*cached, MutableByteSpan(out));
    return n.ok() && *n == out.size() &&
           ToString(ByteSpan(out)) == std::string(64, '#');
  }));

  ASSERT_OK(api_.CloseHandle(*cached));
  ASSERT_OK(api_.CloseHandle(*uncached));
}

// dirty_bytes accounting: grows while write-behind buffers, returns to
// its floor once everything flushed (core.cache.dirty_bytes is a gauge).
TEST_F(CacheTest, DirtyBytesGaugeDrainsOnFlush) {
  ASSERT_OK(upstream_.Mutate("gauge.txt", std::string(16384, 'g')));
  ASSERT_OK(manager_->CreateActiveFile(
      "gauge.af", RemoteSpec("gauge.txt", "write", "5000")));

  auto handle = api_.OpenFile("gauge.af", vfs::OpenMode::kReadWrite);
  ASSERT_OK(handle.status());
  auto& gauge = obs::Registry::Global().GetGauge("core.cache.dirty_bytes");
  const std::int64_t before = gauge.Value();

  ASSERT_OK(api_.WriteFile(*handle, AsBytes("dirty data")).status());
  EXPECT_GT(gauge.Value(), before);

  ASSERT_OK(api_.FlushFileBuffers(*handle));
  EXPECT_EQ(gauge.Value(), before);
  ASSERT_OK(api_.CloseHandle(*handle));
}

// Write-behind needs no admission gate to stay bounded: the resident set,
// dirty blocks included, is capped at cache_bytes / 4096 blocks, and an
// insert past the cap flushes first.  So un-flushed bytes never rise more
// than cache_bytes above the gauge's start, dirtying a block leaves the
// overload admission counters alone, and the upstream ends byte-exact.
TEST_F(CacheTest, WriteBehindStaysWithinCacheBytesWithoutAdmission) {
  constexpr std::size_t kSize = 64 * 1024;
  constexpr std::int64_t kCacheBytes = 8192;
  std::string expect(kSize, '.');
  ASSERT_OK(upstream_.Mutate("budget.txt", expect));
  sentinel::SentinelSpec spec = RemoteSpec("budget.txt", "write", "5000");
  spec.config["cache_bytes"] = std::to_string(kCacheBytes);
  ASSERT_OK(manager_->CreateActiveFile("budget.af", spec));

  auto handle = api_.OpenFile("budget.af", vfs::OpenMode::kReadWrite);
  ASSERT_OK(handle.status());
  auto& gauge = obs::Registry::Global().GetGauge("core.cache.dirty_bytes");
  const std::int64_t dirty_before = gauge.Value();
  const std::uint64_t admitted_before = CounterValue("core.overload.admitted");

  // Whole blocks and odd sizes that straddle block boundaries.
  const std::size_t steps[] = {4096, 1000, 4096, 3333, 517, 4096, 7};
  std::size_t offset = 0;
  std::int64_t peak_rise = 0;
  for (int i = 0; offset < kSize; ++i) {
    const std::size_t n = std::min(steps[i % 7], kSize - offset);
    const std::string data(n, static_cast<char>('A' + i % 26));
    auto wrote = api_.WriteFile(*handle, AsBytes(data));
    ASSERT_OK(wrote.status());
    ASSERT_EQ(*wrote, n);
    expect.replace(offset, n, data);
    offset += n;
    const std::int64_t rise = gauge.Value() - dirty_before;
    EXPECT_LE(rise, kCacheBytes) << "after " << offset << " bytes";
    peak_rise = std::max(peak_rise, rise);
  }
  EXPECT_GT(peak_rise, 0);  // the writes really went write-behind
  EXPECT_EQ(CounterValue("core.overload.admitted"), admitted_before);
  ASSERT_OK(api_.CloseHandle(*handle));

  auto server_side = upstream_.store().Get("budget.txt");
  ASSERT_OK(server_side.status());
  EXPECT_EQ(ToString(ByteSpan(*server_side)), expect);
}

// A seek before the start of the file is kOutOfRange with or without the
// client cache: turning on cache=read|write must not change what
// SetFilePointer reports.
TEST_F(CacheTest, SeekBeforeStartMatchesTheUncachedTwin) {
  ASSERT_OK(upstream_.Mutate("seek.txt", std::string("0123456789")));
  std::map<std::string, vfs::HandleId> handles;
  for (const std::string mode : {"off", "read", "write"}) {
    ASSERT_OK(manager_->CreateActiveFile(
        "seek-" + mode + ".af", RemoteSpec("seek.txt", mode, "5000")));
    auto handle = api_.OpenFile("seek-" + mode + ".af",
                                vfs::OpenMode::kReadWrite);
    ASSERT_OK(handle.status());
    handles[mode] = *handle;
  }
  const std::pair<std::int64_t, vfs::SeekOrigin> seeks[] = {
      {-1, vfs::SeekOrigin::kBegin},
      {-1, vfs::SeekOrigin::kCurrent},
      {-11, vfs::SeekOrigin::kEnd},
  };
  auto seek_code = [&](const std::string& mode, std::int64_t offset,
                       vfs::SeekOrigin origin) {
    return std::string(ErrorCodeName(
        api_.SetFilePointer(handles[mode], offset, origin).status().code()));
  };
  for (const auto& [offset, origin] : seeks) {
    SCOPED_TRACE("offset " + std::to_string(offset));
    const std::string uncached = seek_code("off", offset, origin);
    EXPECT_EQ(uncached, ErrorCodeName(ErrorCode::kOutOfRange));
    for (const std::string mode : {"read", "write"}) {
      EXPECT_EQ(seek_code(mode, offset, origin), uncached) << "cache=" << mode;
    }
  }
  for (const auto& [mode, handle] : handles) {
    EXPECT_OK(api_.CloseHandle(handle));
  }
}

}  // namespace
}  // namespace afs
