#include "workloads.hpp"

#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <numeric>

namespace perfbench {
namespace {

using afs::Buffer;
using afs::ByteSpan;
using afs::MutableByteSpan;
using afs::Result;
using afs::Status;
using afs::vfs::HandleId;
using afs::vfs::OpenMode;
using afs::vfs::SeekOrigin;

// The remote file service time of bench_fig6_remote, kept equal so the
// two stay comparable.
constexpr afs::Micros kServiceDelay{25};

double UsBetween(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e3;
}

afs::sentinel::SentinelSpec Spec(const std::string& sentinel, int series,
                                 std::map<std::string, std::string> config) {
  afs::sentinel::SentinelSpec spec;
  spec.name = sentinel;
  spec.config = std::move(config);
  spec.config["strategy"] = std::string(
      afs::core::StrategyName(kStrategies[series]));
  return spec;
}

template <typename T>
void Shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.Below(i)]);
  }
}

// Per-series cursor into the shared op stream, plus the open target.
struct Target {
  HandleId handle = afs::vfs::kInvalidHandle;
  Buffer shadow;
  std::uint64_t pos = 0;
  std::uint64_t cursor = 0;
  bool resync = false;
};

}  // namespace

// FileApi + installed manager (+ socket file server) under one directory.
class Sandbox {
 public:
  static Result<std::unique_ptr<Sandbox>> Create(const std::string& dir,
                                                 bool with_server) {
    std::unique_ptr<Sandbox> box(new Sandbox(dir));
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir + "/files", ec);
    if (ec) return afs::IoError("create " + dir + ": " + ec.message());
    box->api_ = std::make_unique<afs::vfs::FileApi>(
        std::filesystem::absolute(dir + "/files").string());
    if (with_server) {
      afs::net::SocketServer::Options options;
      options.service_delay = kServiceDelay;
      // A relative path keeps the socket name short whatever the checkout
      // path; forked sentinels share the working directory.
      box->server_ = std::make_unique<afs::net::SocketServer>(
          box->socket_path(), box->files_, options);
      AFS_RETURN_IF_ERROR(box->server_->Start());
    }
    afs::core::ManagerOptions options;
    options.resolver = &box->resolver_;
    box->manager_ = std::make_unique<afs::core::ActiveFileManager>(
        *box->api_, afs::sentinel::SentinelRegistry::Global(), options);
    box->manager_->Install();
    return box;
  }

  ~Sandbox() {
    manager_.reset();
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    api_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  afs::vfs::FileApi& api() { return *api_; }
  afs::core::ActiveFileManager& manager() { return *manager_; }
  afs::net::FileServer& files() { return files_; }
  std::string socket_path() const { return dir_ + "/f.sock"; }

 private:
  explicit Sandbox(std::string dir) : dir_(std::move(dir)) {}

  std::string dir_;
  std::unique_ptr<afs::vfs::FileApi> api_;
  afs::net::FileServer files_;
  std::unique_ptr<afs::net::SocketServer> server_;
  afs::core::SocketResolver resolver_;
  std::unique_ptr<afs::core::ActiveFileManager> manager_;
};

Workload::~Workload() = default;
afs::vfs::FileApi& Workload::api() { return box_->api(); }
afs::core::ActiveFileManager& Workload::manager() { return box_->manager(); }

namespace {

// Shared plumbing of the workloads that keep one handle per series.
class HandleWorkload : public Workload {
 protected:
  Status OpenTarget(int series, const std::string& path) {
    Target& t = targets_[series];
    const std::int64_t start = NowNs();
    auto handle = api().OpenFile(path, OpenMode::kReadWrite);
    open_us_[series].push_back(UsBetween(start, NowNs()));
    if (!handle.ok()) return handle.status();
    t.handle = *handle;
    return Status::Ok();
  }

  void CloseTargets() {
    if (box_ == nullptr) return;  // set-up failed before the sandbox existed
    for (int s = 0; s < kSeriesCount; ++s) {
      Target& t = targets_[s];
      if (t.handle == afs::vfs::kInvalidHandle) continue;
      const std::int64_t start = NowNs();
      (void)api().CloseHandle(t.handle);
      close_us_[s].push_back(UsBetween(start, NowNs()));
      t.handle = afs::vfs::kInvalidHandle;
    }
  }

  // Untimed warm-up through the same op stream the timed phase continues.
  Status Warm(int ops) {
    for (int i = 0; i < ops; ++i) {
      for (int s = 0; s < kSeriesCount; ++s) {
        OpRecord r = RunOp(s, nullptr, 0, 0);
        if (!r.ok) {
          return afs::InternalError("warm-up " + SeriesName(s) + " " +
                                    r.kind + " @" + std::to_string(r.offset) +
                                    ": " + r.error);
        }
      }
    }
    return Status::Ok();
  }

  // A failed op leaves the file pointer unknown; the next op re-seeks
  // (untimed) to where the shadow copy says it should be.
  void Resync(Target& t) {
    if (!t.resync) return;
    (void)api().SetFilePointer(t.handle, static_cast<std::int64_t>(t.pos),
                               SeekOrigin::kBegin);
    t.resync = false;
  }

  static OpRecord Failed(Target& t, OpRecord r, std::string error) {
    r.ok = false;
    r.error = std::move(error);
    t.resync = true;
    return r;
  }

  // Sequential-wraparound seek, itself one op.
  OpRecord Rewind(Target& t) {
    OpRecord r;
    r.kind = "seek";
    r.start_ns = NowNs();
    auto pos = api().SetFilePointer(t.handle, 0, SeekOrigin::kBegin);
    r.end_ns = NowNs();
    t.pos = 0;
    if (!pos.ok()) return Failed(t, r, pos.status().ToString());
    if (*pos != 0) return Failed(t, r, "seek landed at " + std::to_string(*pos));
    return r;
  }

  // Read-back check of `got` bytes against the shadow at the op's offset.
  static std::string Check(const Result<std::size_t>& n, std::size_t want,
                           const std::uint8_t* got, const Target& t,
                           std::uint64_t offset) {
    if (!n.ok()) return n.status().ToString();
    if (*n != want) {
      return "short transfer: " + std::to_string(*n) + " of " +
             std::to_string(want);
    }
    if (got != nullptr && std::memcmp(got, t.shadow.data() + offset, want) != 0) {
      return "bytes differ from the shadow copy";
    }
    return "";
  }

  std::array<Target, kSeriesCount> targets_;
};

// ---------------------------------------------------------------------------
// memory-small: Figure 6(c).  Null sentinel, cache=memory, 64 KiB data
// part; sequential 80/20 ReadFile/WriteFile at the paper's block sizes.

class MemorySmall final : public HandleWorkload {
 public:
  explicit MemorySmall(std::uint64_t seed)
      : content_(kFileBytes), pattern_(kPatternBytes), buf_(2048) {
    FillRandom(content_, seed ^ 0x6d656d31);
    FillRandom(pattern_, seed ^ 0x6d656d32);
    // Every seed gets exactly the same mix, each size 1/5 of the ops and
    // one op in five a write; the seed picks the order and the sources.
    Rng rng(seed);
    stream_.resize(kStreamLen);
    for (std::size_t i = 0; i < kStreamLen; ++i) {
      stream_[i].size = kSizes[i % std::size(kSizes)];
      stream_[i].write = (i / std::size(kSizes)) % 5 == 0;
      stream_[i].src = static_cast<std::uint32_t>(rng.Below(kPatternBytes - 2048));
    }
    Shuffle(stream_, rng);
  }

  Status SetUp(const std::string& dir) override {
    AFS_ASSIGN_OR_RETURN(box_, Sandbox::Create(dir, false));
    for (int s = 0; s < kSeriesCount; ++s) {
      targets_[s] = Target{};
      targets_[s].shadow = content_;
      std::string path;
      if (s == kBaseline) {
        path = "ms-baseline.bin";
        AFS_RETURN_IF_ERROR(api().WriteWholeFile(path, content_));
      } else {
        path = "ms-" + SeriesName(s) + ".af";
        AFS_RETURN_IF_ERROR(manager().CreateActiveFile(
            path, Spec("null", s, {{"cache", "memory"}}), content_));
      }
      AFS_RETURN_IF_ERROR(OpenTarget(s, path));
    }
    return Warm(2000);
  }

  void TearDown() override {
    CloseTargets();
    box_.reset();
  }

  OpRecord RunOp(int series, Tracer*, std::uint64_t, std::uint64_t) override {
    Target& t = targets_[series];
    Resync(t);
    const Op& op = stream_[t.cursor % kStreamLen];
    if (t.pos + op.size > kFileBytes) return Rewind(t);
    ++t.cursor;
    OpRecord r;
    r.offset = t.pos;
    t.pos += op.size;
    if (op.write) {
      r.kind = "write";
      const ByteSpan src(pattern_.data() + op.src, op.size);
      r.start_ns = NowNs();
      auto n = api().WriteFile(t.handle, src);
      r.end_ns = NowNs();
      std::string error = Check(n, op.size, nullptr, t, r.offset);
      if (!error.empty()) return Failed(t, r, error);
      std::memcpy(t.shadow.data() + r.offset, src.data(), op.size);
      return r;
    }
    r.kind = "read";
    const MutableByteSpan out(buf_.data(), op.size);
    r.start_ns = NowNs();
    auto n = api().ReadFile(t.handle, out);
    r.end_ns = NowNs();
    std::string error = Check(n, op.size, out.data(), t, r.offset);
    if (!error.empty()) return Failed(t, r, error);
    return r;
  }

  std::int64_t slice_ns(int) const override { return 20'000'000; }
  std::vector<std::size_t> op_sizes() const override {
    return {std::begin(kSizes), std::end(kSizes)};
  }

 private:
  static constexpr std::size_t kFileBytes = 64 * 1024;
  static constexpr std::size_t kPatternBytes = 256 * 1024;
  static constexpr std::size_t kStreamLen = 8192;
  static constexpr std::size_t kSizes[] = {8, 32, 128, 512, 2048};
  struct Op {
    bool write = false;
    std::uint32_t size = 0;
    std::uint32_t src = 0;
  };

  Buffer content_;
  Buffer pattern_;
  Buffer buf_;
  std::vector<Op> stream_;
};

// ---------------------------------------------------------------------------
// disk-bulk: Figure 6(b).  Null sentinel, cache=disk, 32 MiB data part;
// 50/50 reads and writes, half 64 KiB contiguous and half 8 x 8 KiB
// scatter/gather, sequential with wraparound.

class DiskBulk final : public HandleWorkload {
 public:
  explicit DiskBulk(std::uint64_t seed)
      : seed_(seed), pattern_(kPatternBytes), buf_(kOpBytes) {
    FillRandom(pattern_, seed ^ 0x6469736b);
    Rng rng(seed);
    stream_.resize(kStreamLen);
    for (std::size_t i = 0; i < kStreamLen; ++i) {
      stream_[i].write = i % 2 == 0;
      stream_[i].vec = i % 4 < 2;
      stream_[i].src = static_cast<std::uint32_t>(rng.Below(kPatternBytes - kOpBytes));
    }
    Shuffle(stream_, rng);
  }

  Status SetUp(const std::string& dir) override {
    AFS_ASSIGN_OR_RETURN(box_, Sandbox::Create(dir, false));
    for (int s = 0; s < kSeriesCount; ++s) {
      Target& t = targets_[s];
      t = Target{};
      t.shadow.resize(kFileBytes);
      FillRandom(t.shadow, seed_ ^ 0x626c6b);
      std::string path;
      if (s == kBaseline) {
        path = "db-baseline.bin";
        AFS_RETURN_IF_ERROR(api().WriteWholeFile(path, t.shadow));
      } else {
        path = "db-" + SeriesName(s) + ".af";
        AFS_RETURN_IF_ERROR(manager().CreateActiveFile(
            path, Spec("null", s, {{"cache", "disk"}}), t.shadow));
      }
      AFS_RETURN_IF_ERROR(OpenTarget(s, path));
    }
    return Warm(128);
  }

  void TearDown() override {
    CloseTargets();
    box_.reset();
  }

  OpRecord RunOp(int series, Tracer*, std::uint64_t, std::uint64_t) override {
    Target& t = targets_[series];
    Resync(t);
    if (t.pos + kOpBytes > kFileBytes) return Rewind(t);
    const Op& op = stream_[t.cursor % kStreamLen];
    ++t.cursor;
    OpRecord r;
    r.offset = t.pos;
    t.pos += kOpBytes;
    const std::uint8_t* src = pattern_.data() + op.src;
    Result<std::size_t> n = std::size_t{0};
    if (op.write) {
      r.kind = op.vec ? "write_gather" : "write";
      r.start_ns = NowNs();
      if (op.vec) {
        std::array<ByteSpan, kSegments> segs;
        for (std::size_t i = 0; i < kSegments; ++i) {
          segs[i] = ByteSpan(src + i * kSegBytes, kSegBytes);
        }
        n = api().WriteFileGather(t.handle, segs);
      } else {
        n = api().WriteFile(t.handle, ByteSpan(src, kOpBytes));
      }
      r.end_ns = NowNs();
      std::string error = Check(n, kOpBytes, nullptr, t, r.offset);
      if (!error.empty()) return Failed(t, r, error);
      std::memcpy(t.shadow.data() + r.offset, src, kOpBytes);
      return r;
    }
    r.kind = op.vec ? "read_scatter" : "read";
    r.start_ns = NowNs();
    if (op.vec) {
      // Segments land in reversed 8 KiB slots of buf_, so a scatter that
      // ignored segment boundaries would fail the check below.
      std::array<MutableByteSpan, kSegments> segs;
      for (std::size_t i = 0; i < kSegments; ++i) {
        segs[i] = MutableByteSpan(
            buf_.data() + (kSegments - 1 - i) * kSegBytes, kSegBytes);
      }
      n = api().ReadFileScatter(t.handle, segs);
    } else {
      n = api().ReadFile(t.handle, MutableByteSpan(buf_));
    }
    r.end_ns = NowNs();
    std::string error = Check(n, kOpBytes, nullptr, t, r.offset);
    if (error.empty()) {
      for (std::size_t i = 0; i < kSegments; ++i) {
        const std::size_t slot = op.vec ? kSegments - 1 - i : i;
        if (std::memcmp(buf_.data() + slot * kSegBytes,
                        t.shadow.data() + r.offset + i * kSegBytes,
                        kSegBytes) != 0) {
          error = "bytes differ from the shadow copy";
          break;
        }
      }
    }
    if (!error.empty()) return Failed(t, r, error);
    return r;
  }

  std::int64_t slice_ns(int) const override { return 40'000'000; }
  std::vector<std::size_t> op_sizes() const override { return {kOpBytes}; }

 private:
  static constexpr std::size_t kFileBytes = 32 * 1024 * 1024;
  static constexpr std::size_t kOpBytes = 64 * 1024;
  static constexpr std::size_t kSegments = 8;
  static constexpr std::size_t kSegBytes = kOpBytes / kSegments;
  static constexpr std::size_t kPatternBytes = 1024 * 1024;
  static constexpr std::size_t kStreamLen = 4096;
  struct Op {
    bool write = false;
    bool vec = false;
    std::uint32_t src = 0;
  };

  std::uint64_t seed_;
  Buffer pattern_;
  Buffer buf_;
  std::vector<Op> stream_;
};

// ---------------------------------------------------------------------------
// remote-zipf: Figure 6(a) plus the client block cache.  Remote sentinel
// over the socket server (25 µs service delay), cache=read with a budget
// of a quarter of the 4 MiB file, consistency=always so every crossing
// revalidates upstream; an op is a positioned 4 KiB read of a Zipf(0.99)
// block.  Baseline asks the file server for the same ranges itself.

class RemoteZipf final : public HandleWorkload {
 public:
  explicit RemoteZipf(std::uint64_t seed)
      : content_(kFileBytes), buf_(kBlockBytes) {
    FillRandom(content_, seed ^ 0x7a697066);
    Rng rng(seed);
    std::vector<double> cdf(kBlocks);
    double sum = 0;
    for (std::size_t k = 0; k < kBlocks; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), 0.99);
      cdf[k] = sum;
    }
    for (double& c : cdf) c /= sum;
    // Popularity ranks map to a seeded permutation of blocks, so hot
    // blocks are spread over the file.
    std::vector<std::uint32_t> block_of_rank(kBlocks);
    std::iota(block_of_rank.begin(), block_of_rank.end(), 0u);
    Shuffle(block_of_rank, rng);
    // Stratified draws (one uniform per 1/kStreamLen quantile), then
    // shuffled: every seed sees the same rank frequencies in another order.
    stream_.resize(kStreamLen);
    for (std::size_t i = 0; i < kStreamLen; ++i) {
      const double u = (static_cast<double>(i) + rng.Uniform()) / kStreamLen;
      const auto rank = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      stream_[i] = block_of_rank[std::min(rank, kBlocks - 1)];
    }
    Shuffle(stream_, rng);
  }

  Status SetUp(const std::string& dir) override {
    AFS_ASSIGN_OR_RETURN(box_, Sandbox::Create(dir, true));
    AFS_RETURN_IF_ERROR(box_->files().Put(kRemotePath, content_));
    for (int s = 0; s < kStrategyCount; ++s) {
      targets_[s] = Target{};
      const std::string path = "rz-" + SeriesName(s) + ".af";
      AFS_RETURN_IF_ERROR(manager().CreateActiveFile(
          path, Spec("remote", s,
                     {{"url", "sock:" + box_->socket_path()},
                      {"file", kRemotePath},
                      {"cache", "read"},
                      {"cache_bytes", std::to_string(kFileBytes / 4)},
                      {"consistency", "always"}})));
      AFS_RETURN_IF_ERROR(OpenTarget(s, path));
    }
    targets_[kBaseline] = Target{};
    const std::int64_t start = NowNs();
    client_ = std::make_unique<afs::net::SocketClient>(box_->socket_path());
    files_ = std::make_unique<afs::net::FileClient>(*client_);
    auto stat = files_->Stat(kRemotePath);
    open_us_[kBaseline].push_back(UsBetween(start, NowNs()));
    if (!stat.ok()) return stat.status();
    return Warm(128);
  }

  void TearDown() override {
    CloseTargets();
    const std::int64_t start = NowNs();
    files_.reset();
    client_.reset();
    close_us_[kBaseline].push_back(UsBetween(start, NowNs()));
    box_.reset();
  }

  OpRecord RunOp(int series, Tracer*, std::uint64_t, std::uint64_t) override {
    Target& t = targets_[series];
    const std::uint64_t offset =
        std::uint64_t{stream_[t.cursor % kStreamLen]} * kBlockBytes;
    ++t.cursor;
    OpRecord r;
    r.kind = "read";
    r.offset = offset;
    Result<std::size_t> n = std::size_t{0};
    const std::uint8_t* got = buf_.data();
    afs::Result<afs::net::FileClient::GetResult> range =
        afs::net::FileClient::GetResult{};
    r.start_ns = NowNs();
    if (series == kBaseline) {
      range = files_->GetRange(kRemotePath, offset, kBlockBytes);
      if (range.ok()) {
        n = range->data.size();
        got = range->data.data();
      } else {
        n = range.status();
      }
    } else {
      auto pos = api().SetFilePointer(t.handle, static_cast<std::int64_t>(offset),
                                      SeekOrigin::kBegin);
      n = pos.ok() ? api().ReadFile(t.handle, MutableByteSpan(buf_))
                   : Result<std::size_t>(pos.status());
    }
    r.end_ns = NowNs();
    std::string error;
    if (!n.ok()) {
      error = n.status().ToString();
    } else if (*n != kBlockBytes) {
      error = "short transfer: " + std::to_string(*n);
    } else if (std::memcmp(got, content_.data() + offset, kBlockBytes) != 0) {
      error = "bytes differ from the remote file";
    }
    if (!error.empty()) {
      r.ok = false;
      r.error = error;
    }
    return r;
  }

  std::int64_t slice_ns(int) const override { return 100'000'000; }
  std::vector<std::size_t> op_sizes() const override { return {kBlockBytes}; }

 private:
  static constexpr std::size_t kFileBytes = 4 * 1024 * 1024;
  static constexpr std::size_t kBlockBytes = 4096;
  static constexpr std::size_t kBlocks = kFileBytes / kBlockBytes;
  static constexpr std::size_t kStreamLen = 1 << 16;
  static constexpr const char* kRemotePath = "zipf/blob";

  Buffer content_;
  Buffer buf_;
  std::vector<std::uint32_t> stream_;
  std::unique_ptr<afs::net::SocketClient> client_;
  std::unique_ptr<afs::net::FileClient> files_;
};

// ---------------------------------------------------------------------------
// open-churn: paper Section 2.2.  One op is a session: OpenFile an existing
// null-sentinel bundle (cache=memory, default writeback), one 512 B read,
// one 512 B write, CloseHandle; sessions cycle over 16 files per series.

class OpenChurn final : public Workload {
 public:
  explicit OpenChurn(std::uint64_t seed)
      : seed_(seed), pattern_(kPatternBytes), buf_(kIoBytes) {
    FillRandom(pattern_, seed ^ 0x6f70656e);
    Rng rng(seed);
    stream_.resize(kStreamLen);
    for (Op& op : stream_) {
      op.offset = static_cast<std::uint32_t>(
          rng.Below(kFileBytes - 2 * kIoBytes));
      op.src = static_cast<std::uint32_t>(rng.Below(kPatternBytes - kIoBytes));
    }
  }

  Status SetUp(const std::string& dir) override {
    AFS_ASSIGN_OR_RETURN(box_, Sandbox::Create(dir, false));
    for (int s = 0; s < kSeriesCount; ++s) {
      cursor_[s] = 0;
      for (std::size_t i = 0; i < kFiles; ++i) {
        Buffer& shadow = shadows_[s][i];
        shadow.resize(kFileBytes);
        FillRandom(shadow, seed_ ^ (0x66696c65 + i));
        if (s == kBaseline) {
          AFS_RETURN_IF_ERROR(api().WriteWholeFile(Path(s, i), shadow));
        } else {
          AFS_RETURN_IF_ERROR(manager().CreateActiveFile(
              Path(s, i), Spec("null", s, {{"cache", "memory"}}), shadow));
        }
      }
    }
    for (std::size_t i = 0; i < kFiles; ++i) {
      for (int s = 0; s < kSeriesCount; ++s) {
        OpRecord r = RunOp(s, nullptr, 0, 0);
        if (!r.ok) {
          return afs::InternalError("warm-up " + SeriesName(s) + " session @" +
                                    std::to_string(r.offset) + ": " + r.error);
        }
      }
    }
    return Status::Ok();
  }

  void TearDown() override { box_.reset(); }

  OpRecord RunOp(int series, Tracer* tracer, std::uint64_t trace,
                 std::uint64_t op_span) override {
    const std::size_t file = cursor_[series] % kFiles;
    const Op& op = stream_[cursor_[series] % kStreamLen];
    ++cursor_[series];
    Buffer& shadow = shadows_[series][file];
    const ByteSpan src(pattern_.data() + op.src, kIoBytes);

    OpRecord r;
    r.kind = "session";
    r.offset = op.offset;
    r.start_ns = NowNs();
    auto handle = api().OpenFile(Path(series, file), OpenMode::kReadWrite);
    const std::int64_t opened = NowNs();
    if (!handle.ok()) {
      r.end_ns = opened;
      r.ok = false;
      r.error = "open: " + handle.status().ToString();
      return r;
    }
    auto pos = api().SetFilePointer(*handle, op.offset, SeekOrigin::kBegin);
    Result<std::size_t> n = pos.ok() ? api().ReadFile(*handle, MutableByteSpan(buf_))
                                     : Result<std::size_t>(pos.status());
    const std::int64_t read = NowNs();
    Result<std::size_t> w = n.ok() ? api().WriteFile(*handle, src)
                                   : Result<std::size_t>(n.status());
    const std::int64_t wrote = NowNs();
    Status closed = api().CloseHandle(*handle);
    r.end_ns = NowNs();

    if (tracer != nullptr) {
      tracer->Record(tracer->Name("open"), series, trace, op_span, r.start_ns,
                     opened);
      tracer->Record(tracer->Name("read"), series, trace, op_span, opened, read);
      tracer->Record(tracer->Name("write"), series, trace, op_span, read, wrote);
      tracer->Record(tracer->Name("close"), series, trace, op_span, wrote,
                     r.end_ns);
      open_us_[series].push_back(UsBetween(r.start_ns, opened));
      close_us_[series].push_back(UsBetween(wrote, r.end_ns));
    }

    std::string error;
    if (!n.ok()) {
      error = "read: " + n.status().ToString();
    } else if (*n != kIoBytes) {
      error = "read: short transfer " + std::to_string(*n);
    } else if (std::memcmp(buf_.data(), shadow.data() + op.offset, kIoBytes) != 0) {
      error = "read: bytes differ from the shadow copy";
    }
    if (w.ok() && *w == kIoBytes) {
      std::memcpy(shadow.data() + op.offset + kIoBytes, src.data(), kIoBytes);
    } else if (error.empty()) {
      error = "write: " + (w.ok() ? "short transfer " + std::to_string(*w)
                                  : w.status().ToString());
    }
    if (error.empty() && !closed.ok()) error = "close: " + closed.ToString();
    if (!error.empty()) {
      r.ok = false;
      r.error = error;
    }
    return r;
  }

  // A process_control session forks a sentinel and costs ~10x a thread
  // one; a longer slice gives it enough sessions for a steady p99.
  std::int64_t slice_ns(int series) const override {
    return series == 0 ? 400'000'000 : 100'000'000;
  }
  std::vector<std::size_t> op_sizes() const override { return {kIoBytes}; }

 private:
  static constexpr std::size_t kFiles = 16;
  static constexpr std::size_t kFileBytes = 64 * 1024;
  static constexpr std::size_t kIoBytes = 512;
  static constexpr std::size_t kPatternBytes = 64 * 1024;
  static constexpr std::size_t kStreamLen = 4096;
  struct Op {
    std::uint32_t offset = 0;
    std::uint32_t src = 0;
  };

  static std::string Path(int series, std::size_t file) {
    return "oc-" + SeriesName(series) + "-" + std::to_string(file) +
           (series == kBaseline ? ".bin" : ".af");
  }

  std::uint64_t seed_;
  Buffer pattern_;
  Buffer buf_;
  std::vector<Op> stream_;
  std::array<std::uint64_t, kSeriesCount> cursor_{};
  std::array<std::array<Buffer, kFiles>, kSeriesCount> shadows_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(std::string_view name,
                                       std::uint64_t seed) {
  if (name == "memory-small") return std::make_unique<MemorySmall>(seed);
  if (name == "disk-bulk") return std::make_unique<DiskBulk>(seed);
  if (name == "remote-zipf") return std::make_unique<RemoteZipf>(seed);
  if (name == "open-churn") return std::make_unique<OpenChurn>(seed);
  return nullptr;
}

}  // namespace perfbench
