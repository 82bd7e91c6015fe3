// VFS tests: path handling, passive host files, the FileApi surface, and
// the interception mechanism itself.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "test_util.hpp"
#include "vfs/file_api.hpp"
#include "vfs/paths.hpp"

namespace afs::vfs {
namespace {

using test::TempDir;

TEST(PathsTest, NormalizeCollapses) {
  EXPECT_EQ(*NormalizePath("a/./b//c"), "a/b/c");
  EXPECT_EQ(*NormalizePath("a/b/../c"), "a/c");
  EXPECT_EQ(*NormalizePath("./x"), "x");
  EXPECT_EQ(*NormalizePath(""), "");
}

TEST(PathsTest, EscapeAndAbsoluteRejected) {
  EXPECT_FALSE(NormalizePath("../up").ok());
  EXPECT_FALSE(NormalizePath("a/../../up").ok());
  EXPECT_FALSE(NormalizePath("/etc/passwd").ok());
}

TEST(PathsTest, Components) {
  EXPECT_EQ(PathBasename("a/b/c.af"), "c.af");
  EXPECT_EQ(PathBasename("plain"), "plain");
  EXPECT_EQ(PathDirname("a/b/c.af"), "a/b");
  EXPECT_EQ(PathDirname("plain"), "");
  EXPECT_EQ(PathExtension("a/b.af"), ".af");
  EXPECT_EQ(PathExtension("a.b/c"), "");
  EXPECT_EQ(PathExtension(".hidden"), "");
  EXPECT_EQ(JoinPath("a", "b"), "a/b");
  EXPECT_EQ(JoinPath("", "b"), "b");
  EXPECT_EQ(JoinPath("a/", "b"), "a/b");
}

TEST(PathsTest, ActiveFileDetection) {
  EXPECT_TRUE(IsActiveFilePath("notes.af"));
  EXPECT_TRUE(IsActiveFilePath("dir/notes.af"));
  EXPECT_FALSE(IsActiveFilePath("notes.txt"));
  EXPECT_FALSE(IsActiveFilePath("af"));
  EXPECT_FALSE(IsActiveFilePath("notes.af/inner"));
}

class FileApiTest : public ::testing::Test {
 protected:
  FileApiTest() : api_(tmp_.path() + "/root") {}
  TempDir tmp_;
  FileApi api_;
};

TEST_F(FileApiTest, CreateWriteReadClose) {
  OpenOptions options;
  options.mode = OpenMode::kReadWrite;
  options.disposition = Disposition::kCreateAlways;
  auto handle = api_.CreateFile("f.txt", options);
  ASSERT_OK(handle.status());
  ASSERT_OK(api_.WriteFile(*handle, AsBytes("content")).status());
  ASSERT_OK(api_.SetFilePointer(*handle, 0, SeekOrigin::kBegin).status());
  Buffer out(7);
  auto n = api_.ReadFile(*handle, MutableByteSpan(out));
  ASSERT_OK(n.status());
  EXPECT_EQ(ToString(ByteSpan(out)), "content");
  ASSERT_OK(api_.CloseHandle(*handle));
  EXPECT_EQ(api_.open_handle_count(), 0u);
}

TEST_F(FileApiTest, Dispositions) {
  ASSERT_OK(api_.WriteWholeFile("exists.txt", AsBytes("x")));

  OpenOptions options;
  options.disposition = Disposition::kCreateNew;
  EXPECT_EQ(api_.CreateFile("exists.txt", options).status().code(),
            ErrorCode::kAlreadyExists);

  options.disposition = Disposition::kOpenExisting;
  EXPECT_EQ(api_.CreateFile("absent.txt", options).status().code(),
            ErrorCode::kNotFound);

  options.disposition = Disposition::kTruncateExisting;
  options.mode = OpenMode::kWrite;
  auto handle = api_.CreateFile("exists.txt", options);
  ASSERT_OK(handle.status());
  ASSERT_OK(api_.CloseHandle(*handle));
  auto content = api_.ReadWholeFile("exists.txt");
  ASSERT_OK(content.status());
  EXPECT_TRUE(content->empty());
}

TEST_F(FileApiTest, AppendMode) {
  ASSERT_OK(api_.WriteWholeFile("log.txt", AsBytes("one\n")));
  OpenOptions options;
  options.mode = OpenMode::kWrite;
  options.disposition = Disposition::kOpenAlways;
  options.append = true;
  auto handle = api_.CreateFile("log.txt", options);
  ASSERT_OK(handle.status());
  ASSERT_OK(api_.WriteFile(*handle, AsBytes("two\n")).status());
  ASSERT_OK(api_.CloseHandle(*handle));
  auto content = api_.ReadWholeFile("log.txt");
  ASSERT_OK(content.status());
  EXPECT_EQ(ToString(ByteSpan(*content)), "one\ntwo\n");
}

TEST_F(FileApiTest, GetFileSizeAndSetEndOfFile) {
  ASSERT_OK(api_.WriteWholeFile("f.txt", AsBytes("0123456789")));
  auto handle = api_.OpenFile("f.txt", OpenMode::kReadWrite);
  ASSERT_OK(handle.status());
  EXPECT_EQ(*api_.GetFileSize(*handle), 10u);
  ASSERT_OK(api_.SetFilePointer(*handle, 3, SeekOrigin::kBegin).status());
  ASSERT_OK(api_.SetEndOfFile(*handle));
  EXPECT_EQ(*api_.GetFileSize(*handle), 3u);
  ASSERT_OK(api_.CloseHandle(*handle));
}

TEST_F(FileApiTest, ReadFileScatterOnPassiveFile) {
  ASSERT_OK(api_.WriteWholeFile("f.txt", AsBytes("abcdefgh")));
  auto handle = api_.OpenFile("f.txt", OpenMode::kRead);
  ASSERT_OK(handle.status());
  Buffer a(3);
  Buffer b(5);
  std::vector<MutableByteSpan> segments{MutableByteSpan(a),
                                        MutableByteSpan(b)};
  auto n = api_.ReadFileScatter(*handle, segments);
  ASSERT_OK(n.status());
  EXPECT_EQ(*n, 8u);
  EXPECT_EQ(ToString(ByteSpan(a)), "abc");
  EXPECT_EQ(ToString(ByteSpan(b)), "defgh");
  ASSERT_OK(api_.CloseHandle(*handle));
}

TEST_F(FileApiTest, BadHandleRejected) {
  Buffer out(1);
  EXPECT_EQ(api_.ReadFile(9999, MutableByteSpan(out)).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(api_.CloseHandle(9999).code(), ErrorCode::kInvalidArgument);
}

TEST_F(FileApiTest, DirectoryOperations) {
  ASSERT_OK(api_.CreateDirectory("sub"));
  ASSERT_OK(api_.WriteWholeFile("sub/a.txt", AsBytes("A")));
  ASSERT_OK(api_.CopyFile("sub/a.txt", "sub/b.txt"));
  auto names = api_.ListDirectory("sub");
  ASSERT_OK(names.status());
  EXPECT_EQ(*names, (std::vector<std::string>{"a.txt", "b.txt"}));

  ASSERT_OK(api_.MoveFile("sub/b.txt", "sub/c.txt"));
  EXPECT_EQ(*api_.FileExists("sub/b.txt"), false);
  EXPECT_EQ(*api_.FileExists("sub/c.txt"), true);

  ASSERT_OK(api_.DeleteFile("sub/c.txt"));
  EXPECT_EQ(api_.DeleteFile("sub/c.txt").code(), ErrorCode::kNotFound);
  EXPECT_EQ(api_.CopyFile("missing", "x").code(), ErrorCode::kNotFound);
}

TEST_F(FileApiTest, SandboxEscapeRejected) {
  EXPECT_FALSE(api_.ReadWholeFile("../outside").ok());
  EXPECT_FALSE(api_.WriteWholeFile("/abs/path", AsBytes("x")).ok());
}

TEST_F(FileApiTest, LockFileRange) {
  ASSERT_OK(api_.WriteWholeFile("locked.txt", AsBytes("0123456789")));
  auto handle = api_.OpenFile("locked.txt", OpenMode::kReadWrite);
  ASSERT_OK(handle.status());
  ASSERT_OK(api_.LockFileRange(*handle, 0, 5));
  ASSERT_OK(api_.UnlockFileRange(*handle, 0, 5));
  ASSERT_OK(api_.CloseHandle(*handle));
}

TEST_F(FileApiTest, RangeLocksExcludeHandlesWithinOneProcess) {
  ASSERT_OK(api_.WriteWholeFile("shared.txt", AsBytes("0123456789")));
  auto a = api_.OpenFile("shared.txt", OpenMode::kReadWrite);
  auto b = api_.OpenFile("shared.txt", OpenMode::kReadWrite);
  ASSERT_OK(a.status());
  ASSERT_OK(b.status());
  ASSERT_OK(api_.LockFileRange(*a, 0, 5));

  // The lock belongs to handle A, not to the process: B waits for it.
  std::atomic<bool> b_locked{false};
  std::thread contender([&] {
    EXPECT_OK(api_.LockFileRange(*b, 0, 5));
    b_locked = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(b_locked.load());

  ASSERT_OK(api_.UnlockFileRange(*a, 0, 5));
  contender.join();
  EXPECT_TRUE(b_locked.load());
  ASSERT_OK(api_.UnlockFileRange(*b, 0, 5));
  ASSERT_OK(api_.CloseHandle(*a));
  ASSERT_OK(api_.CloseHandle(*b));
}

// ---- the interception mechanism ---------------------------------------

// An interceptor that claims a magic filename and serves synthesized
// content; everything else falls through.
class MagicInterceptor final : public OpenInterceptor {
 public:
  class MagicHandle final : public FileHandle {
   public:
    Result<std::size_t> Read(MutableByteSpan out) override {
      const std::string content = "intercepted!";
      if (pos_ >= content.size()) return std::size_t{0};
      const std::size_t n = std::min(out.size(), content.size() - pos_);
      std::memcpy(out.data(), content.data() + pos_, n);
      pos_ += n;
      return n;
    }
    Result<std::size_t> Write(ByteSpan data) override { return data.size(); }
    Result<std::uint64_t> Seek(std::int64_t, SeekOrigin) override {
      return std::uint64_t{0};
    }
    Result<std::uint64_t> Size() override { return std::uint64_t{12}; }
    Status Close() override { return Status::Ok(); }

   private:
    std::size_t pos_ = 0;
  };

  Result<std::unique_ptr<FileHandle>> TryOpen(FileApi&,
                                              const std::string& path,
                                              const OpenOptions&) override {
    ++offers;
    if (path != "magic.txt") return std::unique_ptr<FileHandle>();
    return std::unique_ptr<FileHandle>(std::make_unique<MagicHandle>());
  }

  int offers = 0;
};

TEST_F(FileApiTest, InterceptorClaimsItsPath) {
  MagicInterceptor interceptor;
  api_.InstallInterceptor(&interceptor);
  auto content = api_.ReadWholeFile("magic.txt");  // no such host file!
  ASSERT_OK(content.status());
  EXPECT_EQ(ToString(ByteSpan(*content)), "intercepted!");
  api_.RemoveInterceptor(&interceptor);
  EXPECT_EQ(api_.interceptor_count(), 0u);
}

TEST_F(FileApiTest, UnclaimedPathsFallThrough) {
  MagicInterceptor interceptor;
  api_.InstallInterceptor(&interceptor);
  ASSERT_OK(api_.WriteWholeFile("plain.txt", AsBytes("passive")));
  auto content = api_.ReadWholeFile("plain.txt");
  ASSERT_OK(content.status());
  EXPECT_EQ(ToString(ByteSpan(*content)), "passive");
  EXPECT_GT(interceptor.offers, 0);  // it was consulted, it declined
  api_.RemoveInterceptor(&interceptor);
}

TEST_F(FileApiTest, AfterRemovalNoInterception) {
  MagicInterceptor interceptor;
  api_.InstallInterceptor(&interceptor);
  api_.RemoveInterceptor(&interceptor);
  EXPECT_EQ(api_.ReadWholeFile("magic.txt").status().code(),
            ErrorCode::kNotFound);  // falls to the host: no such file
}

TEST_F(FileApiTest, NewestInterceptorWins) {
  // Two interceptors claiming the same path: the most recently installed
  // is consulted first — IAT-patch ordering.
  class FixedInterceptor final : public OpenInterceptor {
   public:
    explicit FixedInterceptor(std::string reply) : reply_(std::move(reply)) {}
    class Handle final : public FileHandle {
     public:
      explicit Handle(std::string reply) : reply_(std::move(reply)) {}
      Result<std::size_t> Read(MutableByteSpan out) override {
        if (pos_ >= reply_.size()) return std::size_t{0};
        const std::size_t n = std::min(out.size(), reply_.size() - pos_);
        std::memcpy(out.data(), reply_.data() + pos_, n);
        pos_ += n;
        return n;
      }
      Result<std::size_t> Write(ByteSpan d) override { return d.size(); }
      Result<std::uint64_t> Seek(std::int64_t, SeekOrigin) override {
        return std::uint64_t{0};
      }
      Result<std::uint64_t> Size() override { return reply_.size(); }
      Status Close() override { return Status::Ok(); }

     private:
      std::string reply_;
      std::size_t pos_ = 0;
    };
    Result<std::unique_ptr<FileHandle>> TryOpen(
        FileApi&, const std::string& path, const OpenOptions&) override {
      if (path != "magic.txt") return std::unique_ptr<FileHandle>();
      return std::unique_ptr<FileHandle>(std::make_unique<Handle>(reply_));
    }

   private:
    std::string reply_;
  };

  FixedInterceptor older("old");
  FixedInterceptor newer("new");
  api_.InstallInterceptor(&older);
  api_.InstallInterceptor(&newer);
  auto content = api_.ReadWholeFile("magic.txt");
  ASSERT_OK(content.status());
  EXPECT_EQ(ToString(ByteSpan(*content)), "new");
  api_.RemoveInterceptor(&older);
  api_.RemoveInterceptor(&newer);
}

}  // namespace
}  // namespace afs::vfs
