/* Syscall counting shim for traced benchmark runs (LD_PRELOAD).
 *
 * Interposes the libc entry points below and bumps one counter per call on
 * an anonymous MAP_SHARED page created by the library constructor, i.e.
 * before main() and therefore before any fork: forked sentinel children
 * inherit the mapping and add to the same counts.  afsbench finds the page
 * through afs_syscount_page() (dlsym) and reads deltas around each slice.
 *
 * Counted: the calls named in kNames.  `syscall` is counted under its
 * first argument when that is SYS_futex (the shm ring's eventcount calls
 * it directly), otherwise as "syscall".  Not counted: calls glibc makes
 * internally without going through the exported symbol -- notably the
 * futex waits inside pthread mutexes and condition variables, and the
 * read/write behind stdio -- and vDSO calls (clock_gettime).
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <poll.h>
#include <stdarg.h>
#include <stdint.h>
#include <sys/epoll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <sys/wait.h>
#include <unistd.h>

enum {
  kRead, kWrite, kReadv, kWritev, kPread, kPwrite, kPoll, kPpoll,
  kEpollWait, kEpollPwait, kEpollCtl, kFcntl, kOpen, kOpenat, kClose,
  kLseek, kFsync, kFdatasync, kFtruncate, kMmap, kMunmap, kPipe, kPipe2,
  kSocket, kConnect, kAccept4, kSendmsg, kRecvmsg, kSend, kRecv, kFork,
  kWaitpid, kKill, kNanosleep, kSchedYield, kFutex, kSyscall, kCount
};

/* Order matches the enum; read by afsbench through afs_syscount_names(). */
static const char* const kNames[kCount] = {
  "read", "write", "readv", "writev", "pread", "pwrite", "poll", "ppoll",
  "epoll_wait", "epoll_pwait", "epoll_ctl", "fcntl", "open", "openat",
  "close", "lseek", "fsync", "fdatasync", "ftruncate", "mmap", "munmap",
  "pipe", "pipe2", "socket", "connect", "accept4", "sendmsg", "recvmsg",
  "send", "recv", "fork", "waitpid", "kill", "nanosleep", "sched_yield",
  "futex", "syscall"
};

static uint64_t* g_page;

__attribute__((constructor)) static void SyscountInit(void) {
  void* p = mmap(NULL, 4096, PROT_READ | PROT_WRITE,
                 MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (p != MAP_FAILED) g_page = (uint64_t*)p;
}

const uint64_t* afs_syscount_page(void) { return g_page; }
int afs_syscount_size(void) { return kCount; }
const char* const* afs_syscount_names(void) { return kNames; }

static inline void Bump(int which) {
  if (g_page != NULL) __atomic_fetch_add(&g_page[which], 1, __ATOMIC_RELAXED);
}

#define REAL(name) \
  static __typeof__(name)* real_##name; \
  if (real_##name == NULL) real_##name = (__typeof__(name)*)dlsym(RTLD_NEXT, #name)

ssize_t read(int fd, void* buf, size_t n) {
  REAL(read);
  Bump(kRead);
  return real_read(fd, buf, n);
}
ssize_t write(int fd, const void* buf, size_t n) {
  REAL(write);
  Bump(kWrite);
  return real_write(fd, buf, n);
}
ssize_t readv(int fd, const struct iovec* iov, int cnt) {
  REAL(readv);
  Bump(kReadv);
  return real_readv(fd, iov, cnt);
}
ssize_t writev(int fd, const struct iovec* iov, int cnt) {
  REAL(writev);
  Bump(kWritev);
  return real_writev(fd, iov, cnt);
}
ssize_t pread64(int fd, void* buf, size_t n, off_t off) {
  REAL(pread64);
  Bump(kPread);
  return real_pread64(fd, buf, n, off);
}
ssize_t pwrite64(int fd, const void* buf, size_t n, off_t off) {
  REAL(pwrite64);
  Bump(kPwrite);
  return real_pwrite64(fd, buf, n, off);
}
ssize_t pread(int fd, void* buf, size_t n, off_t off) {
  REAL(pread);
  Bump(kPread);
  return real_pread(fd, buf, n, off);
}
ssize_t pwrite(int fd, const void* buf, size_t n, off_t off) {
  REAL(pwrite);
  Bump(kPwrite);
  return real_pwrite(fd, buf, n, off);
}
int poll(struct pollfd* fds, nfds_t n, int timeout) {
  REAL(poll);
  Bump(kPoll);
  return real_poll(fds, n, timeout);
}
int ppoll(struct pollfd* fds, nfds_t n, const struct timespec* ts,
          const sigset_t* mask) {
  REAL(ppoll);
  Bump(kPpoll);
  return real_ppoll(fds, n, ts, mask);
}
int epoll_wait(int epfd, struct epoll_event* ev, int max, int timeout) {
  REAL(epoll_wait);
  Bump(kEpollWait);
  return real_epoll_wait(epfd, ev, max, timeout);
}
int epoll_pwait(int epfd, struct epoll_event* ev, int max, int timeout,
                const sigset_t* mask) {
  REAL(epoll_pwait);
  Bump(kEpollPwait);
  return real_epoll_pwait(epfd, ev, max, timeout, mask);
}
int epoll_ctl(int epfd, int op, int fd, struct epoll_event* ev) {
  REAL(epoll_ctl);
  Bump(kEpollCtl);
  return real_epoll_ctl(epfd, op, fd, ev);
}
/* fcntl's third argument is an int or a pointer; both fit in a long on
 * the LP64 ABIs this shim targets. */
int fcntl(int fd, int cmd, ...) {
  REAL(fcntl);
  va_list ap;
  va_start(ap, cmd);
  long arg = va_arg(ap, long);
  va_end(ap);
  Bump(kFcntl);
  return real_fcntl(fd, cmd, arg);
}
int fcntl64(int fd, int cmd, ...) {
  REAL(fcntl64);
  va_list ap;
  va_start(ap, cmd);
  long arg = va_arg(ap, long);
  va_end(ap);
  Bump(kFcntl);
  return real_fcntl64(fd, cmd, arg);
}
int open(const char* path, int flags, ...) {
  REAL(open);
  va_list ap;
  va_start(ap, flags);
  mode_t mode = (mode_t)va_arg(ap, int);
  va_end(ap);
  Bump(kOpen);
  return real_open(path, flags, mode);
}
int open64(const char* path, int flags, ...) {
  REAL(open64);
  va_list ap;
  va_start(ap, flags);
  mode_t mode = (mode_t)va_arg(ap, int);
  va_end(ap);
  Bump(kOpen);
  return real_open64(path, flags, mode);
}
int openat(int dirfd, const char* path, int flags, ...) {
  REAL(openat);
  va_list ap;
  va_start(ap, flags);
  mode_t mode = (mode_t)va_arg(ap, int);
  va_end(ap);
  Bump(kOpenat);
  return real_openat(dirfd, path, flags, mode);
}
int close(int fd) {
  REAL(close);
  Bump(kClose);
  return real_close(fd);
}
off_t lseek(int fd, off_t off, int whence) {
  REAL(lseek);
  Bump(kLseek);
  return real_lseek(fd, off, whence);
}
off_t lseek64(int fd, off_t off, int whence) {
  REAL(lseek64);
  Bump(kLseek);
  return real_lseek64(fd, off, whence);
}
int fsync(int fd) {
  REAL(fsync);
  Bump(kFsync);
  return real_fsync(fd);
}
int fdatasync(int fd) {
  REAL(fdatasync);
  Bump(kFdatasync);
  return real_fdatasync(fd);
}
int ftruncate(int fd, off_t len) {
  REAL(ftruncate);
  Bump(kFtruncate);
  return real_ftruncate(fd, len);
}
int ftruncate64(int fd, off_t len) {
  REAL(ftruncate64);
  Bump(kFtruncate);
  return real_ftruncate64(fd, len);
}
void* mmap(void* addr, size_t len, int prot, int flags, int fd, off_t off) {
  REAL(mmap);
  Bump(kMmap);
  return real_mmap(addr, len, prot, flags, fd, off);
}
void* mmap64(void* addr, size_t len, int prot, int flags, int fd, off_t off) {
  REAL(mmap64);
  Bump(kMmap);
  return real_mmap64(addr, len, prot, flags, fd, off);
}
int munmap(void* addr, size_t len) {
  REAL(munmap);
  Bump(kMunmap);
  return real_munmap(addr, len);
}
int pipe(int fds[2]) {
  REAL(pipe);
  Bump(kPipe);
  return real_pipe(fds);
}
int pipe2(int fds[2], int flags) {
  REAL(pipe2);
  Bump(kPipe2);
  return real_pipe2(fds, flags);
}
int socket(int domain, int type, int proto) {
  REAL(socket);
  Bump(kSocket);
  return real_socket(domain, type, proto);
}
int connect(int fd, const struct sockaddr* addr, socklen_t len) {
  REAL(connect);
  Bump(kConnect);
  return real_connect(fd, addr, len);
}
int accept4(int fd, struct sockaddr* addr, socklen_t* len, int flags) {
  REAL(accept4);
  Bump(kAccept4);
  return real_accept4(fd, addr, len, flags);
}
ssize_t sendmsg(int fd, const struct msghdr* msg, int flags) {
  REAL(sendmsg);
  Bump(kSendmsg);
  return real_sendmsg(fd, msg, flags);
}
ssize_t recvmsg(int fd, struct msghdr* msg, int flags) {
  REAL(recvmsg);
  Bump(kRecvmsg);
  return real_recvmsg(fd, msg, flags);
}
ssize_t send(int fd, const void* buf, size_t n, int flags) {
  REAL(send);
  Bump(kSend);
  return real_send(fd, buf, n, flags);
}
ssize_t recv(int fd, void* buf, size_t n, int flags) {
  REAL(recv);
  Bump(kRecv);
  return real_recv(fd, buf, n, flags);
}
pid_t fork(void) {
  REAL(fork);
  Bump(kFork);
  return real_fork();
}
pid_t waitpid(pid_t pid, int* status, int options) {
  REAL(waitpid);
  Bump(kWaitpid);
  return real_waitpid(pid, status, options);
}
int kill(pid_t pid, int sig) {
  REAL(kill);
  Bump(kKill);
  return real_kill(pid, sig);
}
int nanosleep(const struct timespec* req, struct timespec* rem) {
  REAL(nanosleep);
  Bump(kNanosleep);
  return real_nanosleep(req, rem);
}
int sched_yield(void) {
  REAL(sched_yield);
  Bump(kSchedYield);
  return real_sched_yield();
}
long syscall(long number, ...) {
  REAL(syscall);
  va_list ap;
  va_start(ap, number);
  long a1 = va_arg(ap, long);
  long a2 = va_arg(ap, long);
  long a3 = va_arg(ap, long);
  long a4 = va_arg(ap, long);
  long a5 = va_arg(ap, long);
  long a6 = va_arg(ap, long);
  va_end(ap);
  Bump(number == SYS_futex ? kFutex : kSyscall);
  return real_syscall(number, a1, a2, a3, a4, a5, a6);
}
