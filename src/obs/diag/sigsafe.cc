#include "obs/diag/sigsafe.h"

#include <fcntl.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>

namespace dd::obs::diag {

namespace {

// Resolved at load time so the signal handler never calls sysconf()
// (not on the async-signal-safe list).
const long g_page_size = ::sysconf(_SC_PAGESIZE);

}  // namespace

void FdSink::Append(const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd_, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // Best effort: a full disk must not wedge the handler.
    }
    off += static_cast<std::size_t>(n);
  }
}

void SinkStr(DumpSink& sink, const char* s) {
  std::size_t len = 0;
  while (s[len] != '\0') ++len;
  sink.Append(s, len);
}

void SinkChar(DumpSink& sink, char c) { sink.Append(&c, 1); }

std::size_t FormatDec(char* buf, std::uint64_t value) {
  char tmp[20];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  for (std::size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  return n;
}

void SinkDec(DumpSink& sink, std::uint64_t value) {
  char buf[21];
  sink.Append(buf, FormatDec(buf, value));
}

void SinkHex(DumpSink& sink, std::uint64_t value) {
  char buf[18];
  buf[0] = '0';
  buf[1] = 'x';
  std::size_t n = 2;
  int shift = 60;
  // Skip leading zero nibbles but always emit at least one digit.
  while (shift > 0 && ((value >> shift) & 0xf) == 0) shift -= 4;
  for (; shift >= 0; shift -= 4) {
    const unsigned nibble = (value >> shift) & 0xf;
    buf[n++] = static_cast<char>(nibble < 10 ? '0' + nibble
                                             : 'a' + (nibble - 10));
  }
  sink.Append(buf, n);
}

bool SinkFile(DumpSink& sink, const char* path) {
  int fd;
  do {
    fd = ::open(path, O_RDONLY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return false;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;
    sink.Append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return true;
}

std::uint64_t SigsafeNowNs() {
  timespec ts{};
  if (clock_gettime(CLOCK_MONOTONIC, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t SigsafeRssKb() {
  int fd;
  do {
    fd = ::open("/proc/self/statm", O_RDONLY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return 0;
  char buf[128];
  ssize_t n;
  do {
    n = ::read(fd, buf, sizeof(buf) - 1);
  } while (n < 0 && errno == EINTR);
  ::close(fd);
  if (n <= 0) return 0;
  buf[n] = '\0';
  // statm: "<size> <resident> ..." in pages.
  std::size_t i = 0;
  while (i < static_cast<std::size_t>(n) && buf[i] != ' ') ++i;
  while (i < static_cast<std::size_t>(n) && buf[i] == ' ') ++i;
  std::uint64_t pages = 0;
  while (i < static_cast<std::size_t>(n) && buf[i] >= '0' && buf[i] <= '9') {
    pages = pages * 10 + static_cast<std::uint64_t>(buf[i] - '0');
    ++i;
  }
  return pages *
         static_cast<std::uint64_t>(g_page_size > 0 ? g_page_size : 4096) /
         1024;
}

int SigsafeTid() {
  return static_cast<int>(::syscall(SYS_gettid));
}

}  // namespace dd::obs::diag
