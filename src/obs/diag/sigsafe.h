// Async-signal-safe building blocks for the crash-dump path. Everything
// declared here is callable from a fatal-signal handler: no allocation,
// no locks, no stdio, no C++ exceptions — only raw syscalls
// (write/open/read/close/clock_gettime) and stack buffers.

#ifndef DD_OBS_DIAG_SIGSAFE_H_
#define DD_OBS_DIAG_SIGSAFE_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace dd::obs::diag {

// Byte sink for dump composition. Implementations must not allocate
// when used from a signal handler (FdSink qualifies; StringSink is for
// tests only).
class DumpSink {
 public:
  virtual ~DumpSink() = default;
  virtual void Append(const char* data, std::size_t len) = 0;
};

// Writes straight to a file descriptor, retrying on EINTR and short
// writes. Async-signal-safe.
class FdSink : public DumpSink {
 public:
  explicit FdSink(int fd) : fd_(fd) {}
  void Append(const char* data, std::size_t len) override;

 private:
  int fd_;
};

// Accumulates into a std::string (tests). NOT for handlers.
class StringSink : public DumpSink {
 public:
  explicit StringSink(std::string* out) : out_(out) {}
  void Append(const char* data, std::size_t len) override {
    out_->append(data, len);
  }

 private:
  std::string* out_;
};

// Formatting helpers: all write through the sink with stack buffers
// only, so they are as signal-safe as the sink they are given.
void SinkStr(DumpSink& sink, const char* s);
void SinkChar(DumpSink& sink, char c);
void SinkDec(DumpSink& sink, std::uint64_t value);
void SinkHex(DumpSink& sink, std::uint64_t value);  // "0x" prefixed

// Streams the contents of `path` (a /proc file in practice) into the
// sink with a stack buffer. Returns false when the file cannot be
// opened. Async-signal-safe.
bool SinkFile(DumpSink& sink, const char* path);

// Formats an unsigned decimal into `buf` (capacity >= 21); returns the
// number of characters written, no terminator appended beyond them.
std::size_t FormatDec(char* buf, std::uint64_t value);

// Current CLOCK_MONOTONIC time in nanoseconds via clock_gettime (which
// is async-signal-safe, unlike std::chrono on some libstdc++ paths).
std::uint64_t SigsafeNowNs();

// Resident set size in kilobytes, read from /proc/self/statm with raw
// syscalls. Returns 0 when unavailable. Async-signal-safe.
std::uint64_t SigsafeRssKb();

// The kernel thread id of the calling thread (gettid syscall).
int SigsafeTid();

}  // namespace dd::obs::diag

#endif  // DD_OBS_DIAG_SIGSAFE_H_
