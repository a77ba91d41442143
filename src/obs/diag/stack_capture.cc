#include "obs/diag/stack_capture.h"

#include <execinfo.h>

#include <atomic>

namespace dd::obs::diag {

std::size_t CaptureOwnStack(void** frames, std::size_t max) {
  const int n = ::backtrace(frames, static_cast<int>(max));
  return n > 0 ? static_cast<std::size_t>(n) : 0;
}

void InitStackCapture() {
  static std::atomic<bool> initialized{false};
  if (initialized.exchange(true)) return;
  // Force libgcc's unwinder to load now; the first backtrace() call
  // dlopens it, which must not happen inside a signal handler.
  void* warmup[4];
  ::backtrace(warmup, 4);
}

}  // namespace dd::obs::diag
