// Own-thread stack capture for the fatal-signal handler and the
// sampling profiler. Addresses are raw; symbolization happens offline
// in `ddtool diag` (dump_reader) against the module map embedded in
// the same dump.

#ifndef DD_OBS_DIAG_STACK_CAPTURE_H_
#define DD_OBS_DIAG_STACK_CAPTURE_H_

#include <cstddef>

namespace dd::obs::diag {

inline constexpr std::size_t kMaxStackFrames = 64;

// Warms up backtrace(): libgcc lazily loads its unwinder on first use,
// which is not signal-safe, so we force that load now. Idempotent;
// called from EnableDiagnostics and Profiler::Start.
void InitStackCapture();

// Fills `frames` with up to `max` raw return addresses of the calling
// thread via backtrace(). Async-signal-safe once InitStackCapture has
// run. Returns the frame count.
std::size_t CaptureOwnStack(void** frames, std::size_t max);

}  // namespace dd::obs::diag

#endif  // DD_OBS_DIAG_STACK_CAPTURE_H_
