// Compile-time provenance of the running binary: git revision,
// compiler, flags, build type. Captured at CMake configure time
// (build_info.cc.in -> build_info.cc), surfaced through
// `ddtool --version` and stamped on every perfbench run, so a result
// always says exactly what was running.

#ifndef DD_COMMON_BUILD_INFO_H_
#define DD_COMMON_BUILD_INFO_H_

#include <string>

namespace dd {

struct BuildInfo {
  const char* version;     // project version (CMake PROJECT_VERSION)
  const char* git_hash;    // full revision, "+dirty" suffix, or "unknown"
  const char* build_type;  // Release / Debug / RelWithDebInfo / ...
  const char* compiler;    // "GNU 13.2.0" style id + version
  const char* flags;       // CMAKE_CXX_FLAGS plus the build-type flags
};

// Static data baked into the binary; always valid.
const BuildInfo& GetBuildInfo();

// Multi-line human rendering (the `ddtool --version` output body).
std::string BuildInfoSummary();

}  // namespace dd

#endif  // DD_COMMON_BUILD_INFO_H_
