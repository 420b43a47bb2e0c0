#pragma once
// Build/run provenance stamped into benchmark results (perfbench's JSON)
// so runs are comparable: a regression is only a regression if the
// compiler, build type, machine, and hot-kernel vector ISA match.

#include <iosfwd>
#include <string>

namespace rcs::obs {

struct Provenance {
  std::string git_sha;      // build-time git rev (regenerated every build)
  bool git_dirty = false;   // working tree had uncommitted changes at build
  std::string compiler;     // "gcc 13.2.0" / "clang 17.0.1 ..."
  std::string build_type;   // CMAKE_BUILD_TYPE of this binary
  std::string hostname;     // gethostname()
  unsigned hw_cores = 0;    // std::thread::hardware_concurrency (0 = unknown)
  std::string rcs_threads;  // $RCS_THREADS as seen at collect() ("" = unset)
  std::string simd;         // hot-kernel vector ISA (kernel_isa())

  /// Gather all fields for the running process.
  static Provenance collect();

  /// JSON object. The opening brace lands where the stream already is (so
  /// the object can follow a key); continuation lines get `indent` spaces.
  void write_json(std::ostream& os, int indent = 0) const;
};

/// The vector ISA the hot kernels were compiled for: "avx512", "avx2" or
/// "baseline" (the predefined __AVX512F__ / __AVX2__ macros). provenance.cpp
/// builds under the hot-kernel policy of src/CMakeLists.txt, so it sees the
/// macros every hot kernel sees. No result depends on the answer, only speed.
const char* kernel_isa();

}  // namespace rcs::obs
