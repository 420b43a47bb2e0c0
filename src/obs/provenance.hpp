#pragma once
// Build/run provenance stamped into benchmark results (perfbench's JSON)
// so runs are comparable: a regression is only a regression if the
// compiler, build type, machine, and kernel dispatch path match.

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
  std::string simd;         // resolved SIMD dispatch path (set_simd_path)

  /// Gather all fields for the running process.
  static Provenance collect();

  /// JSON object. The opening brace lands where the stream already is (so
  /// the object can follow a key); continuation lines get `indent` spaces.
  void write_json(std::ostream& os, int indent = 0) const;
};

/// Record the kernel dispatch path chosen at startup (e.g. "avx2"). Called
/// by the linalg SIMD dispatcher; obs stays dependency-free, so the value
/// is pushed in rather than queried. Until something calls this, collect()
/// reports "unresolved" (meaning: no SIMD-dispatched kernel ran yet).
void set_simd_path(const char* name);

}  // namespace rcs::obs
