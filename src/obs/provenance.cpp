#include "obs/provenance.hpp"

#include <cstdlib>
#include <ostream>
#include <thread>

#include "obs/trace.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

// Git identity comes from a header regenerated on every build (not at
// configure time), so the stamp tracks HEAD and records whether the tree
// was dirty — a benchmark artifact claiming a SHA it wasn't built from is
// worse than no stamp at all.
#if __has_include("rcs_gitstamp.h")
#include "rcs_gitstamp.h"
#endif
#ifndef RCS_GIT_SHA
#define RCS_GIT_SHA "unknown"
#endif
#ifndef RCS_GIT_DIRTY
#define RCS_GIT_DIRTY 0
#endif
#ifndef RCS_BUILD_TYPE
#define RCS_BUILD_TYPE "unknown"
#endif

namespace rcs::obs {

const char* kernel_isa() {
#if defined(__AVX512F__)
  return "avx512";
#elif defined(__AVX2__)
  return "avx2";
#else
  return "baseline";
#endif
}

Provenance Provenance::collect() {
  Provenance p;
  p.git_sha = RCS_GIT_SHA;
  p.git_dirty = RCS_GIT_DIRTY != 0;
  p.build_type = RCS_BUILD_TYPE;
#if defined(__clang__)
  p.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  p.compiler = std::string("gcc ") + __VERSION__;
#else
  p.compiler = "unknown";
#endif
#if defined(__unix__) || defined(__APPLE__)
  char host[256] = {0};
  if (gethostname(host, sizeof(host) - 1) == 0 && host[0] != '\0') {
    p.hostname = host;
  } else {
    p.hostname = "unknown";
  }
#else
  p.hostname = "unknown";
#endif
  p.hw_cores = std::thread::hardware_concurrency();
  const char* threads = std::getenv("RCS_THREADS");
  p.rcs_threads = threads != nullptr ? threads : "";
  p.simd = kernel_isa();
  return p;
}

void Provenance::write_json(std::ostream& os, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  os << "{\n"
     << pad << "  \"git_sha\": \"" << json_escape(git_sha) << "\",\n"
     << pad << "  \"git_dirty\": " << (git_dirty ? "true" : "false") << ",\n"
     << pad << "  \"compiler\": \"" << json_escape(compiler) << "\",\n"
     << pad << "  \"build_type\": \"" << json_escape(build_type) << "\",\n"
     << pad << "  \"hostname\": \"" << json_escape(hostname) << "\",\n"
     << pad << "  \"hw_cores\": " << hw_cores << ",\n"
     << pad << "  \"rcs_threads\": \"" << json_escape(rcs_threads) << "\",\n"
     << pad << "  \"simd\": \"" << json_escape(simd) << "\"\n"
     << pad << "}";
}

}  // namespace rcs::obs
