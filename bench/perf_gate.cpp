// Perf regression gate over BENCH_perf.json artifacts.
//
// Two jobs, two severities:
//
//  1. Structural invariants (always fatal, exit 2): the fresh file must
//     carry at least one critical-path "analysis" block, and every such
//     block in either file must satisfy
//         critical_path <= makespan <= resource-seconds
//     and each rank's attribution buckets (cpu + fpga + visible transfer +
//     fault recovery + idle) must sum to the makespan. A violation means the
//     analyzer or the trace it consumed is broken — no tolerance applies.
//
//  2. Per-kernel wall-clock diffs (exit 1, or warnings under --warn-only):
//     kernel rows are matched on (kernel, size, threads) and the fresh
//     seconds must stay within a per-kernel relative tolerance of the
//     baseline. Rows marked "oversubscribed" (threads > hardware cores at
//     collection time) are skipped on either side — their timings carry
//     scheduler noise, not signal.
//
// Usage:
//   perf_gate <fresh.json> <baseline.json> [--warn-only]
//   perf_gate --self-test <baseline.json>
//
// --self-test loads the baseline, requires the real file to pass both
// checks, then perturbs the parsed tree in memory (critical path pushed past
// the makespan; every analysis block removed; one kernel row slowed 10x) and
// requires each perturbed copy to fail — a gate that cannot fail is no gate.

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

// --- Minimal JSON tree + recursive-descent parser --------------------------
// (No third-party dependencies are available; the subset emitted by
// perf_wallclock — objects, arrays, strings, numbers, bools, null — is all
// this needs to read.)

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;

  const JsonValue* get(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  JsonValue* get_mut(const std::string& key) {
    for (auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  double num_or(double fallback) const {
    return kind == Kind::Number ? number : fallback;
  }
};

struct Parser {
  const std::string& s;
  std::size_t i = 0;
  std::string error;

  explicit Parser(const std::string& text) : s(text) {}

  void skip_ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
  }
  bool fail(const std::string& why) {
    if (error.empty()) {
      error = why + " at offset " + std::to_string(i);
    }
    return false;
  }
  bool expect(char c) {
    skip_ws();
    if (i >= s.size() || s[i] != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++i;
    return true;
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (i >= s.size()) return fail("unexpected end of input");
    const char c = s[i];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') {
      out.kind = JsonValue::Kind::String;
      return parse_string(out.str);
    }
    if (c == 't' || c == 'f') return parse_keyword(out);
    if (c == 'n') return parse_keyword(out);
    return parse_number(out);
  }

  bool parse_keyword(JsonValue& out) {
    auto lit = [&](const char* word) {
      const std::size_t n = std::string(word).size();
      if (s.compare(i, n, word) != 0) return false;
      i += n;
      return true;
    };
    if (lit("true")) {
      out.kind = JsonValue::Kind::Bool;
      out.boolean = true;
      return true;
    }
    if (lit("false")) {
      out.kind = JsonValue::Kind::Bool;
      out.boolean = false;
      return true;
    }
    if (lit("null")) {
      out.kind = JsonValue::Kind::Null;
      return true;
    }
    return fail("unknown keyword");
  }

  bool parse_number(JsonValue& out) {
    const char* begin = s.c_str() + i;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) return fail("malformed number");
    i += static_cast<std::size_t>(end - begin);
    out.kind = JsonValue::Kind::Number;
    out.number = v;
    return true;
  }

  bool parse_string(std::string& out) {
    if (!expect('"')) return false;
    out.clear();
    while (i < s.size()) {
      const char c = s[i++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (i >= s.size()) return fail("dangling escape");
      const char e = s[i++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (i + 4 > s.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = s[i++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("bad hex digit in \\u escape");
            }
          }
          // The artifacts only escape control characters; anything beyond
          // Latin-1 is preserved as '?' rather than implementing UTF-16.
          out.push_back(code < 0x100 ? static_cast<char>(code) : '?');
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_array(JsonValue& out) {
    if (!expect('[')) return false;
    out.kind = JsonValue::Kind::Array;
    skip_ws();
    if (i < s.size() && s[i] == ']') {
      ++i;
      return true;
    }
    while (true) {
      JsonValue v;
      if (!parse_value(v)) return false;
      out.arr.push_back(std::move(v));
      skip_ws();
      if (i < s.size() && s[i] == ',') {
        ++i;
        continue;
      }
      return expect(']');
    }
  }

  bool parse_object(JsonValue& out) {
    if (!expect('{')) return false;
    out.kind = JsonValue::Kind::Object;
    skip_ws();
    if (i < s.size() && s[i] == '}') {
      ++i;
      return true;
    }
    while (true) {
      std::string key;
      if (!parse_string(key)) return false;
      if (!expect(':')) return false;
      JsonValue v;
      if (!parse_value(v)) return false;
      out.obj.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (i < s.size() && s[i] == ',') {
        ++i;
        continue;
      }
      return expect('}');
    }
  }
};

bool parse_file(const std::string& path, JsonValue& out, std::string& err) {
  std::ifstream in(path);
  if (!in) {
    err = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  Parser p(text);
  if (!p.parse_value(out)) {
    err = path + ": " + p.error;
    return false;
  }
  return true;
}

// --- Structural invariants --------------------------------------------------

/// An object is an analysis block iff it carries the analyzer's signature
/// keys; blocks are found wherever they are nested ("drift.lu.analysis",
/// future surfaces) so the gate needs no schema knowledge of its parents.
bool is_analysis_block(const JsonValue& v) {
  return v.kind == JsonValue::Kind::Object && v.get("makespan_s") != nullptr &&
         v.get("critical_path_s") != nullptr &&
         v.get("resource_seconds_s") != nullptr && v.get("per_rank") != nullptr;
}

void collect_analysis_blocks(JsonValue& v, const std::string& path,
                             std::vector<std::pair<std::string, JsonValue*>>&
                                 out) {
  if (v.kind == JsonValue::Kind::Object) {
    if (is_analysis_block(v)) out.emplace_back(path, &v);
    for (auto& [k, child] : v.obj) {
      collect_analysis_blocks(child, path + "." + k, out);
    }
  } else if (v.kind == JsonValue::Kind::Array) {
    for (std::size_t i = 0; i < v.arr.size(); ++i) {
      collect_analysis_blocks(v.arr[i], path + "[" + std::to_string(i) + "]",
                              out);
    }
  }
}

/// Check cp <= makespan <= resource-seconds and the per-rank bucket
/// partition on one block; appends human-readable violations.
void check_block(const std::string& where, const JsonValue& block,
                 std::vector<std::string>& violations) {
  const double mk = block.get("makespan_s")->num_or(-1.0);
  const double cp = block.get("critical_path_s")->num_or(-1.0);
  const double rs = block.get("resource_seconds_s")->num_or(-1.0);
  char buf[256];
  if (mk < 0.0 || cp < 0.0 || rs < 0.0) {
    violations.push_back(where + ": non-numeric makespan/cp/resource fields");
    return;
  }
  if (mk == 0.0) return;  // empty run: nothing to check
  const double tol = mk * 1e-9 + 1e-12;
  if (cp > mk + tol) {
    std::snprintf(buf, sizeof(buf),
                  "%s: critical path %.9g s exceeds makespan %.9g s",
                  where.c_str(), cp, mk);
    violations.push_back(buf);
  }
  if (mk > rs + tol) {
    std::snprintf(buf, sizeof(buf),
                  "%s: makespan %.9g s exceeds resource-seconds %.9g s",
                  where.c_str(), mk, rs);
    violations.push_back(buf);
  }
  const JsonValue* ranks = block.get("per_rank");
  if (ranks->kind != JsonValue::Kind::Array) {
    violations.push_back(where + ": per_rank is not an array");
    return;
  }
  for (const JsonValue& row : ranks->arr) {
    double sum = 0.0;
    for (const char* key : {"cpu_s", "fpga_s", "transfer_visible_s",
                            "fault_recovery_s", "wait_idle_s"}) {
      const JsonValue* f = row.get(key);
      if (f == nullptr) {
        violations.push_back(where + ": per_rank row missing " + key);
        return;
      }
      sum += f->num_or(0.0);
    }
    const double rel = std::abs(sum - mk) / mk;
    if (rel > 1e-6) {
      const JsonValue* r = row.get("rank");
      std::snprintf(buf, sizeof(buf),
                    "%s: rank %d buckets sum to %.9g s, makespan %.9g s "
                    "(rel err %.3g)",
                    where.c_str(),
                    r != nullptr ? static_cast<int>(r->num_or(-1)) : -1, sum,
                    mk, rel);
      violations.push_back(buf);
    }
  }
  // The analyzer's own verdict must agree with the recomputation.
  if (const JsonValue* inv = block.get("invariants")) {
    for (const char* key :
         {"cp_le_makespan", "makespan_le_resource_seconds",
          "buckets_sum_to_makespan"}) {
      const JsonValue* f = inv->get(key);
      if (f != nullptr && f->kind == JsonValue::Kind::Bool && !f->boolean) {
        violations.push_back(where + ": analyzer flagged " + key + " false");
      }
    }
  }
}

std::vector<std::string> structural_violations(JsonValue& root,
                                               const std::string& name) {
  std::vector<std::pair<std::string, JsonValue*>> blocks;
  collect_analysis_blocks(root, name, blocks);
  std::vector<std::string> violations;
  for (const auto& [where, block] : blocks) {
    check_block(where, *block, violations);
  }
  return violations;
}

/// The structural check of a fresh artifact: as above, and it must carry at
/// least one analysis block — a check that sees none checks nothing.
std::vector<std::string> fresh_violations(JsonValue& fresh) {
  std::vector<std::string> violations = structural_violations(fresh, "fresh");
  std::vector<std::pair<std::string, JsonValue*>> blocks;
  collect_analysis_blocks(fresh, "fresh", blocks);
  if (blocks.empty()) {
    violations.push_back("fresh: no analysis block to check");
  }
  return violations;
}

/// Remove every analysis block from `v`, wherever it is nested.
void strip_analysis_blocks(JsonValue& v) {
  std::erase_if(v.obj, [](const auto& kv) {
    return is_analysis_block(kv.second);
  });
  std::erase_if(v.arr, is_analysis_block);
  for (auto& [k, child] : v.obj) strip_analysis_blocks(child);
  for (JsonValue& child : v.arr) strip_analysis_blocks(child);
}

// --- Per-kernel tolerance diff ----------------------------------------------

struct KernelRow {
  std::string kernel;
  long long size = 0;
  int threads = 0;
  bool oversubscribed = false;
  double seconds = 0.0;

  std::string key() const {
    return kernel + "|" + std::to_string(size) + "|" +
           std::to_string(threads);
  }
};

std::vector<KernelRow> kernel_rows(const JsonValue& root) {
  std::vector<KernelRow> rows;
  const JsonValue* kernels = root.get("kernels");
  if (kernels == nullptr || kernels->kind != JsonValue::Kind::Array) {
    return rows;
  }
  for (const JsonValue& row : kernels->arr) {
    KernelRow r;
    if (const JsonValue* v = row.get("kernel")) r.kernel = v->str;
    if (const JsonValue* v = row.get("size")) {
      r.size = static_cast<long long>(v->num_or(0));
    }
    if (const JsonValue* v = row.get("threads")) {
      r.threads = static_cast<int>(v->num_or(0));
    }
    if (const JsonValue* v = row.get("oversubscribed")) {
      r.oversubscribed = v->kind == JsonValue::Kind::Bool && v->boolean;
    }
    if (const JsonValue* v = row.get("seconds")) r.seconds = v->num_or(0.0);
    rows.push_back(std::move(r));
  }
  return rows;
}

/// Allowed relative slowdown vs baseline before a row counts as a
/// regression. Wall clock on shared CI runners is noisy, so the defaults are
/// deliberately loose; the simulated surfaces (drift, analysis) carry the
/// precise signal and are covered by the structural checks instead.
double tolerance_for(const std::string& kernel) {
  static const std::map<std::string, double> overrides = {
      {"gemm_naive", 0.60},  // O(n^3) reference, most cache-sensitive
  };
  const auto it = overrides.find(kernel);
  return it != overrides.end() ? it->second : 0.50;
}

std::vector<std::string> kernel_regressions(const JsonValue& fresh,
                                            const JsonValue& baseline,
                                            int* compared) {
  std::map<std::string, KernelRow> base;
  for (KernelRow& r : kernel_rows(baseline)) {
    base.emplace(r.key(), std::move(r));
  }
  std::vector<std::string> regressions;
  char buf[256];
  for (const KernelRow& r : kernel_rows(fresh)) {
    const auto it = base.find(r.key());
    if (it == base.end()) continue;  // new or re-sized row: no baseline
    if (r.oversubscribed || it->second.oversubscribed) continue;
    if (it->second.seconds <= 0.0) continue;
    if (compared != nullptr) ++*compared;
    const double tol = tolerance_for(r.kernel);
    const double ratio = r.seconds / it->second.seconds;
    if (ratio > 1.0 + tol) {
      std::snprintf(buf, sizeof(buf),
                    "%s n=%lld threads=%d: %.6f s vs baseline %.6f s "
                    "(%.2fx, tolerance %.0f%%)",
                    r.kernel.c_str(), r.size, r.threads, r.seconds,
                    it->second.seconds, ratio, 100.0 * tol);
      regressions.push_back(buf);
    }
  }
  return regressions;
}

void print_list(const char* head, const std::vector<std::string>& lines) {
  if (lines.empty()) return;
  std::fprintf(stderr, "%s\n", head);
  for (const std::string& l : lines) {
    std::fprintf(stderr, "  %s\n", l.c_str());
  }
}

// --- Self-test ---------------------------------------------------------------

int run_self_test(const std::string& path) {
  JsonValue root;
  std::string err;
  if (!parse_file(path, root, err)) {
    std::fprintf(stderr, "self-test: %s\n", err.c_str());
    return 1;
  }

  // The real artifact must pass the checks a fresh one gets.
  const auto clean = fresh_violations(root);
  if (!clean.empty()) {
    print_list("self-test: committed baseline violates invariants:", clean);
    return 1;
  }
  int compared = 0;
  const auto self_diff = kernel_regressions(root, root, &compared);
  if (!self_diff.empty() || compared == 0) {
    std::fprintf(stderr,
                 "self-test: baseline-vs-itself diff compared %d rows, "
                 "%zu regressions (want >0 rows, 0 regressions)\n",
                 compared, self_diff.size());
    return 1;
  }

  // Perturbation 1: push the first analysis block's critical path past its
  // makespan — the structural check must catch it.
  std::vector<std::pair<std::string, JsonValue*>> blocks;
  collect_analysis_blocks(root, "baseline", blocks);
  if (blocks.empty()) {
    std::fprintf(stderr,
                 "self-test: baseline has no analysis blocks to perturb "
                 "(run perf_wallclock without --smoke first)\n");
    return 1;
  }
  JsonValue broken = root;
  {
    std::vector<std::pair<std::string, JsonValue*>> b2;
    collect_analysis_blocks(broken, "perturbed", b2);
    JsonValue* cp = b2.front().second->get_mut("critical_path_s");
    const JsonValue* mk = b2.front().second->get("makespan_s");
    cp->number = mk->num_or(1.0) * 2.0 + 1.0;
  }
  if (structural_violations(broken, "perturbed").empty()) {
    std::fprintf(stderr,
                 "self-test: cp > makespan perturbation not detected\n");
    return 1;
  }

  // Perturbation 2: a fresh artifact without any analysis block must fail.
  JsonValue stripped = root;
  strip_analysis_blocks(stripped);
  if (fresh_violations(stripped).empty()) {
    std::fprintf(stderr,
                 "self-test: fresh artifact without analysis blocks not "
                 "detected\n");
    return 1;
  }

  // Perturbation 3: slow one comparable kernel row 10x — the diff must flag
  // it as a regression.
  JsonValue slowed = root;
  bool slowed_one = false;
  if (JsonValue* kernels = slowed.get_mut("kernels")) {
    for (JsonValue& row : kernels->arr) {
      const JsonValue* over = row.get("oversubscribed");
      if (over != nullptr && over->kind == JsonValue::Kind::Bool &&
          over->boolean) {
        continue;
      }
      if (JsonValue* secs = row.get_mut("seconds")) {
        secs->number *= 10.0;
        slowed_one = true;
        break;
      }
    }
  }
  if (!slowed_one ||
      kernel_regressions(slowed, root, nullptr).empty()) {
    std::fprintf(stderr,
                 "self-test: 10x kernel slowdown not flagged as regression\n");
    return 1;
  }

  std::printf(
      "perf_gate self-test PASS: baseline clean (%zu analysis blocks, %d "
      "kernel rows compared); all three perturbations detected\n",
      blocks.size(), compared);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool warn_only = false;
  bool self_test = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--warn-only") {
      warn_only = true;
    } else if (arg == "--self-test") {
      self_test = true;
    } else {
      paths.push_back(arg);
    }
  }
  if (self_test) {
    if (paths.size() != 1) {
      std::fprintf(stderr, "usage: perf_gate --self-test <baseline.json>\n");
      return 1;
    }
    return run_self_test(paths[0]);
  }
  if (paths.size() != 2) {
    std::fprintf(stderr,
                 "usage: perf_gate <fresh.json> <baseline.json> "
                 "[--warn-only]\n       perf_gate --self-test "
                 "<baseline.json>\n");
    return 1;
  }

  JsonValue fresh, baseline;
  std::string err;
  if (!parse_file(paths[0], fresh, err) ||
      !parse_file(paths[1], baseline, err)) {
    std::fprintf(stderr, "perf_gate: %s\n", err.c_str());
    return 2;  // an unreadable artifact is a structural failure
  }

  std::vector<std::string> violations = fresh_violations(fresh);
  for (std::string& v : structural_violations(baseline, "baseline")) {
    violations.push_back(std::move(v));
  }
  print_list("perf_gate: structural invariant violations:", violations);

  int compared = 0;
  const std::vector<std::string> regressions =
      kernel_regressions(fresh, baseline, &compared);
  print_list(warn_only
                 ? "perf_gate: kernel regressions (warn-only):"
                 : "perf_gate: kernel regressions:",
             regressions);

  std::printf(
      "perf_gate: %d kernel rows compared, %zu regressions%s, %zu "
      "structural violations\n",
      compared, regressions.size(), warn_only ? " (warn-only)" : "",
      violations.size());

  if (!violations.empty()) return 2;
  if (!regressions.empty() && !warn_only) return 1;
  return 0;
}
