// bslint — project-specific static analysis (determinism sanitizer layer 3).
//
// A deliberately small, dependency-free checker (token/regex level, no
// libclang) that walks src/ tests/ bench/ and enforces the project rules
// that keep the simulation bit-reproducible and the coroutine engine out of
// known compiler traps:
//
//   wall-clock               no wall-clock time sources in simulated code —
//                            sim::Simulator::now() is the only clock.
//   unseeded-rand            no rand()/srand()/std::random_device/
//                            std::default_random_engine — all randomness
//                            flows through the seeded bs::Rng.
//   raw-unordered            no raw std::unordered_* outside
//                            src/common/container.h — use the hash-order-
//                            scrambled bs::unordered_map/set aliases.
//   pointer-key              no pointer-keyed std::map/std::set (or bs::
//                            unordered aliases): address order varies run
//                            to run, so iteration leaks allocator state.
//   coro-label-temporaries   no std::string + initializer-list temporaries
//                            (obs label lists `{{"k", v}}`) inside Task<>
//                            coroutine bodies — GCC 12.2 at -O2 miscompiles
//                            the frame (the PR-6 class); hoist into a plain
//                            noinline helper like register_job_metrics.
//   unsorted-emitter         json_snapshot/debug_string/text_snapshot/
//                            write_json bodies must not iterate unordered
//                            containers: emitters define the byte-identical
//                            surface, so they traverse sorted state only.
//   library-getenv           no getenv in src/ outside common/log.cpp and
//                            common/container.cpp: a library behaviour
//                            switched by an environment variable is a
//                            second code path no config or test names.
//
// Inline suppression (same line or the line directly above):
//   // bslint: allow(rule-id)          one rule
//   // bslint: allow(rule-a,rule-b)    several
//
// Usage:
//   bslint [--report <path>] [--list-rules] <dir-or-file>...
//   bslint --self-test
//
// Exit codes: 0 clean, 1 unsuppressed hits (or self-test failure), 2 usage
// or I/O error.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Source model: each physical line split into code and comment parts, with
// string/char literal contents blanked (quotes kept) so rule patterns never
// fire inside literals, and comment text kept for suppression markers.

struct SourceLine {
  std::string code;     // literals blanked, comments removed
  std::string comment;  // concatenated comment text on this line
  bool in_coro = false;     // any part of the line is inside a Task<> body
  bool in_emitter = false;  // ... inside a snapshot/debug emitter body
};

struct Hit {
  std::string file;
  size_t line = 0;  // 1-based
  std::string rule;
  std::string message;
  bool suppressed = false;
};

// Splits raw file content into SourceLines. A single forward scan tracks
// block comments, string/char literals (escapes honored), and basic raw
// strings R"( ... )".
std::vector<SourceLine> split_lines(const std::string& text) {
  std::vector<SourceLine> out;
  out.emplace_back();
  enum class St { kCode, kLineComment, kBlockComment, kString, kChar, kRaw };
  St st = St::kCode;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      if (st == St::kLineComment) st = St::kCode;
      // Unterminated string at EOL: malformed source; reset defensively.
      if (st == St::kString || st == St::kChar) st = St::kCode;
      out.emplace_back();
      continue;
    }
    SourceLine& line = out.back();
    switch (st) {
      case St::kCode:
        if (c == '/' && next == '/') {
          st = St::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          st = St::kBlockComment;
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (line.code.empty() ||
                    !(std::isalnum(static_cast<unsigned char>(
                          line.code.back())) ||
                      line.code.back() == '_'))) {
          line.code += "R\"";
          st = St::kRaw;
          ++i;
        } else if (c == '"') {
          line.code += '"';
          st = St::kString;
        } else if (c == '\'') {
          line.code += '\'';
          st = St::kChar;
        } else {
          line.code += c;
        }
        break;
      case St::kLineComment:
        line.comment += c;
        break;
      case St::kBlockComment:
        if (c == '*' && next == '/') {
          st = St::kCode;
          ++i;
        } else {
          line.comment += c;
        }
        break;
      case St::kString:
      case St::kChar: {
        const char quote = st == St::kString ? '"' : '\'';
        if (c == '\\') {
          line.code += ' ';
          if (next != '\0' && next != '\n') {
            line.code += ' ';
            ++i;
          }
        } else if (c == quote) {
          line.code += quote;
          st = St::kCode;
        } else {
          line.code += ' ';
        }
        break;
      }
      case St::kRaw:
        if (c == ')' && next == '"') {
          line.code += ")\"";
          st = St::kCode;
          ++i;
        } else {
          line.code += ' ';
        }
        break;
    }
  }
  return out;
}

// Marks lines belonging to Task<>-returning function/lambda bodies and to
// snapshot-emitter bodies. Brace-depth walk over the blanked code: when a
// `{` opens, the text since the previous `{`/`}`/`;` decides what kind of
// frame it is; plain scope braces inherit the enclosing frame's flags, new
// function-like frames compute their own (a helper lambda inside a coroutine
// runs on the native stack, not in the coroutine frame).
void mark_contexts(std::vector<SourceLine>& lines) {
  static const std::regex kCoroIntro(R"(\bTask\s*<)");
  static const std::regex kEmitterIntro(
      R"(\b(json_snapshot|debug_string|text_snapshot|write_json)\s*\()");
  static const std::regex kFuncIntro(
      R"(\)\s*(const|noexcept|override|final|mutable|->\s*[\w:<>&*,\s]+)*\s*$)");
  static const std::regex kControlIntro(
      R"(\b(if|for|while|switch|catch|do|else)\b)");

  struct Frame {
    bool coro = false;
    bool emitter = false;
  };
  std::vector<Frame> stack;
  stack.push_back({});  // file scope
  std::string intro;    // code since the last {, }, or ;

  for (SourceLine& line : lines) {
    for (const char c : line.code) {
      if (c == '{') {
        Frame f = stack.back();  // inherit by default (if/for/plain scope)
        std::string trimmed = intro;
        const bool func_like = std::regex_search(trimmed, kFuncIntro) &&
                               !std::regex_search(trimmed, kControlIntro);
        if (func_like) {
          f.coro = std::regex_search(trimmed, kCoroIntro);
          f.emitter = std::regex_search(trimmed, kEmitterIntro);
        }
        stack.push_back(f);
        intro.clear();
      } else if (c == '}') {
        if (stack.size() > 1) stack.pop_back();
        intro.clear();
      } else if (c == ';') {
        intro.clear();
      } else {
        intro += c;
      }
      if (stack.back().coro) line.in_coro = true;
      if (stack.back().emitter) line.in_emitter = true;
    }
    intro += '\n';
  }
}

// ---------------------------------------------------------------------------
// Rules.

struct Rule {
  std::string id;
  std::string description;
};

const std::vector<Rule>& rules() {
  static const std::vector<Rule> kRules = {
      {"wall-clock",
       "wall-clock time source in simulated code (use sim::Simulator::now)"},
      {"unseeded-rand",
       "unseeded/system randomness (use the seeded bs::Rng)"},
      {"raw-unordered",
       "raw std::unordered_* outside common/container.h (use "
       "bs::unordered_map/set)"},
      {"pointer-key",
       "pointer-keyed ordered/unordered container (address order is "
       "nondeterministic)"},
      {"coro-label-temporaries",
       "std::string initializer-list temporaries inside a Task<> coroutine "
       "body (GCC 12 frame miscompile class; hoist to a plain helper)"},
      {"unsorted-emitter",
       "snapshot/debug emitter iterates an unordered container (emitters "
       "must traverse sorted state)"},
      {"library-getenv",
       "getenv in library code (src/) outside common/log.cpp and "
       "common/container.cpp (make it a config field)"},
  };
  return kRules;
}

bool path_contains(const std::string& path, const std::string& needle) {
  return path.find(needle) != std::string::npos;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Whether a path lies in the library tree: the innermost of its directories
// named like a top-level tree (src, tests, bench, tools, examples) is src.
bool in_library(const std::string& path) {
  static const std::set<std::string> kTrees = {"src", "tests", "bench",
                                               "tools", "examples"};
  std::string tree;
  for (const auto& part : fs::path(path).parent_path()) {
    if (kTrees.count(part.string()) > 0) tree = part.string();
  }
  return tree == "src";
}

void add_hit(std::vector<Hit>* hits, const std::string& file, size_t line_no,
             const char* rule, const std::string& msg) {
  hits->push_back(Hit{file, line_no, rule, msg, false});
}

void scan_line_rules(const std::string& file,
                     const std::vector<SourceLine>& lines,
                     std::vector<Hit>* hits) {
  static const std::regex kWallClock(
      R"(\b(std::chrono::(system_clock|steady_clock|high_resolution_clock)|gettimeofday|clock_gettime|timespec_get|localtime|gmtime|mktime|asctime|ctime)\b|\bstd::time\s*\(|\btime\s*\(\s*(nullptr|NULL|0)\s*\))");
  static const std::regex kRand(
      R"(\brandom_device\b|\bdefault_random_engine\b|\bstd::rand\b|\bsrand\s*\(|\brand\s*\(\s*\))");
  static const std::regex kRawUnordered(R"(std::unordered_|<unordered_(map|set)>)");
  static const std::regex kCoroTemporaries(R"(\{\{\s*(\"|std::))");
  static const std::regex kGetenv(R"(\b(secure_)?getenv\s*\()");

  const bool container_header = path_contains(file, "common/container.h");
  const bool getenv_allowed = !in_library(file) ||
                              ends_with(file, "src/common/log.cpp") ||
                              ends_with(file, "src/common/container.cpp");

  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    if (code.empty()) continue;
    const size_t n = i + 1;
    if (std::regex_search(code, kWallClock)) {
      add_hit(hits, file, n, "wall-clock",
              "wall-clock/system time source; the simulator clock "
              "(sim.now()) is the only time in this codebase");
    }
    if (std::regex_search(code, kRand)) {
      add_hit(hits, file, n, "unseeded-rand",
              "system randomness; use the deterministic seeded bs::Rng");
    }
    if (!container_header && std::regex_search(code, kRawUnordered)) {
      add_hit(hits, file, n, "raw-unordered",
              "raw std::unordered_* container; use bs::unordered_map/set "
              "from common/container.h (hash-order scrambled)");
    }
    if (!getenv_allowed && std::regex_search(code, kGetenv)) {
      add_hit(hits, file, n, "library-getenv",
              "environment-switched behaviour in library code; add a "
              "config field instead (only logging and the hash seed read "
              "the environment)");
    }
    if (lines[i].in_coro && std::regex_search(code, kCoroTemporaries)) {
      add_hit(hits, file, n, "coro-label-temporaries",
              "string initializer-list temporaries inside a Task<> "
              "coroutine body miscompile under GCC 12 -O2; hoist into a "
              "plain [[gnu::noinline]] helper");
    }
  }
}

// Multi-line declarations (pointer keys, unordered members) are matched on
// the joined code stream; hit lines recovered by offset.
void scan_joined_rules(const std::string& file,
                       const std::vector<SourceLine>& lines,
                       std::vector<Hit>* hits) {
  std::string joined;
  std::vector<size_t> line_of_offset;
  for (size_t i = 0; i < lines.size(); ++i) {
    for (size_t k = 0; k <= lines[i].code.size(); ++k) {
      line_of_offset.push_back(i + 1);
    }
    joined += lines[i].code;
    joined += '\n';
  }
  auto line_at = [&](size_t off) {
    return off < line_of_offset.size() ? line_of_offset[off] : lines.size();
  };

  static const std::regex kPointerKey(
      R"((std::map|std::set|bs::unordered_map|bs::unordered_set)\s*<\s*(const\s+)?[\w:]+(\s*<[^<>]*>)?\s*\*\s*[,>])");
  for (auto it = std::sregex_iterator(joined.begin(), joined.end(),
                                      kPointerKey);
       it != std::sregex_iterator(); ++it) {
    add_hit(hits, file, line_at(static_cast<size_t>(it->position())),
            "pointer-key",
            "pointer-keyed container: iteration follows allocation "
            "addresses, which vary run to run; key by a stable id");
  }

  // unsorted-emitter: collect unordered member/local names declared in this
  // file, then flag emitter-body lines that iterate them or that name an
  // unordered type at all.
  static const std::regex kUnorderedDecl(
      R"(unordered_(map|set)\s*<[^;{}()]*?>\s+(\w+)\s*[;={])");
  std::set<std::string> unordered_names;
  for (auto it = std::sregex_iterator(joined.begin(), joined.end(),
                                      kUnorderedDecl);
       it != std::sregex_iterator(); ++it) {
    unordered_names.insert((*it)[2].str());
  }
  for (size_t i = 0; i < lines.size(); ++i) {
    if (!lines[i].in_emitter || lines[i].code.empty()) continue;
    const std::string& code = lines[i].code;
    bool flagged = code.find("unordered_") != std::string::npos;
    if (!flagged) {
      static const std::regex kRangeFor(R"(for\s*\([^)]*:\s*(\w+)\s*\))");
      std::smatch m;
      if (std::regex_search(code, m, kRangeFor) &&
          unordered_names.count(m[1].str()) > 0) {
        flagged = true;
      }
    }
    if (flagged) {
      add_hit(hits, file, i + 1, "unsorted-emitter",
              "emitter (json_snapshot/debug_string/...) touches an "
              "unordered container; snapshot surfaces must iterate sorted "
              "state to stay byte-identical");
    }
  }
}

// Applies `// bslint: allow(a,b)` suppressions from the same line or the
// line directly above.
void apply_suppressions(const std::vector<SourceLine>& lines,
                        std::vector<Hit>* hits) {
  auto allowed = [&](size_t line_no, const std::string& rule) {
    static const std::regex kAllow(R"(bslint:\s*allow\(([^)]*)\))");
    for (size_t n : {line_no, line_no - 1}) {
      if (n == 0 || n > lines.size()) continue;
      const std::string& comment = lines[n - 1].comment;
      for (auto it = std::sregex_iterator(comment.begin(), comment.end(),
                                          kAllow);
           it != std::sregex_iterator(); ++it) {
        std::stringstream ss((*it)[1].str());
        std::string tok;
        while (std::getline(ss, tok, ',')) {
          const size_t b = tok.find_first_not_of(" \t");
          const size_t e = tok.find_last_not_of(" \t");
          if (b == std::string::npos) continue;
          const std::string name = tok.substr(b, e - b + 1);
          if (name == rule || name == "all") return true;
        }
      }
    }
    return false;
  };
  for (Hit& h : *hits) h.suppressed = allowed(h.line, h.rule);
}

std::vector<Hit> scan_content(const std::string& file,
                              const std::string& content) {
  std::vector<SourceLine> lines = split_lines(content);
  mark_contexts(lines);
  std::vector<Hit> hits;
  scan_line_rules(file, lines, &hits);
  scan_joined_rules(file, lines, &hits);
  apply_suppressions(lines, &hits);
  return hits;
}

// ---------------------------------------------------------------------------
// Self-test: every rule has positive, negative, and suppressed fixtures.

struct Fixture {
  const char* name;
  const char* path;
  const char* source;
  const char* rule;      // rule expected to fire (nullptr: expect clean)
  int expected_hits;     // unsuppressed hits of `rule`
  int expected_suppressed = 0;
};

int run_self_test() {
  const std::vector<Fixture> fixtures = {
      // wall-clock
      {"wall-clock: system_clock fires", "src/x.cpp",
       "double t() { return std::chrono::system_clock::now().time_since_epoch().count(); }",
       "wall-clock", 1},
      {"wall-clock: time(nullptr) fires", "src/x.cpp",
       "long t() { return time(nullptr); }", "wall-clock", 1},
      {"wall-clock: sim clock is fine", "src/x.cpp",
       "double t(bs::sim::Simulator& s) { return s.now(); }", "wall-clock",
       0},
      {"wall-clock: comment mention is fine", "src/x.cpp",
       "// steady_clock would break determinism\nint x = 1;", "wall-clock",
       0},
      {"wall-clock: suppression honored", "src/x.cpp",
       "long t() { return time(nullptr); }  // bslint: allow(wall-clock)",
       "wall-clock", 0, 1},
      // unseeded-rand
      {"unseeded-rand: random_device fires", "src/x.cpp",
       "uint64_t seed() { return std::random_device{}(); }", "unseeded-rand",
       1},
      {"unseeded-rand: rand() fires", "src/x.cpp",
       "int r() { return rand(); }", "unseeded-rand", 1},
      {"unseeded-rand: seeded Rng is fine", "src/x.cpp",
       "uint64_t r(bs::Rng& rng) { return rng.next(); }", "unseeded-rand", 0},
      {"unseeded-rand: string literal is fine", "src/x.cpp",
       "const char* kMsg = \"random_device is banned\";", "unseeded-rand", 0},
      {"unseeded-rand: suppression on previous line", "src/x.cpp",
       "// bslint: allow(unseeded-rand)\nint r() { return rand(); }",
       "unseeded-rand", 0, 1},
      // raw-unordered
      {"raw-unordered: declaration fires", "src/y.h",
       "#include <map>\nstd::unordered_map<int, int> m;", "raw-unordered", 1},
      {"raw-unordered: include fires", "src/y.h",
       "#include <unordered_set>", "raw-unordered", 1},
      {"raw-unordered: alias header is exempt", "src/common/container.h",
       "#include <unordered_map>\nstd::unordered_map<int, int> m;",
       "raw-unordered", 0},
      {"raw-unordered: bs alias is fine", "src/y.h",
       "bs::unordered_map<int, int> m;", "raw-unordered", 0},
      {"raw-unordered: suppression honored", "src/y.h",
       "std::unordered_map<int, int> m;  // bslint: allow(raw-unordered)",
       "raw-unordered", 0, 1},
      // pointer-key
      {"pointer-key: std::set of pointers fires", "src/y.h",
       "std::set<Flow*> active;", "pointer-key", 1},
      {"pointer-key: multi-line map fires", "src/y.h",
       "std::map<const Node*,\n         int> depth;", "pointer-key", 1},
      {"pointer-key: bs alias with pointer key fires", "src/y.h",
       "bs::unordered_set<Provider*> up;", "pointer-key", 1},
      {"pointer-key: pointer VALUES are fine", "src/y.h",
       "std::map<uint64_t, Node*> by_id; bs::unordered_map<int, Page*> p;",
       "pointer-key", 0},
      {"pointer-key: suppression honored", "src/y.h",
       "std::set<Flow*> active;  // bslint: allow(pointer-key)",
       "pointer-key", 0, 1},
      // coro-label-temporaries
      {"coro-temporaries: labels in Task body fire", "src/z.cpp",
       "sim::Task<void> run(Sim& s) {\n"
       "  auto* c = &s.metrics().counter(\"mr/x\", {{\"job\", id}});\n"
       "  co_await s.delay(1);\n}",
       "coro-label-temporaries", 1},
      {"coro-temporaries: Task lambda fires", "src/z.cpp",
       "auto fn = [](Sim& s) -> sim::Task<void> {\n"
       "  reg.counter(\"x\", {{\"k\", \"v\"}});\n  co_return;\n};",
       "coro-label-temporaries", 1},
      {"coro-temporaries: plain function is fine", "src/z.cpp",
       "void register_metrics(Sim& s) {\n"
       "  s.metrics().counter(\"mr/x\", {{\"job\", id}});\n}",
       "coro-label-temporaries", 0},
      {"coro-temporaries: aggregate init in Task is fine", "src/z.cpp",
       "sim::Task<void> run(Sim& s) {\n"
       "  std::array<int, 2> a{{1, 2}};\n  co_await s.delay(a[0]);\n}",
       "coro-label-temporaries", 0},
      {"coro-temporaries: suppression honored", "src/z.cpp",
       "sim::Task<void> run(Sim& s) {\n"
       "  // bslint: allow(coro-label-temporaries)\n"
       "  reg.counter(\"x\", {{\"k\", \"v\"}});\n  co_return;\n}",
       "coro-label-temporaries", 0, 1},
      // unsorted-emitter
      {"unsorted-emitter: range-for over unordered member fires", "src/w.cpp",
       "struct S {\n  bs::unordered_map<int, int> load_;\n"
       "  std::string debug_string() const {\n"
       "    std::string out;\n"
       "    for (const auto& kv : load_) out += render(kv);\n"
       "    return out;\n  }\n};",
       "unsorted-emitter", 1},
      {"unsorted-emitter: unordered local in emitter fires", "src/w.cpp",
       "std::string json_snapshot() {\n"
       "  bs::unordered_set<int> seen;\n  return \"{}\";\n}",
       "unsorted-emitter", 1},
      {"unsorted-emitter: sorted map is fine", "src/w.cpp",
       "struct S {\n  std::map<std::string, int> entries_;\n"
       "  std::string text_snapshot() const {\n"
       "    std::string out;\n"
       "    for (const auto& kv : entries_) out += render(kv);\n"
       "    return out;\n  }\n};",
       "unsorted-emitter", 0},
      {"unsorted-emitter: unordered outside emitter body is fine",
       "src/w.cpp",
       "struct S {\n  bs::unordered_map<int, int> load_;\n"
       "  int total() const {\n"
       "    int t = 0;\n    for (const auto& kv : load_) t += kv.second;\n"
       "    return t;\n  }\n};",
       "unsorted-emitter", 0},
      {"unsorted-emitter: suppression honored", "src/w.cpp",
       "struct S {\n  bs::unordered_map<int, int> load_;\n"
       "  std::string debug_string() const {\n"
       "    std::string out;\n"
       "    // bslint: allow(unsorted-emitter)\n"
       "    for (const auto& kv : load_) out += render(kv);\n"
       "    return out;\n  }\n};",
       "unsorted-emitter", 0, 1},
      // library-getenv
      {"library-getenv: getenv in a library constructor fires",
       "src/net/network.cpp",
       "Network::Network() {\n"
       "  const char* env = std::getenv(\"BS_MODE\");\n"
       "  legacy_ = env != nullptr;\n}",
       "library-getenv", 1},
      {"library-getenv: logging and hash-seed reads are fine",
       "src/common/log.cpp",
       "const char* env = std::getenv(\"BS_LOG\");", "library-getenv", 0},
      {"library-getenv: tests and benches are fine", "tests/x_test.cpp",
       "const char* env = std::getenv(\"BS_MODE\");", "library-getenv", 0},
      {"library-getenv: suppression honored", "src/x.cpp",
       "// bslint: allow(library-getenv)\n"
       "const char* env = std::getenv(\"BS_MODE\");",
       "library-getenv", 0, 1},
  };

  int failures = 0;
  std::set<std::string> covered;
  for (const Fixture& f : fixtures) {
    const std::vector<Hit> hits = scan_content(f.path, f.source);
    int live = 0, suppressed = 0;
    for (const Hit& h : hits) {
      if (h.rule != f.rule) continue;
      if (h.suppressed) {
        ++suppressed;
      } else {
        ++live;
      }
    }
    covered.insert(f.rule);
    if (live != f.expected_hits || suppressed != f.expected_suppressed) {
      ++failures;
      std::fprintf(stderr,
                   "SELF-TEST FAIL: %s — rule %s expected %d hit(s) (%d "
                   "suppressed), got %d (%d suppressed)\n",
                   f.name, f.rule, f.expected_hits, f.expected_suppressed,
                   live, suppressed);
      for (const Hit& h : hits) {
        std::fprintf(stderr, "  saw %s:%zu [%s]%s\n", h.file.c_str(), h.line,
                     h.rule.c_str(), h.suppressed ? " (suppressed)" : "");
      }
    }
  }
  // Coverage gate: a rule added without fixtures fails the self-test, so
  // the "self-test covers every rule" invariant is mechanical, not manual.
  for (const Rule& r : rules()) {
    if (covered.count(r.id) == 0) {
      ++failures;
      std::fprintf(stderr, "SELF-TEST FAIL: rule %s has no fixtures\n",
                   r.id.c_str());
    }
  }
  if (failures == 0) {
    std::printf("bslint self-test: %zu fixtures, %zu rules covered, all "
                "passing\n",
                fixtures.size(), rules().size());
    return 0;
  }
  std::fprintf(stderr, "bslint self-test: %d failure(s)\n", failures);
  return 1;
}

// ---------------------------------------------------------------------------
// Driver.

bool scannable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

int scan_tree(const std::vector<std::string>& roots,
              const std::string& report_path) {
  std::vector<fs::path> files;
  for (const std::string& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (fs::recursive_directory_iterator it(root, ec), end;
           it != end && !ec; it.increment(ec)) {
        if (it->is_regular_file() && scannable(it->path())) {
          files.push_back(it->path());
        }
      }
    } else if (fs::is_regular_file(root, ec)) {
      files.push_back(root);
    } else {
      std::fprintf(stderr, "bslint: cannot read %s\n", root.c_str());
      return 2;
    }
  }
  std::sort(files.begin(), files.end());

  std::string report;
  size_t live = 0, suppressed = 0;
  std::map<std::string, size_t> per_rule;
  for (const fs::path& p : files) {
    std::ifstream in(p, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "bslint: cannot open %s\n", p.c_str());
      return 2;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    for (const Hit& h : scan_content(p.generic_string(), ss.str())) {
      if (h.suppressed) {
        ++suppressed;
        continue;
      }
      ++live;
      ++per_rule[h.rule];
      char buf[64];
      std::snprintf(buf, sizeof(buf), ":%zu: ", h.line);
      report += h.file + buf + "[" + h.rule + "] " + h.message + "\n";
    }
  }
  char summary[256];
  std::snprintf(summary, sizeof(summary),
                "bslint: %zu file(s) scanned, %zu hit(s), %zu suppressed\n",
                files.size(), live, suppressed);
  report += summary;
  for (const auto& [rule, count] : per_rule) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "  %-24s %zu\n", rule.c_str(), count);
    report += buf;
  }
  std::fputs(report.c_str(), live > 0 ? stderr : stdout);
  if (!report_path.empty()) {
    std::ofstream out(report_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "bslint: cannot write report %s\n",
                   report_path.c_str());
      return 2;
    }
    out << report;
  }
  return live > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  std::string report_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      return run_self_test();
    } else if (arg == "--list-rules") {
      for (const Rule& r : rules()) {
        std::printf("%-24s %s\n", r.id.c_str(), r.description.c_str());
      }
      return 0;
    } else if (arg == "--report") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bslint: --report needs a path\n");
        return 2;
      }
      report_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: bslint [--report <path>] [--list-rules] <dir-or-file>...\n"
          "       bslint --self-test\n");
      return 0;
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) {
    std::fprintf(stderr,
                 "bslint: no inputs (try: bslint src tests bench)\n");
    return 2;
  }
  return scan_tree(roots, report_path);
}
