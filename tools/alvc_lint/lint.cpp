#include "lint.h"

#include <algorithm>
#include <regex>

#include "scan.h"

namespace alvc::lint {

namespace {

/// The layer a source path belongs to: the directory segment right after
/// "src/", or empty when the file is not under src/.
std::string_view src_layer(std::string_view path) {
  std::size_t pos = path.rfind("src/");
  // Accept both "src/util/x.h" and "/abs/repo/src/util/x.h", but not
  // "tests/util/x.h" (no preceding separator requirement beyond start).
  if (pos == std::string_view::npos) return {};
  if (pos != 0 && path[pos - 1] != '/') return {};
  const std::size_t start = pos + 4;
  const std::size_t end = path.find('/', start);
  if (end == std::string_view::npos) return {};
  return path.substr(start, end - start);
}

bool path_in_layer(std::string_view path, std::string_view layer) {
  return src_layer(path) == layer;
}

struct Rule {
  const char* name;
  const char* message;
  std::regex pattern;
  /// Null = the rule applies everywhere.
  bool (*applies)(std::string_view path);
  /// A line containing any of these substrings (in code, after stripping) is
  /// exempt. Used for idioms that force a match, e.g. EXPECT_THROW((void)f()).
  std::vector<std::string> exempt_markers;
  /// Only a match inside a code block (a function or lambda body, at any
  /// depth) counts; one at namespace or class scope does not.
  bool code_blocks_only = false;
};

/// Rough brace-scope model, enough to tell a function-local declaration
/// from a member or a namespace-scope one: each `{` opens a type scope
/// when the text since the previous `;`, `{` or `}` names class, struct,
/// union, enum or namespace with no `(` after that keyword (a template
/// parameter's `class` is followed by the function's parameter list), and
/// a code block otherwise. Feed it stripped code, preprocessor lines left
/// out.
class ScopeTracker {
 public:
  void feed(std::string_view code) {
    for (const char c : code) {
      if (c == '{') {
        const bool code_block = !opens_type_scope(head_);
        open_.push_back(code_block);
        if (code_block) ++code_depth_;
        head_.clear();
      } else if (c == '}') {
        if (!open_.empty()) {
          if (open_.back()) --code_depth_;
          open_.pop_back();
        }
        head_.clear();
      } else if (c == ';') {
        head_.clear();
      } else {
        head_.push_back(c);
      }
    }
    head_.push_back(' ');  // a line break separates tokens
  }
  [[nodiscard]] bool in_code_block() const noexcept { return code_depth_ > 0; }

 private:
  static bool opens_type_scope(const std::string& head) {
    static const std::regex kTypeKeyword(R"(\b(class|struct|union|enum|namespace)\b)",
                                         std::regex::ECMAScript | std::regex::optimize);
    std::size_t after_keyword = std::string::npos;
    for (auto it = std::sregex_iterator(head.begin(), head.end(), kTypeKeyword);
         it != std::sregex_iterator(); ++it) {
      after_keyword = static_cast<std::size_t>(it->position() + it->length());
    }
    return after_keyword != std::string::npos &&
           head.find('(', after_keyword) == std::string::npos;
  }

  std::vector<bool> open_;  // one per open brace: true = a code block
  std::size_t code_depth_ = 0;
  std::string head_;        // code since the last ; { or }
};

const std::vector<Rule>& rules() {
  static const std::vector<Rule> kRules = [] {
    std::vector<Rule> r;
    const auto flags = std::regex::ECMAScript | std::regex::optimize;
    r.push_back(Rule{
        "nondeterministic-rng",
        "nondeterministic source (unseeded RNG or wall clock); every stochastic path "
        "must derive from an explicit seed (use util::Rng)",
        // `.rand(`/`->rand(` (a member named rand) stay legal; `::rand(`
        // and a bare `rand(` do not. Same shape for time().
        std::regex(R"((^|[^\w.>])rand\s*\(|(^|[^\w.>])srand\s*\(|random_device|)"
                   R"(system_clock\s*::\s*now|high_resolution_clock\s*::\s*now|)"
                   R"((^|[^\w.>])time\s*\(\s*(NULL|nullptr|0)?\s*\))",
                   flags),
        nullptr});
    r.push_back(Rule{
        "index-arithmetic",
        "arithmetic on TaggedId::index() outside topology/ and graph/; the vertex "
        "layout is their private contract — add or use a helper instead",
        std::regex(R"(\.index\s*\(\s*\)\s*[+\-*/%]|[+\-*/%]\s*[\w.]*(\.|->)index\s*\(\s*\))",
                   flags),
        [](std::string_view path) {
          return !path_in_layer(path, "topology") && !path_in_layer(path, "graph");
        }});
    r.push_back(Rule{
        "naked-void",
        "bare discard of a result; use ALVC_IGNORE_STATUS(expr, \"reason\") so the "
        "judgement call is named and reviewable",
        std::regex(R"(\(\s*void\s*\)\s*[\w(:!*&~]|static_cast\s*<\s*void\s*>)", flags),
        nullptr,
        // Throw-assertions need a (void) to satisfy [[nodiscard]], yet the
        // value never materializes — the expression is required to throw.
        {"EXPECT_THROW", "ASSERT_THROW", "EXPECT_ANY_THROW", "ASSERT_ANY_THROW"}});
    r.push_back(Rule{
        "layering-include",
        "layer below the orchestrator includes an orchestrator/ header; dependencies "
        "flow util -> telemetry -> graph -> topology -> cluster -> nfv -> sdn -> orchestrator",
        std::regex(R"(#\s*include\s*"orchestrator/)", flags),
        [](std::string_view path) {
          const std::string_view layer = src_layer(path);
          return layer == "util" || layer == "telemetry" || layer == "graph" ||
                 layer == "topology" || layer == "cluster" || layer == "nfv" || layer == "sdn";
        }});
    r.push_back(Rule{
        "elastic-include",
        "src/ layer includes an elastic/ header; the elastic control loop is the top "
        "of the stack — it drives the orchestrator and is wired in from outside "
        "(tests, benches, the faults tick hook), never included from below",
        std::regex(R"(#\s*include\s*"elastic/)", flags),
        [](std::string_view path) {
          const std::string_view layer = src_layer(path);
          return !layer.empty() && layer != "elastic";
        }});
    r.push_back(Rule{
        "executor-include",
        "src/ layer outside util/ includes util/executor.h; the control plane runs on "
        "one thread — a group build or a scoped sweep costs less than a worker hand-off",
        std::regex(R"(#\s*include\s*"util/executor\.h")", flags),
        [](std::string_view path) {
          const std::string_view layer = src_layer(path);
          return !layer.empty() && layer != "util";
        }});
    r.push_back(Rule{
        "thread-include",
        "src/ layer outside telemetry/ and util/ includes <thread> or <mutex>; the "
        "control plane is single-threaded and its lazy caches are plain members — "
        "only the telemetry sinks and the thread pool synchronize",
        std::regex(R"(#\s*include\s*<\s*(thread|mutex)\s*>)", flags),
        [](std::string_view path) {
          const std::string_view layer = src_layer(path);
          return !layer.empty() && layer != "telemetry" && layer != "util";
        }});
    // The restore pass skips a degraded cluster whose memo no write has
    // listed as stale, and the writes reach the listing only through the
    // pending lists that the DataCenterTopology setters and OpsOwnership's
    // acquire/release keep; a raw write elsewhere would leave a stale memo
    // looking current.
    r.push_back(Rule{
        "footprint-writer",
        "element failure flag, uplink cut flag or pending footprint list written outside "
        "src/topology/topology.cpp; go through the DataCenterTopology setters, which "
        "list the ToRs whose footprint the write changes",
        std::regex(R"((\.|->)\s*failed\s*=([^=]|$)|)"
                   R"((uplink_cut|footprint_pending_)\s*(\[[^\]]*\]\s*=([^=]|$)|=([^=]|$)|)"
                   R"(\.\s*(push_back|emplace_back|insert|erase|assign|resize|clear|swap|fill)\b))",
                   flags),
        [](std::string_view path) {
          return !src_layer(path).empty() &&
                 !path.ends_with("src/topology/topology.cpp");
        }});
    r.push_back(Rule{
        "footprint-writer",
        "OPS owner cell or pending owner list written outside "
        "src/cluster/abstraction_layer.cpp; go through OpsOwnership::acquire/release, "
        "which list every cell they change",
        std::regex(R"((^|\W)owner_\s*(\[[^\]]*\]|\.\s*at\s*\(.*\))\s*=([^=]|$)|)"
                   R"((^|\W)owner_pending_\s*(=([^=]|$)|\.\s*(insert|erase|clear|swap)\b))",
                   flags),
        [](std::string_view path) {
          return !src_layer(path).empty() &&
                 !path.ends_with("src/cluster/abstraction_layer.cpp");
        }});
    // A health flag has one writer each: ClusterManager::set_degraded for a
    // cluster (it keeps the degraded index and the restore pass's wake set)
    // and NetworkOrchestrator::set_chain_health for a chain (it keeps the
    // cause, the stats, the log record and the retry queue). Both writers
    // mark their writes with the rule's allow comment.
    r.push_back(Rule{
        "health-writer",
        "degraded flag or degraded cause written outside its one writer; go through "
        "ClusterManager::set_degraded (clusters) or NetworkOrchestrator::set_chain_health "
        "(chains), which keep the cause, stats, log and retry queue in step",
        std::regex(R"((\.|->)\s*(degraded|degraded_reason)\s*=([^=]|$))", flags),
        [](std::string_view path) { return !src_layer(path).empty(); }});
    r.push_back(Rule{
        "raw-chrono-clock",
        "raw std::chrono clock read outside the telemetry layer; route timing through "
        "telemetry::Tracer (logical or steady mode) or core::Experiment so seeded runs "
        "stay bit-reproducible",
        // steady_clock is the one clock the rng rule leaves legal — it is
        // monotonic, but a raw read still smuggles wall time into results.
        std::regex(R"(steady_clock\s*::\s*now|std\s*::\s*chrono\s*::\s*steady_clock)", flags),
        [](std::string_view path) {
          return !path_in_layer(path, "telemetry") &&
                 path.find("core/experiment.h") == std::string_view::npos;
        }});
    r.push_back(Rule{
        "map-adjacency",
        "node-based map (std::map/std::unordered_map) on a graph/topology hot path; "
        "adjacency and per-vertex state belong in CSR arrays or stamped scratch "
        "(graph/scratch.h) — a hash probe per neighbor visit is what the CSR "
        "refactor removed",
        std::regex(R"(std\s*::\s*unordered_map\s*<|std\s*::\s*map\s*<)", flags),
        [](std::string_view path) {
          return path_in_layer(path, "graph") || path_in_layer(path, "topology");
        }});
    r.push_back(Rule{
        "raw-lock",
        "recursive mutex or naked lock() call outside an RAII guard; hold every "
        "mutex through lock_guard/unique_lock/scoped_lock so alvc_analyze and the "
        "LockRank runtime can see the acquisition (recursive locking hides "
        "re-entrancy the lock-order model cannot rank)",
        // `.lock()` / `->lock()` with an empty argument list is a manual
        // acquisition; `try_lock`/`unlock` and RAII declarations that merely
        // NAME a guard `lock` do not match (the guard name is followed by
        // `(mu_)`, never by an empty call).
        std::regex(R"(std\s*::\s*recursive_mutex|(\.|->)\s*lock\s*\(\s*\))", flags),
        [](std::string_view path) { return !src_layer(path).empty(); }});
    // graph/scratch.h resets in O(1) only when an object is reused; a fresh
    // one allocates and zero-fills arrays sized to the whole switch graph,
    // so a local in a hot path made every call O(fabric).
    r.push_back(Rule{
        "scratch-local",
        "stamped traversal scratch (VertexSet, VertexIndexMap, TraversalScratch, "
        "AlBuildScratch) declared as a function local in src/; a fresh object zero-fills "
        "arrays sized to the whole switch graph on every call — take the owner's "
        "long-lived instance as a parameter (graph/scratch.h reuse contract)",
        std::regex(R"(\b(VertexSet|VertexIndexMap|TraversalScratch|AlBuildScratch)\s+)"
                   R"([A-Za-z_]\w*\s*[;{=(])",
                   flags),
        [](std::string_view path) { return !src_layer(path).empty(); },
        // Static storage is created once, not per call.
        {"static ", "thread_local "},
        /*code_blocks_only=*/true});
    return r;
  }();
  return kRules;
}

bool line_allows(const std::string& raw_line, std::string_view rule) {
  const std::string needle = "alvc-lint: allow(" + std::string(rule) + ")";
  return raw_line.find(needle) != std::string::npos;
}

}  // namespace

std::vector<Finding> lint_source(std::string_view path, std::string_view content) {
  std::vector<Finding> findings;
  ScanState state;
  ScopeTracker scopes;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= content.size()) {
    const std::size_t eol = content.find('\n', pos);
    const std::string raw(content.substr(pos, eol == std::string_view::npos ? std::string_view::npos
                                                                            : eol - pos));
    ++line_no;
    const std::string code = strip_noncode(raw, state);
    const std::size_t first = code.find_first_not_of(" \t");
    const bool preprocessor = first != std::string::npos && code[first] == '#';
    for (const Rule& rule : rules()) {
      if (rule.applies != nullptr && !rule.applies(path)) continue;
      std::smatch match;
      if (!std::regex_search(code, match, rule.pattern)) continue;
      if (line_allows(raw, rule.name)) continue;
      if (rule.code_blocks_only) {
        ScopeTracker at_match = scopes;
        const auto before = static_cast<std::size_t>(match.position());
        at_match.feed(std::string_view(code).substr(0, before));
        if (!at_match.in_code_block()) continue;
      }
      const bool exempt =
          std::any_of(rule.exempt_markers.begin(), rule.exempt_markers.end(),
                      [&](const std::string& m) { return code.find(m) != std::string::npos; });
      if (exempt) continue;
      findings.push_back(Finding{std::string(path), line_no, rule.name, rule.message});
    }
    if (!preprocessor) scopes.feed(code);
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
  }
  return findings;
}

std::string to_string(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": [" + finding.rule + "] " +
         finding.message;
}

}  // namespace alvc::lint
