// qsvlint.hpp — the project-native concurrency-discipline linter.
//
// Generic static analyzers see C++; they do not see libqsv's contracts.
// The invariants that have actually bitten this tree — a raw
// std::this_thread::yield() escaping the chk_hook seam (PR 8's livelock
// bug class), an unjustified memory_order_relaxed in a protocol path, a
// layering leak that lets platform/ include upward — are project rules,
// checkable from token streams without a C++ frontend. qsvlint is a
// lightweight lexer (comment/string-aware, multi-line call grouping)
// plus a table of rules over the lexed lines. No LLVM libraries, no
// compile database: the whole tool builds in well under a second and
// runs over the tree in milliseconds, which is what lets CI and ctest
// carry it with a permanently empty baseline.
//
// The rules (see rules.cpp for the table, DESIGN.md "Static
// discipline" for the rationale):
//   seam             no raw yield/sleep/pause outside src/platform/
//   relaxed-justify  every memory_order_relaxed/consume in src/ and
//                    include/ carries a "// relaxed:" justification
//   implicit-order   no implicit-seq_cst atomic ops in the hot layers
//   layering         the include graph is the documented DAG; chk and
//                    chk_hook stay unreachable from production layers
//   capability       facade types with lock()/unlock() must be
//                    QSV_CAPABILITY-annotated
//   layout           the registered hot structs' layout-audit TU is
//                    generatable and its headers exist
//   cas-recycle      a compare_exchange on a node field outside a retry
//                    loop has an acquire failure order
//
// Findings are machine-readable (to_json/findings_from_json round-trip,
// used by tests and any future dashboard). --baseline suppresses listed
// findings; the committed baseline is empty and the project intends to
// keep it that way — fix the tree, don't suppress it.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace qsvlint {

// --------------------------------------------------------------- findings

struct Finding {
  std::string file;     ///< path relative to the lint root, '/'-separated
  std::size_t line = 0; ///< 1-based
  std::string rule;     ///< rule name from the table
  std::string message;  ///< human-readable diagnosis

  /// Baseline key: everything except the line number, which drifts.
  std::string key() const { return file + "|" + rule + "|" + message; }

  bool operator==(const Finding& o) const {
    return file == o.file && line == o.line && rule == o.rule &&
           message == o.message;
  }
};

/// Serialize findings as the machine-readable "qsvlint/1" JSON document.
std::string findings_to_json(const std::vector<Finding>& findings);

/// Parse a "qsvlint/1" document back. Returns false (leaving `out`
/// untouched) on malformed input — the round-trip is a tested contract.
bool findings_from_json(std::string_view json, std::vector<Finding>& out);

/// Render one finding as the one-line human format "file:line: [rule] msg".
std::string finding_to_text(const Finding& f);

// ----------------------------------------------------------------- lexing

/// One physical line, split into the channels the rules care about.
struct LineInfo {
  std::string raw;      ///< the line as read (no trailing newline)
  std::string code;     ///< comments removed, string/char contents blanked
  std::string comment;  ///< concatenated comment text on this line
  bool comment_only = false;  ///< no code tokens on this line
};

/// Lex a whole file. Handles // and /**/ comments (including spans),
/// string/char literals (contents blanked so tokens inside strings are
/// never matched), and raw string literals.
std::vector<LineInfo> lex(std::string_view content);

// ------------------------------------------------------------------ rules

/// Everything a rule needs about one file.
struct FileContext {
  std::string path;             ///< lint-root-relative, '/'-separated
  const std::vector<LineInfo>* lines = nullptr;
  std::string root;             ///< lint root ("" when linting a buffer)
};

struct Rule {
  const char* name;
  const char* summary;
  /// Does this rule look at `path` at all?
  bool (*applies)(std::string_view path);
  /// Scan one file, appending findings.
  void (*run)(const FileContext& ctx, std::vector<Finding>& out);
};

/// The rule table (fixed order, stable names). CI floors its size so a
/// future refactor cannot silently drop a rule.
const std::vector<Rule>& rules();

/// Lint one in-memory file under its virtual path (fixtures, tests).
/// `only_rules` empty means "all rules".
std::vector<Finding> lint_file(std::string_view virtual_path,
                               std::string_view content,
                               const std::vector<std::string>& only_rules = {});

/// Lint the tree rooted at `root`: every *.hpp/*.cpp/*.h under src/,
/// include/, tests/, and bench/, plus the tree-level rules (layout).
std::vector<Finding> lint_tree(const std::string& root,
                               const std::vector<std::string>& only_rules = {});

// --------------------------------------------------------------- baseline

/// Load a baseline file: one Finding::key() per line; '#' comments and
/// blank lines ignored. Returns false when the file cannot be read.
bool load_baseline(const std::string& path, std::vector<std::string>& keys);

/// Drop findings whose key() appears in `keys`; returns the number
/// suppressed.
std::size_t apply_baseline(std::vector<Finding>& findings,
                           const std::vector<std::string>& keys);

// ----------------------------------------------------------------- layout

/// One registered hot struct for the false-sharing layout audit. The
/// generator emits a static_assert TU from these; the build compiling
/// that TU is the enforcement (an alignment regression is a build
/// failure, not a runtime surprise).
struct LayoutEntry {
  std::string header;  ///< root-relative header that defines the type
  std::string type;    ///< fully qualified type name
  /// static_assert bodies over `T` (spelled literally with the type
  /// name already substituted), e.g. "alignof(T) == 128".
  std::vector<std::string> asserts;
  /// Preprocessor condition the asserts are compiled under ("" for
  /// always), e.g. "QSV_OBS" for fields that exist only with telemetry.
  std::string guard = "";
};

/// The built-in registry: NodeArena node slots, FC publication records,
/// stripe arrays, facade-visible padded slots.
const std::vector<LayoutEntry>& layout_entries();

/// Generate the audit TU text for `entries`.
std::string generate_layout_tu(const std::vector<LayoutEntry>& entries);

/// Validate `entries` against the tree (headers exist, asserts
/// non-empty); appends findings under the "layout" rule.
void check_layout_entries(const std::string& root,
                          const std::vector<LayoutEntry>& entries,
                          std::vector<Finding>& out);

// ------------------------------------------------------------------ layers

/// The documented layer of a path, for the layering rule and its tests:
/// "api-common", "facade", "toolkit", "catalog", "primitives",
/// "platform", "chk", "top", or "" for paths outside the model.
std::string_view layer_of(std::string_view path);

}  // namespace qsvlint
