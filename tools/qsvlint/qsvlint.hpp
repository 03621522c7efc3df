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
// fail on any finding.
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
//   cas-recycle      a compare_exchange on a node field outside a retry
//                    loop has an acquire failure order
//
// Findings are machine-readable (`--json`, a "qsvlint/1" document). There
// is no suppression list: a finding is fixed in the tree.
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
};

/// Serialize findings as the machine-readable "qsvlint/1" JSON document.
std::string findings_to_json(const std::vector<Finding>& findings);

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
/// include/, tests/, and bench/.
std::vector<Finding> lint_tree(const std::string& root,
                               const std::vector<std::string>& only_rules = {});

// ------------------------------------------------------------------ layers

/// The documented layer of a path, for the layering rule and its tests:
/// "api-common", "facade", "toolkit", "catalog", "primitives",
/// "platform", "chk", "top", or "" for paths outside the model.
std::string_view layer_of(std::string_view path);

}  // namespace qsvlint
