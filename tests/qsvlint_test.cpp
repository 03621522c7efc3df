// qsvlint_test.cpp — the discipline linter's own discipline: every rule
// has a must-fire and a must-stay-quiet fixture, the findings document
// reads back through the library's JSON reader, and the real tree lints
// clean (the CI zero-finding gate, enforced from ctest too).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "benchreg/emit.hpp"
#include "qsvlint/qsvlint.hpp"

namespace {

namespace fs = std::filesystem;

std::string repo_root() { return QSV_REPO_ROOT; }

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << p;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Same contract as the CLI: the fixture's first line names the path it
/// pretends to live at.
std::string virtual_path_of(const std::string& content) {
  constexpr std::string_view kTag = "// qsvlint-fixture:";
  EXPECT_EQ(content.compare(0, kTag.size(), kTag), 0)
      << "fixture missing the '// qsvlint-fixture: <path>' first line";
  std::size_t end = content.find('\n');
  std::string path = content.substr(kTag.size(), end - kTag.size());
  std::size_t a = path.find_first_not_of(" \t");
  std::size_t b = path.find_last_not_of(" \t\r");
  return path.substr(a, b - a + 1);
}

std::set<std::string> rules_hit(const std::vector<qsvlint::Finding>& fs) {
  std::set<std::string> names;
  for (const auto& f : fs) names.insert(f.rule);
  return names;
}

/// Reads a "qsvlint/1" document back with benchreg's validating parser.
std::vector<qsvlint::Finding> read_back(const std::string& doc) {
  using qsv::benchreg::JsonValue;
  JsonValue root;
  std::string error;
  EXPECT_TRUE(qsv::benchreg::json_parse(doc, root, &error)) << error;
  const JsonValue* version = root.find("version");
  EXPECT_TRUE(version != nullptr && version->string == "qsvlint/1");
  const JsonValue* findings = root.find("findings");
  EXPECT_TRUE(findings != nullptr &&
              findings->kind == JsonValue::Kind::kArray);
  std::vector<qsvlint::Finding> out;
  if (findings == nullptr) return out;
  for (const JsonValue& f : findings->array) {
    const JsonValue* file = f.find("file");
    const JsonValue* line = f.find("line");
    const JsonValue* rule = f.find("rule");
    const JsonValue* message = f.find("message");
    EXPECT_TRUE(file && line && rule && message) << doc;
    if (!(file && line && rule && message)) continue;
    out.push_back({file->string, static_cast<std::size_t>(line->number),
                   rule->string, message->string});
  }
  return out;
}

// ----------------------------------------------------------------- lexer

TEST(QsvlintLexer, CommentsAndStringsAreSeparated) {
  const auto lines = qsvlint::lex(
      "int a; // trailing note\n"
      "/* block */ int b;\n"
      "const char* s = \"this_thread::yield inside a string\";\n"
      "// only a comment\n");
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[0].code.find("int a;"), std::string::npos);
  EXPECT_EQ(lines[0].code.find("trailing"), std::string::npos);
  EXPECT_NE(lines[0].comment.find("trailing note"), std::string::npos);
  EXPECT_NE(lines[1].code.find("int b;"), std::string::npos);
  EXPECT_EQ(lines[1].code.find("block"), std::string::npos);
  // String contents are blanked: rule tokens inside never match.
  EXPECT_EQ(lines[2].code.find("yield"), std::string::npos);
  EXPECT_TRUE(lines[3].comment_only);
}

TEST(QsvlintLexer, MultiLineBlockCommentKeepsState) {
  const auto lines = qsvlint::lex(
      "/* spans\n"
      "   sched_yield still commented\n"
      "*/ int after;\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[1].code.find("sched_yield"), std::string::npos);
  EXPECT_TRUE(lines[1].comment_only);
  EXPECT_NE(lines[2].code.find("int after;"), std::string::npos);
}

TEST(QsvlintLexer, RawStringsAreBlanked) {
  const auto lines = qsvlint::lex(
      "auto s = R\"(this_thread::yield)\"; int z;\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].code.find("yield"), std::string::npos);
  EXPECT_NE(lines[0].code.find("int z;"), std::string::npos);
}

// -------------------------------------------------------- fixture corpus

/// Every rule in the table has a directory under tools/qsvlint/fixtures/
/// (and every directory names a rule) holding fire_* and quiet_*
/// fixtures; fire_* must produce at least one finding OF THAT RULE,
/// quiet_* must produce zero findings of ANY rule (so fixtures double as
/// cross-rule false-positive probes).
TEST(QsvlintFixtures, EveryRuleHasAFiringAndAQuietCorpus) {
  const fs::path dir = fs::path(repo_root()) / "tools/qsvlint/fixtures";
  ASSERT_TRUE(fs::exists(dir));
  std::set<std::string> rule_names, corpora;
  for (const auto& r : qsvlint::rules()) rule_names.insert(r.name);
  for (const auto& rule_entry : fs::directory_iterator(dir)) {
    if (!rule_entry.is_directory()) continue;
    const std::string rule = rule_entry.path().filename().string();
    corpora.insert(rule);
    bool saw_fire = false, saw_quiet = false;
    for (const auto& f : fs::directory_iterator(rule_entry.path())) {
      const std::string name = f.path().filename().string();
      const std::string content = read_file(f.path());
      const std::string vpath = virtual_path_of(content);
      const auto findings = qsvlint::lint_file(vpath, content);
      if (name.rfind("fire_", 0) == 0) {
        saw_fire = true;
        EXPECT_TRUE(rules_hit(findings).count(rule))
            << name << " must fire rule '" << rule << "'";
      } else if (name.rfind("quiet_", 0) == 0) {
        saw_quiet = true;
        EXPECT_TRUE(findings.empty())
            << name << " must stay quiet, got: "
            << (findings.empty() ? ""
                                 : qsvlint::finding_to_text(findings[0]));
      } else {
        ADD_FAILURE() << "fixture " << name
                      << " must be named fire_* or quiet_*";
      }
    }
    EXPECT_TRUE(saw_fire) << "rule '" << rule << "' has no fire_* fixture";
    EXPECT_TRUE(saw_quiet) << "rule '" << rule
                           << "' has no quiet_* fixture";
  }
  EXPECT_EQ(corpora, rule_names);
}

/// PR 8's bug class, re-seeded synthetically: a raw yield in a
/// primitive layer must be caught by the seam rule.
TEST(QsvlintSeam, RedetectsTheRawYieldBugClass) {
  const auto findings = qsvlint::lint_file(
      "src/combining/fc_executor.hpp",
      "void combine_wait() {\n"
      "  while (busy()) { std::this_thread::yield(); }\n"
      "}\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "seam");
  EXPECT_EQ(findings[0].line, 2u);
}

/// cas-recycle judges the node a CAS operates on: a lock-word CAS whose
/// failure recycles the caller's own unpublished node (QsvMutex's
/// try_lock) is quiet, while a relaxed-failure CAS on a node field
/// outside a retry loop fires, on the CAS's own line, whichever way the
/// order is spelled (`memory_order::relaxed` here, the fixtures use
/// `memory_order_relaxed`).
TEST(QsvlintCasRecycle, JudgesTheNodeTheCasOperatesOn) {
  const std::string lock_word =
      "bool try_lock(Node* n) {\n"
      "  Node* expected = nullptr;\n"
      "  // relaxed: failure order — n was never published.\n"
      "  if (var_.compare_exchange_strong(expected, n,\n"
      "                                   std::memory_order_acq_rel,\n"
      "                                   std::memory_order_relaxed)) {\n"
      "    return true;\n"
      "  }\n"
      "  Arena::instance().release(n);\n"
      "  return false;\n"
      "}\n";
  EXPECT_TRUE(qsvlint::lint_file("src/core/lock.hpp", lock_word,
                                 {"cas-recycle"})
                  .empty());
  const auto findings = qsvlint::lint_file(
      "src/core/node.hpp",
      "void take(Node* n) {\n"
      "  std::uint32_t expected = 0;\n"
      "  n->state.compare_exchange_strong(expected, 1,\n"
      "                                   std::memory_order_acq_rel,\n"
      "                                   std::memory_order::relaxed);\n"
      "  use(n);\n"
      "}\n",
      {"cas-recycle"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3u);
}

/// The same wait inside src/platform/ is the seam itself — no finding.
TEST(QsvlintSeam, PlatformLayerOwnsTheRawWaits) {
  const auto findings = qsvlint::lint_file(
      "src/platform/arch.hpp",
      "inline void thread_yield() { std::this_thread::yield(); }\n");
  EXPECT_TRUE(findings.empty());
}

// -------------------------------------------------------- findings format

TEST(QsvlintFindings, JsonRoundTripIsExact) {
  const std::vector<qsvlint::Finding> in = {
      {"src/core/a.hpp", 12, "seam", "raw yield"},
      {"include/qsv/b.hpp", 3, "capability",
       "quote \" backslash \\ newline \n tab \t bell \x07 done"},
  };
  const std::vector<qsvlint::Finding> out =
      read_back(qsvlint::findings_to_json(in));
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].file, in[i].file);
    EXPECT_EQ(out[i].line, in[i].line);
    EXPECT_EQ(out[i].rule, in[i].rule);
    EXPECT_EQ(out[i].message, in[i].message);
  }
}

TEST(QsvlintFindings, EmptyDocumentRoundTrips) {
  EXPECT_TRUE(read_back(qsvlint::findings_to_json({})).empty());
}

TEST(QsvlintFindings, TextFormatIsStable) {
  EXPECT_EQ(qsvlint::finding_to_text({"src/a.hpp", 7, "seam", "msg"}),
            "src/a.hpp:7: [seam] msg");
}

// ------------------------------------------------------------------ rules

TEST(QsvlintRules, TableIsCompleteAndStable) {
  const auto& rules = qsvlint::rules();
  ASSERT_GE(rules.size(), 6u);
  std::set<std::string> names;
  for (const auto& r : rules) names.insert(r.name);
  for (const char* expect :
       {"seam", "relaxed-justify", "implicit-order", "layering",
        "capability", "cas-recycle"}) {
    EXPECT_TRUE(names.count(expect)) << "rule missing: " << expect;
  }
}

TEST(QsvlintRules, LayerModelMatchesTheDocumentedDag) {
  EXPECT_EQ(qsvlint::layer_of("src/platform/arch.hpp"), "platform");
  EXPECT_EQ(qsvlint::layer_of("src/core/qsv_mutex.hpp"), "primitives");
  EXPECT_EQ(qsvlint::layer_of("src/catalog/catalog.hpp"), "catalog");
  EXPECT_EQ(qsvlint::layer_of("include/qsv/mutex.hpp"), "facade");
  EXPECT_EQ(qsvlint::layer_of("src/chk/explorer.hpp"), "chk");
  EXPECT_EQ(qsvlint::layer_of("tests/locks_test.cpp"), "top");
  EXPECT_EQ(qsvlint::layer_of("include/qsv/wait.hpp"), "api-common");
}

// ------------------------------------------------------------ the CI gate

/// The whole point: the real tree lints clean. This is the same check
/// CI runs via the qsvlint binary; duplicating it here means a plain
/// `ctest` run enforces the discipline even without the CI harness.
TEST(QsvlintTree, RepositoryLintsClean) {
  const auto findings = qsvlint::lint_tree(repo_root());
  std::string dump;
  for (const auto& f : findings) {
    dump += qsvlint::finding_to_text(f) + "\n";
  }
  EXPECT_TRUE(findings.empty()) << "tree has lint findings:\n" << dump;
}

}  // namespace
