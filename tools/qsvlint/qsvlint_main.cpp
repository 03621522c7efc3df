// qsvlint_main.cpp — CLI for the project-native discipline linter.
//
//   qsvlint [--root DIR] [--json] [--rule NAME]...
//   qsvlint --list-rules
//   qsvlint --fixture FILE...
//
// Exit codes: 0 clean, 1 findings, 2 usage/IO error. CI and ctest run
// the tree mode; the fixture mode lints a single file under the virtual
// path named by its first-line `// qsvlint-fixture: <path>` directive,
// which is how the must-fire corpus is replayed without planting
// violations in the real tree.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "qsvlint/qsvlint.hpp"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: qsvlint [--root DIR] [--json] [--rule NAME]...\n"
      "       qsvlint --list-rules | --fixture FILE...\n");
  return 2;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

/// A fixture's first line names the path it pretends to live at.
bool fixture_virtual_path(const std::string& content, std::string& out) {
  static constexpr std::string_view kTag = "// qsvlint-fixture:";
  if (content.compare(0, kTag.size(), kTag) != 0) return false;
  std::size_t end = content.find('\n');
  std::string path = content.substr(
      kTag.size(), end == std::string::npos ? std::string::npos
                                            : end - kTag.size());
  std::size_t a = path.find_first_not_of(" \t");
  std::size_t b = path.find_last_not_of(" \t\r");
  if (a == std::string::npos) return false;
  out = path.substr(a, b - a + 1);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::vector<std::string> only_rules;
  std::vector<std::string> fixtures;
  bool json = false;
  bool list_rules = false;

  for (int i = 1; i < argc; ++i) {
    std::string_view a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--root") {
      const char* v = next();
      if (!v) return usage();
      root = v;
    } else if (a == "--rule") {
      const char* v = next();
      if (!v) return usage();
      only_rules.push_back(v);
    } else if (a == "--fixture") {
      const char* v = next();
      if (!v) return usage();
      fixtures.push_back(v);
    } else if (a == "--json") {
      json = true;
    } else if (a == "--list-rules") {
      list_rules = true;
    } else if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "qsvlint: unknown argument '%s'\n", argv[i]);
      return usage();
    }
  }

  if (list_rules) {
    for (const qsvlint::Rule& r : qsvlint::rules()) {
      std::printf("%-16s %s\n", r.name, r.summary);
    }
    return 0;
  }

  std::vector<qsvlint::Finding> findings;
  if (!fixtures.empty()) {
    for (const std::string& f : fixtures) {
      std::string content;
      if (!read_file(f, content)) {
        std::fprintf(stderr, "qsvlint: cannot read fixture '%s'\n",
                     f.c_str());
        return 2;
      }
      std::string vpath;
      if (!fixture_virtual_path(content, vpath)) {
        std::fprintf(stderr,
                     "qsvlint: fixture '%s' has no '// qsvlint-fixture: "
                     "<path>' first line\n",
                     f.c_str());
        return 2;
      }
      for (qsvlint::Finding fd :
           qsvlint::lint_file(vpath, content, only_rules)) {
        fd.file = f + " (as " + fd.file + ")";
        findings.push_back(std::move(fd));
      }
    }
  } else {
    findings = qsvlint::lint_tree(root, only_rules);
  }

  if (json) {
    const std::string doc = qsvlint::findings_to_json(findings);
    std::fwrite(doc.data(), 1, doc.size(), stdout);
  } else {
    for (const qsvlint::Finding& f : findings) {
      std::printf("%s\n", qsvlint::finding_to_text(f).c_str());
    }
    std::fprintf(stderr, "qsvlint: %zu finding(s), %zu rules\n",
                 findings.size(), qsvlint::rules().size());
  }
  return findings.empty() ? 0 : 1;
}
