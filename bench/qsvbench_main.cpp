// qsvbench — the one benchmark driver for the whole evaluation suite.
//
// Every reconstructed figure/table/ablation registers itself as a
// scenario (src/benchreg/); this binary enumerates scenarios ×
// registered algorithms, runs whatever --filter selects, prints
// markdown to stdout, and writes the machine-readable BENCH_*.json
// trajectory artifacts that CI uploads on every PR.
//
//   qsvbench --list                          catalogue with titles
//   qsvbench --filter rw_ratio --out BENCH_rw_ratio.json
//   qsvbench --filter fig1,abl6 --threads 8 --budget-ms 100
//   qsvbench --filter uncontended --reps 5 --out BENCH_uncontended.json
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "benchreg/emit.hpp"
#include "benchreg/registry.hpp"
#include "catalog/catalog.hpp"
#include "core/qsv_mutex.hpp"
#include "hier/cohort_map.hpp"
#include "platform/affinity.hpp"
#include "platform/topology.hpp"
#include "qsv/cohort_mutex.hpp"
#include "qsv/introspect.hpp"
#include "qsv/wait.hpp"

namespace {

void print_usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: qsvbench [options]\n"
      "  --list            show the scenario catalogue and exit\n"
      "  --list-names      show scenario names only, one per line\n"
      "  --catalog         show the primitive catalogue (name, family,\n"
      "                    capabilities, wait modes, bytes) and exit\n"
      "  --catalog-names   show primitive names only, one per line\n"
      "  --topology        dump the discovered machine topology (packages,\n"
      "                    NUMA nodes, cpus, thread->cohort map) and exit\n"
      "  --filter PAT      comma-separated list; each entry matches a\n"
      "                    scenario id (fig8), exact name, or name\n"
      "                    substring. default: run everything\n"
      "  --threads N       cap/override team sizes (default: scenario)\n"
      "  --reps N          repetitions for rep-based kernels (default 3)\n"
      "  --budget-ms MS    time budget per measurement (default: scenario)\n"
      "  --algo SUB        only run registry algorithms whose name\n"
      "                    contains SUB (scenarios that sweep a registry)\n"
      "  --wait POLICY     add a wait policy to the --wait sweep axis\n"
      "                    (spin|yield|park|adaptive; repeatable). Used\n"
      "                    by policy-sweeping scenarios (abl1); default:\n"
      "                    all four\n"
      "  --out FILE        write the run as qsvbench/v1 JSON\n"
      "  --md FILE         write the markdown report to FILE\n"
      "  --json            print JSON to stdout instead of markdown\n"
      "  --introspect[=PORT]\n"
      "                    serve the live introspection endpoint on\n"
      "                    127.0.0.1 (default: ephemeral port) over a\n"
      "                    demo workload of named locks; runs until a\n"
      "                    client sends `shutdown` (protocol:\n"
      "                    docs/INTROSPECTION.md)\n"
      "  --help            this text\n");
}

[[noreturn]] void die_usage(const std::string& why) {
  std::fprintf(stderr, "qsvbench: %s\n", why.c_str());
  print_usage(stderr);
  std::exit(2);
}

/// Accepts both --flag=value and --flag value.
class Cli {
 public:
  Cli(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  bool take_flag(const char* name) {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (args_[i] == std::string("--") + name) {
        args_.erase(args_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  bool take_value(const char* name, std::string& out) {
    const std::string eq = std::string("--") + name + "=";
    const std::string bare = std::string("--") + name;
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (args_[i].rfind(eq, 0) == 0) {
        out = args_[i].substr(eq.size());
        args_.erase(args_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
      if (args_[i] == bare) {
        if (i + 1 >= args_.size()) die_usage("missing value for " + bare);
        out = args_[i + 1];
        args_.erase(args_.begin() + static_cast<std::ptrdiff_t>(i),
                    args_.begin() + static_cast<std::ptrdiff_t>(i + 2));
        return true;
      }
    }
    return false;
  }

  const std::vector<std::string>& leftovers() const { return args_; }

 private:
  std::vector<std::string> args_;
};

std::uint64_t parse_u64(const std::string& flag, const std::string& value) {
  // strtoull would silently wrap "-1" to 2^64-1; digits only.
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    die_usage("bad numeric value for --" + flag + ": '" + value + "'");
  }
  char* end = nullptr;
  const auto v = std::strtoull(value.c_str(), &end, 10);
  if (*end != '\0') {
    die_usage("bad numeric value for --" + flag + ": '" + value + "'");
  }
  return v;
}

double parse_double(const std::string& flag, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    die_usage("bad numeric value for --" + flag + ": '" + value + "'");
  }
  return v;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "qsvbench: cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

/// `qsvbench --introspect`: serve the live endpoint over a demo
/// workload of named locks until a client issues `shutdown`. The
/// workload sleeps far more than it locks, so an attached process
/// idles near zero CPU while still showing moving counters (and real
/// contended waits on `ledger`) to list/stat/stream clients.
int run_introspect(std::uint16_t port) {
  const std::uint16_t bound = qsv::introspect::serve(port);
  if (bound == 0) {
    std::fprintf(stderr,
                 "qsvbench: cannot bind introspection endpoint on port %u\n",
                 port);
    return 1;
  }
  qsv::core::QsvMutex ledger;
  qsv::cohort_mutex journal;
  qsv::introspect::set_name(&ledger, "ledger");
  qsv::introspect::set_name(&journal, "journal");

  // Machine-greppable banner: tests and scripts parse the port from
  // it. Printed only after the demo locks are registered and named, so
  // a client that connects on seeing it always finds them in `list`.
  std::printf("introspect: listening on 127.0.0.1:%u\n", bound);
  std::fflush(stdout);

  std::atomic<bool> stop{false};
  std::vector<std::thread> crew;
  for (int i = 0; i < 3; ++i) {
    crew.emplace_back([&] {
      // relaxed: demo-shutdown flag; no data is published under it.
      while (!stop.load(std::memory_order_relaxed)) {
        ledger.lock();
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        ledger.unlock();
        journal.lock();
        journal.unlock();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }
  while (qsv::introspect::serving() &&
         !qsv::obs::introspect_shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  stop.store(true, std::memory_order_relaxed);  // relaxed: as above
  for (auto& t : crew) t.join();
  qsv::introspect::stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  if (cli.take_flag("help")) {
    print_usage(stdout);
    return 0;
  }

  const bool list = cli.take_flag("list");
  const bool list_names = cli.take_flag("list-names");
  const bool catalog = cli.take_flag("catalog");
  const bool catalog_names = cli.take_flag("catalog-names");
  const bool topology = cli.take_flag("topology");
  const bool json_stdout = cli.take_flag("json");
  std::string filter, out_path, md_path, value;

  cli.take_value("filter", filter);
  cli.take_value("out", out_path);
  cli.take_value("md", md_path);

  qsv::benchreg::Params params;
  if (cli.take_value("threads", value)) {
    params.threads = parse_u64("threads", value);
  }
  if (cli.take_value("reps", value)) {
    params.reps = parse_u64("reps", value);
    if (params.reps == 0) die_usage("--reps must be >= 1");
  }
  if (cli.take_value("budget-ms", value)) {
    params.budget_ms = parse_double("budget-ms", value);
    if (params.budget_ms <= 0.0) die_usage("--budget-ms must be > 0");
  }
  cli.take_value("algo", params.algo_filter);
  while (cli.take_value("wait", value)) {
    qsv::wait_policy p;
    if (!qsv::wait_policy_from_string(value, p)) {
      die_usage("bad --wait policy '" + value +
                "' (want spin|spin_yield|park|adaptive)");
    }
    params.wait_policies.push_back(p);
  }

  bool introspect_mode = cli.take_flag("introspect");
  std::uint16_t introspect_port = 0;
  if (!introspect_mode && cli.take_value("introspect", value)) {
    introspect_mode = true;
    const auto p = parse_u64("introspect", value);
    if (p > 65535) die_usage("--introspect port must be 0..65535 (0 = ephemeral)");
    introspect_port = static_cast<std::uint16_t>(p);
  }

  if (!cli.leftovers().empty()) {
    die_usage("unknown argument '" + cli.leftovers().front() + "'");
  }

  if (introspect_mode) return run_introspect(introspect_port);

  if (topology) {
    const auto& topo = qsv::platform::topology();
    std::printf("topology: %zu package%s, %zu node%s, %zu cpus%s\n",
                topo.package_count(), topo.package_count() == 1 ? "" : "s",
                topo.node_count(), topo.node_count() == 1 ? "" : "s",
                topo.cpu_count(),
                topo.is_fallback() ? " (single-node fallback)" : " (sysfs)");
    for (const auto& node : topo.nodes()) {
      std::string cpus;
      for (int c : node.cpus) {
        if (!cpus.empty()) cpus += ',';
        cpus += std::to_string(c);
      }
      std::printf("  node %zu (sysfs node%d, package %d): cpus %s\n",
                  node.id, node.sysfs_id, node.package, cpus.c_str());
    }
    // The production cohort assignment for the first few dense thread
    // indices (round-robin placement through the allowed-cpu set).
    const qsv::hier::TopologyCohortMap map(topo);
    const std::size_t preview =
        std::min<std::size_t>(16, 2 * qsv::platform::available_cpus());
    std::string line;
    for (std::size_t i = 0; i < preview; ++i) {
      if (!line.empty()) line += ' ';
      line += std::to_string(map.cohort_of(i));
    }
    std::printf("  thread index -> cohort (first %zu): %s\n", preview,
                line.c_str());
    return 0;
  }

  if (catalog || catalog_names) {
    for (const auto& e : qsv::catalog::all()) {
      if (catalog_names) {
        std::printf("%s\n", e.name.c_str());
        continue;
      }
      std::string caps;
      const auto tag = [&](std::uint32_t bit, const char* word) {
        if (!e.has(bit)) return;
        if (!caps.empty()) caps += '+';
        caps += word;
      };
      tag(qsv::catalog::kExclusive, "excl");
      tag(qsv::catalog::kTry, "try");
      tag(qsv::catalog::kShared, "shared");
      tag(qsv::catalog::kTimed, "timed");
      tag(qsv::catalog::kEpisode, "episode");
      tag(qsv::catalog::kEventCount, "eventcount");
      tag(qsv::catalog::kCohort, "cohort");
      tag(qsv::catalog::kCombining, "combining");
      tag(qsv::catalog::kQueue, "queue");
      tag(qsv::catalog::kMap, "map");
      tag(qsv::catalog::kAccumulator, "acc");
      // Wait modes collapse to one tag: entries are either fully
      // runtime-configurable or hardwired.
      std::string waits = e.has(qsv::catalog::kWaitModeMask)
                              ? "spin|yield|park|adaptive"
                              : "-";
      std::printf("%-24s %-10s %-24s %-24s %zu\n", e.name.c_str(),
                  qsv::catalog::family_name(e.family), caps.c_str(),
                  waits.c_str(), e.footprint);
    }
    return 0;
  }

  const auto scenarios = qsv::benchreg::sorted_scenarios();
  if (list || list_names) {
    for (const auto* s : scenarios) {
      if (!qsv::benchreg::matches_filter(*s, filter)) continue;
      if (list_names) {
        std::printf("%s\n", s->name.c_str());
      } else {
        std::printf("%-8s %-18s %-9s %s\n", s->id.c_str(), s->name.c_str(),
                    qsv::benchreg::kind_name(s->kind), s->title.c_str());
      }
    }
    return 0;
  }

  std::vector<const qsv::benchreg::Scenario*> selected;
  for (const auto* s : scenarios) {
    if (qsv::benchreg::matches_filter(*s, filter)) selected.push_back(s);
  }
  if (selected.empty()) {
    std::fprintf(stderr, "qsvbench: --filter '%s' matches no scenario\n",
                 filter.c_str());
    return 2;
  }

  qsv::benchreg::RunOutput output;
  output.params = params;
  bool all_ok = true;
  for (const auto* s : selected) {
    std::fprintf(stderr, "qsvbench: running %s (%s)...\n", s->name.c_str(),
                 s->id.c_str());
    qsv::benchreg::ScenarioRun run;
    run.scenario = s;
    run.report = s->run(params);
    if (!run.report.ok) {
      std::fprintf(stderr, "qsvbench: %s FAILED: %s\n", s->name.c_str(),
                   run.report.error.c_str());
      all_ok = false;
    }
    output.runs.push_back(std::move(run));
  }

  const std::string markdown = qsv::benchreg::to_markdown(output);
  const std::string json = qsv::benchreg::to_json(output);
  std::string parse_error;
  if (!qsv::benchreg::json_valid(json, &parse_error)) {
    // Emitter bug: never ship an artifact our own parser rejects.
    std::fprintf(stderr, "qsvbench: internal JSON emitter error: %s\n",
                 parse_error.c_str());
    return 1;
  }

  std::fputs(json_stdout ? json.c_str() : markdown.c_str(), stdout);
  if (!out_path.empty()) {
    if (!write_file(out_path, json)) return 1;
    std::fprintf(stderr, "qsvbench: wrote %s\n", out_path.c_str());
  }
  if (!md_path.empty()) {
    if (!write_file(md_path, markdown)) return 1;
    std::fprintf(stderr, "qsvbench: wrote %s\n", md_path.c_str());
  }
  return all_ok ? 0 : 1;
}
