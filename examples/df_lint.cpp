// df_lint: standalone static analyzer for textual DSL programs.
//
//   ./examples/df_lint [--device <id>] [--json <path>] [--quiet]
//                      <file-or-dir>...
//
// Lints every *.dsl file (directories are scanned non-recursively) against
// the named device's call table: resource lifetimes (use-after-close,
// dangling refs), ioctl argument types/widths, and dead statements. Also
// prints the reachability planner's view of each driver's declared state
// graph — which states a fresh campaign has not visited and the shortest
// ioctl plan that would reach them. --json writes a machine-readable report
// (validated by scripts/check_bench_json.py). Exit code is 0 even when
// findings exist; only usage/IO errors are fatal.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/dataflow.h"
#include "analysis/reachability.h"
#include "analysis/semantic.h"
#include "core/descriptions.h"
#include "device/catalog.h"
#include "dsl/parse.h"
#include "obs/json.h"
#include "util/log.h"

namespace {

struct FileReport {
  std::string path;
  size_t calls = 0;
  std::string parse_error;
  df::analysis::LintReport report;
  bool repairable = false;
  // Dataflow facts (analysis/dataflow.h): argument classification against
  // the device's declared transition guards, handle-lifetime lattice, and
  // after-close uses.
  size_t guard_args = 0;
  size_t shape_args = 0;
  size_t dead_args = 0;
  size_t live = 0;
  size_t closed = 0;
  size_t leaked = 0;
  size_t stale_uses = 0;
};

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  df::util::init_log_from_env();
  std::string device_id = "A1";
  std::string json_path;
  bool quiet = false;
  std::vector<std::string> inputs;
  const auto flag_value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s requires a value\n", flag);
      std::exit(1);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--device") == 0) {
      device_id = flag_value(i, "--device");
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_path = flag_value(i, "--json");
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else {
      inputs.emplace_back(argv[i]);
    }
  }
  if (inputs.empty()) {
    std::fprintf(stderr,
                 "usage: %s [--device <id>] [--json <path>] [--quiet] "
                 "<file-or-dir>...\n",
                 argv[0]);
    return 1;
  }

  auto dev = df::device::make_device(device_id, /*seed=*/1);
  if (dev == nullptr) {
    std::fprintf(stderr, "unknown device '%s'\n", device_id.c_str());
    return 1;
  }
  df::dsl::CallTable table;
  df::core::add_syscall_descriptions(table, *dev);
  df::analysis::GuardIndex guards;
  for (const auto& drv : dev->kernel().drivers()) guards.add_driver(*drv);

  // Expand directories into their *.dsl files, sorted for stable output.
  std::vector<std::string> files;
  for (const std::string& in : inputs) {
    std::error_code ec;
    if (std::filesystem::is_directory(in, ec)) {
      std::vector<std::string> found;
      for (const auto& entry : std::filesystem::directory_iterator(in, ec)) {
        if (entry.is_regular_file() && entry.path().extension() == ".dsl") {
          found.push_back(entry.path().string());
        }
      }
      std::sort(found.begin(), found.end());
      files.insert(files.end(), found.begin(), found.end());
    } else {
      files.push_back(in);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "no .dsl files found\n");
    return 1;
  }

  const df::analysis::ProgramLint lint;
  std::vector<FileReport> reports;
  size_t programs = 0;
  size_t total_findings = 0;
  size_t total_errors = 0;
  size_t total_warnings = 0;
  size_t rejected = 0;   // programs with errors no repair could fix
  size_t repaired = 0;   // programs with errors that repair() fixed
  for (const std::string& path : files) {
    FileReport fr;
    fr.path = path;
    std::string text;
    if (!read_file(path, text)) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return 1;
    }
    std::string err;
    auto prog = df::dsl::parse_program(text, table, &err);
    if (!prog.has_value()) {
      fr.parse_error = err;
    } else {
      ++programs;
      fr.calls = prog->calls.size();
      fr.report = lint.analyze(*prog);
      total_findings += fr.report.findings.size();
      total_errors += fr.report.errors();
      total_warnings += fr.report.warnings();
      if (fr.report.errors() > 0) {
        df::dsl::Program fixed = df::dsl::clone(*prog);
        lint.repair(fixed);
        fr.repairable = lint.clean(fixed);
        if (fr.repairable) {
          ++repaired;
        } else {
          ++rejected;
        }
      }
      const df::analysis::ProgramDataflow flow(*prog);
      fr.stale_uses = flow.stale_use_count();
      for (const auto& def : flow.defs()) {
        switch (def.end_state) {
          case df::analysis::Lifetime::kLive: ++fr.live; break;
          case df::analysis::Lifetime::kClosed: ++fr.closed; break;
          case df::analysis::Lifetime::kLeaked: ++fr.leaked; break;
          case df::analysis::Lifetime::kUnknown: break;
        }
      }
      for (const auto& c : prog->calls) {
        if (c.desc == nullptr) continue;
        for (size_t a = 0; a < c.desc->params.size(); ++a) {
          switch (guards.classify_arg(*c.desc, a)) {
            case df::analysis::ArgClass::kGuardRelevant:
              ++fr.guard_args;
              break;
            case df::analysis::ArgClass::kShapeRelevant:
              ++fr.shape_args;
              break;
            case df::analysis::ArgClass::kDead:
              ++fr.dead_args;
              break;
          }
        }
      }
    }
    reports.push_back(std::move(fr));
  }

  if (!quiet) {
    for (const FileReport& fr : reports) {
      if (!fr.parse_error.empty()) {
        std::printf("%s: parse error: %s\n", fr.path.c_str(),
                    fr.parse_error.c_str());
        continue;
      }
      std::printf("%s: %zu calls, %zu findings%s\n", fr.path.c_str(),
                  fr.calls, fr.report.findings.size(),
                  fr.report.errors() > 0
                      ? (fr.repairable ? " (repairable)" : " (rejected)")
                      : "");
      for (const auto& f : fr.report.findings) {
        std::printf("  [%s] %s: call #%zu: %s\n",
                    std::string(severity_name(f.severity)).c_str(),
                    std::string(pass_name(f.pass)).c_str(), f.call,
                    f.message.c_str());
      }
      if (fr.parse_error.empty() && fr.calls > 0) {
        std::printf("  dataflow: args %zu guard / %zu shape / %zu dead; "
                    "handles %zu live / %zu closed / %zu leaked; "
                    "%zu stale uses\n",
                    fr.guard_args, fr.shape_args, fr.dead_args, fr.live,
                    fr.closed, fr.leaked, fr.stale_uses);
      }
    }
    std::printf("summary: %zu files, %zu programs, %zu findings "
                "(%zu errors, %zu warnings), %zu repaired, %zu rejected\n",
                reports.size(), programs, total_findings, total_errors,
                total_warnings, repaired, rejected);
  }

  // Planner diagnostics: every driver's declared state graph, from the
  // perspective of a campaign that has executed nothing yet.
  struct DriverPlans {
    std::string driver;
    std::vector<std::string> states;
    std::vector<df::analysis::StatePlan> plans;
  };
  std::vector<DriverPlans> planner_out;
  for (const auto& drv : dev->kernel().drivers()) {
    df::analysis::StateGraph g = df::analysis::graph_of(*drv);
    if (g.empty()) continue;
    DriverPlans dp;
    dp.driver = g.driver;
    dp.states = g.states;
    const df::analysis::ReachabilityPlanner planner(std::move(g));
    dp.plans = planner.plans();
    planner_out.push_back(std::move(dp));
  }
  if (!quiet) {
    for (const DriverPlans& dp : planner_out) {
      std::printf("planner: %s (%zu states)\n", dp.driver.c_str(),
                  dp.states.size());
      for (const auto& p : dp.plans) {
        if (!p.reachable) {
          std::printf("  %s: UNREACHABLE from declared graph\n",
                      p.state_name.c_str());
          continue;
        }
        std::printf("  %s: %zu calls", p.state_name.c_str(), p.steps.size());
        for (const auto& step : p.steps) {
          std::printf(" %s", step.call.c_str());
        }
        std::printf("\n");
      }
    }
  }

  if (!json_path.empty()) {
    df::obs::JsonWriter w;
    w.begin_object().key("lint").begin_object();
    w.field("tool", "df_lint").field("device", device_id);
    w.key("files").begin_array();
    for (const FileReport& fr : reports) {
      w.begin_object()
          .field("path", fr.path)
          .field("calls", static_cast<uint64_t>(fr.calls))
          .field("parse_error", fr.parse_error);
      w.key("findings").begin_array();
      for (const auto& f : fr.report.findings) {
        w.begin_object()
            .field("pass", pass_name(f.pass))
            .field("severity", severity_name(f.severity))
            .field("call", static_cast<uint64_t>(f.call))
            .field("arg", f.arg == df::analysis::Finding::kNoArg
                              ? static_cast<int64_t>(-1)
                              : static_cast<int64_t>(f.arg))
            .field("message", f.message)
            .end_object();
      }
      w.end_array();
      w.key("dataflow").begin_object();
      w.key("arg_classes")
          .begin_object()
          .field("guard_relevant", static_cast<uint64_t>(fr.guard_args))
          .field("shape_relevant", static_cast<uint64_t>(fr.shape_args))
          .field("dead", static_cast<uint64_t>(fr.dead_args))
          .end_object();
      w.key("lifetimes")
          .begin_object()
          .field("live", static_cast<uint64_t>(fr.live))
          .field("closed", static_cast<uint64_t>(fr.closed))
          .field("leaked", static_cast<uint64_t>(fr.leaked))
          .end_object();
      w.field("stale_uses", static_cast<uint64_t>(fr.stale_uses));
      w.end_object();
      w.field("repairable", fr.repairable).end_object();
    }
    w.end_array();
    w.key("summary")
        .begin_object()
        .field("files", static_cast<uint64_t>(reports.size()))
        .field("programs", static_cast<uint64_t>(programs))
        .field("findings", static_cast<uint64_t>(total_findings))
        .field("errors", static_cast<uint64_t>(total_errors))
        .field("warnings", static_cast<uint64_t>(total_warnings))
        .field("repaired", static_cast<uint64_t>(repaired))
        .field("rejected", static_cast<uint64_t>(rejected))
        .end_object();
    w.key("plans").begin_array();
    for (const DriverPlans& dp : planner_out) {
      w.begin_object().field("driver", dp.driver);
      w.key("states").begin_array();
      for (const std::string& s : dp.states) w.value(s);
      w.end_array();
      w.key("plans").begin_array();
      for (const auto& p : dp.plans) {
        w.begin_object()
            .field("state", static_cast<uint64_t>(p.state))
            .field("name", p.state_name)
            .field("reachable", p.reachable)
            .field("calls", static_cast<uint64_t>(p.steps.size()))
            .end_object();
      }
      w.end_array().end_object();
    }
    w.end_array();
    w.end_object().end_object();
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << w.str() << "\n";
  }
  return 0;
}
