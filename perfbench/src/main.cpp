// perfbench: run one benchmark workload and print its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --cli <path of the sectorpack binary> --work <scratch dir>
//   perfbench --list-metrics
//
// Prints a human-readable table, then the JSON result object as the last
// line of stdout. Exit code 0 when every output check passed, 1 when some
// check failed (the result is still printed), 2 on a usage or set-up error
// (no result).

#include <cstdint>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "workload.hpp"

namespace {

using namespace perfbench;

const std::map<std::string, Workload>& workloads() {
  static const std::map<std::string, Workload> kWorkloads = {
      {"cli_solve", &run_cli_solve},
      {"huge_solve", &run_huge_solve},
      {"batch_mix", &run_batch_mix},
      {"serve_churn", &run_serve_churn},
  };
  return kWorkloads;
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> --cli <sectorpack binary> --work <dir>\n"
               "       perfbench --list-metrics\n";
  return 2;
}

void list_metrics() {
  for (const MetricSpec& m : end_to_end_metrics()) {
    std::cout << "end_to_end " << m.name << " " << m.unit << "\n";
  }
  for (const MetricSpec& m : per_layer_metrics()) {
    std::cout << "per_layer " << m.name << " " << m.unit << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--list-metrics") {
      list_metrics();
      return 0;
    }
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      return usage("bad argument '" + key + "'");
    }
    args[key.substr(2)] = argv[++i];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace", "cli",
                               "work"}) {
    if (args.count(required) == 0) {
      return usage(std::string("missing --") + required);
    }
  }
  const auto it = workloads().find(args["workload"]);
  if (it == workloads().end()) {
    return usage("unknown workload '" + args["workload"] + "'");
  }

  Context ctx;
  try {
    ctx.seed = std::stoull(args["seed"]);
    ctx.seconds = std::stod(args["seconds"]);
  } catch (const std::exception&) {
    return usage("--seed and --seconds must be numbers");
  }
  if (!(ctx.seconds > 0.0) || (args["trace"] != "0" && args["trace"] != "1")) {
    return usage("--seconds must be > 0 and --trace 0 or 1");
  }
  ctx.trace = args["trace"] == "1";
  ctx.cli = args["cli"];
  ctx.work = std::filesystem::path(args["work"]) / it->first;

  try {
    std::filesystem::remove_all(ctx.work);
    std::filesystem::create_directories(ctx.work);
    RunResult result = it->second(ctx);
    if (result.attempted() == 0) result.check_failed("no op was attempted");
    result.print(std::cout, std::cout,
                 it->first + (ctx.trace ? " (traced)" : "") + " seed " +
                     args["seed"]);
    return result.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << it->first << ": " << e.what() << "\n";
    return 2;
  }
}
