// perfbench: the repository benchmark. Usage:
//
//   perfbench --workload <wire_read|embedded_probe|mixed_update>
//             --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//   perfbench --selftest
//
// A workload run prints one line per metric (name, value, unit, sample
// count) and, last, one JSON result line. perfbench/run.py builds this
// binary and is the command to use.
#include <cstdio>
#include <cstring>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  using perfbench::Fatal;
  perfbench::RunArgs args;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Fatal("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        args.workload = value();
      } else if (a == "--seed") {
        args.seed = std::stoull(value());
      } else if (a == "--seconds") {
        args.seconds = std::stod(value());
      } else if (a == "--trace") {
        args.trace = std::stoi(value()) != 0;
      } else if (a == "--out") {
        args.out_dir = value();
      } else if (a == "--selftest") {
        selftest = true;
      } else {
        Fatal("unknown argument " + a);
      }
    } catch (const std::exception&) {
      Fatal("bad value for " + a);
    }
  }
  if (selftest) {
    perfbench::RunSelfTest(args);
    return 0;
  }
  if (args.seconds <= 0) Fatal("--seconds must be positive");
  perfbench::RunWorkload(args);
  return 0;
}
