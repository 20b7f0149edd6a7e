// perfbench -- the load generator and traced replay behind perfbench/run.py.
//
//   perfbench wire  --port N --workload W --seed S --seconds T --out FILE
//       closed-loop clients against a flexrtd listening on 127.0.0.1:N, then
//       the byte-identity gate against an in-process reference session
//       (W = wire_interactive | status_probe)
//   perfbench trace --workload W --seed S --ops K --dir D --spans FILE
//                   --out FILE [--plan FILE]
//       in-process replay of the workload's request stream, untraced then
//       traced; spans go to --spans, pass times and counters to --out
//   perfbench spawn --rusage FILE -- PROGRAM [ARGS...]
//       runs PROGRAM as a child, forwards SIGTERM/SIGINT to it, and writes
//       its exit code, fork/reap times and wait4 resource usage to FILE
//
// run.py sets FLEXRT_THREADS for each process: 1 for the wire client (its
// in-process reference must run at one thread) and for the .t1 trace, unset
// for the default-width trace.
#include <iostream>
#include <map>
#include <string>

#include "common/error.hpp"
#include "perfbench.hpp"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench wire|trace --key value ... | spawn ...\n";
    return 2;
  }
  const std::string sub = argv[1];
  if (sub == "spawn") return perfbench::run_spawn(argc, argv);
  std::map<std::string, std::string> opts;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::cerr << "perfbench: expected --key, got " << key << "\n";
      return 2;
    }
    opts[key.substr(2)] = argv[i + 1];
  }
  try {
    if (sub == "wire") return perfbench::run_wire(opts);
    if (sub == "trace") return perfbench::run_trace(opts);
    std::cerr << "perfbench: unknown subcommand " << sub << "\n";
    return 2;
  } catch (const std::out_of_range&) {
    std::cerr << "perfbench " << sub << ": missing a required --key\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench " << sub << ": " << e.what() << "\n";
    return 1;
  }
}
