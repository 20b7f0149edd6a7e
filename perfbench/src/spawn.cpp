// perfbench spawn: runs the program under test as the child of this small
// process and reports the child's own resource usage.
//
// wait4() is the only whole-process source of CPU time and context
// switches (it sums every thread, including ones that already exited),
// but its ru_maxrss also keeps the resident size of the image the child
// replaced at exec. A child forked from run.py's interpreter therefore
// reads that interpreter's ~14 MiB at least; forked from here it reads
// this process's few MiB, below any run of the programs under test.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <vector>

#include "perfbench.hpp"
#include "svc/jsonl.hpp"

namespace perfbench {

namespace {

volatile sig_atomic_t g_child = 0;
volatile sig_atomic_t g_pending = 0;

extern "C" void forward(int sig) {
  if (g_child > 0) {
    ::kill(static_cast<pid_t>(g_child), sig);
  } else {
    g_pending = sig;
  }
}

std::int64_t monotonic_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

int run_spawn(int argc, char** argv) {
  // perfbench spawn --rusage FILE -- PROGRAM ARGS...
  if (argc < 6 || std::string(argv[2]) != "--rusage" ||
      std::string(argv[4]) != "--") {
    std::cerr << "usage: perfbench spawn --rusage FILE -- PROGRAM [ARGS...]\n";
    return 2;
  }
  struct sigaction sa {};
  sa.sa_handler = forward;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  const std::int64_t fork_ns = monotonic_ns();
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("perfbench spawn: fork");
    return 2;
  }
  if (pid == 0) {
    // Never outlive the launcher: a killed benchmark leaves no program behind.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    struct sigaction dfl {};
    dfl.sa_handler = SIG_DFL;
    ::sigaction(SIGTERM, &dfl, nullptr);
    ::sigaction(SIGINT, &dfl, nullptr);
    ::execv(argv[5], argv + 5);
    std::perror("perfbench spawn: exec");
    ::_exit(127);
  }
  g_child = pid;
  if (g_pending) ::kill(pid, g_pending);

  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) {
      std::perror("perfbench spawn: wait4");
      return 2;
    }
  }
  const std::int64_t reap_ns = monotonic_ns();
  const int rc = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);

  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  const auto i64 = [](auto v) { return static_cast<std::int64_t>(v); };
  flexrt::svc::JsonRow row;
  row.field("rc", i64(rc))
      .field("fork_ns", i64(fork_ns))
      .field("reap_ns", i64(reap_ns))
      .field("cpu_s", secs(ru.ru_utime) + secs(ru.ru_stime))
      .field("maxrss_kib", i64(ru.ru_maxrss))
      .field("nvcsw", i64(ru.ru_nvcsw))
      .field("nivcsw", i64(ru.ru_nivcsw));
  std::ofstream(argv[3]) << row.str() << "\n";
  return rc;
}

}  // namespace perfbench
