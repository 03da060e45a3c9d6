#include "process.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "streams.hpp"

extern char** environ;

namespace perfbench {

namespace {

// ru_maxrss is in KiB on Linux.
double kib_to_mib(long kib) { return static_cast<double>(kib) / 1024.0; }

}  // namespace

ChildResult run_child(const std::vector<std::string>& argv,
                      const std::string& stderr_path) {
  std::vector<char*> args;
  args.reserve(argv.size() + 1);
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 2, stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);

  ChildResult result;
  const Clock::time_point start = Clock::now();
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    throw std::runtime_error("cannot start " + argv[0] + ": " +
                             std::strerror(rc));
  }
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      throw std::runtime_error(std::string("wait4: ") + std::strerror(errno));
    }
  }
  result.wall_ms = ms_between(start, Clock::now());
  result.max_rss_mb = kib_to_mib(usage.ru_maxrss);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

double self_peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return kib_to_mib(std::stol(line.substr(6)));
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return kib_to_mib(usage.ru_maxrss);
}

void reset_peak_rss() {
  // Hand set-up's freed heap back first, so the new peak does not depend
  // on how much of it the allocator kept.
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

}  // namespace perfbench
