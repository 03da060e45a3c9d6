#pragma once
// Child processes and resident-memory readings.

#include <string>
#include <vector>

namespace perfbench {

struct ChildResult {
  int exit_code = -1;    // -1 when the child did not exit normally
  double wall_ms = 0.0;  // spawn to reaped
  double max_rss_mb = 0.0;
};

/// Run `argv` (argv[0] is a path) with stdin from /dev/null, stdout to
/// /dev/null and stderr appended to `stderr_path`; wait for it and return
/// its exit code, wall time and peak resident memory. Throws
/// std::runtime_error when the child cannot be started.
[[nodiscard]] ChildResult run_child(const std::vector<std::string>& argv,
                                    const std::string& stderr_path);

/// Peak resident memory of this process (VmHWM) since it started or since
/// the last reset_peak_rss(), in MiB.
[[nodiscard]] double self_peak_rss_mb();

/// Restart the peak at the current resident size, so the peak covers only
/// the timed part of a run, not its set-up. Where the kernel refuses, the
/// peak keeps covering the whole process.
void reset_peak_rss();

}  // namespace perfbench
