#ifndef PATHALG_BENCH_SERVER_PROCESS_H_
#define PATHALG_BENCH_SERVER_PROCESS_H_

/// \file server_process.h
/// The system under test as a child process: `pathalg_serve --port 0 ...`
/// spawned fresh, its kernel-picked port read from the "listening on" line
/// it prints to stderr, its CPU time and memory high-water mark read from
/// /proc, and stopped (SIGTERM drain or SIGKILL crash) and reaped before
/// the benchmark moves on. The child gets PR_SET_PDEATHSIG, so it cannot
/// outlive the benchmark even if the benchmark itself is killed.

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"

namespace pathalg {
namespace bench {

class ServerProcess {
 public:
  /// Spawns `binary args... --port 0` restricted to `cpus` (any CPU when
  /// empty) and waits until it listens.
  static Result<std::unique_ptr<ServerProcess>> Spawn(
      const std::string& binary, const std::vector<std::string>& args,
      const std::vector<int>& cpus, double timeout_s = 120.0);
  /// Kills and reaps the server if Stop() was not called.
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }

  /// User + system CPU seconds the server has used so far.
  double CpuSeconds() const;
  /// VmHWM (peak resident set) in MiB; 0 when unreadable.
  double PeakRssMiB() const;

  /// Sends `signal` (SIGTERM drains, SIGKILL crashes), escalates to
  /// SIGKILL after `timeout_s`, and reaps. Error unless the server exited
  /// cleanly or died of exactly `signal`.
  Status Stop(int signal, double timeout_s = 30.0);

 private:
  ServerProcess(pid_t pid, int stderr_fd) : pid_(pid), stderr_fd_(stderr_fd) {}

  pid_t pid_ = -1;
  int stderr_fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace bench
}  // namespace pathalg

#endif  // PATHALG_BENCH_SERVER_PROCESS_H_
