#ifndef PERFBENCH_SERVE_CLIENT_H_
#define PERFBENCH_SERVE_CLIENT_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"

namespace perfbench {

/// One persistent NDJSON connection to a unix-socket server.
class Connection {
 public:
  static vadasa::Result<Connection> Open(const std::string& socket_path);

  Connection() = default;
  ~Connection();
  Connection(Connection&& other) noexcept;
  Connection& operator=(Connection&& other) noexcept;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends `line` plus a newline.
  vadasa::Status WriteLine(const std::string& line);
  /// Blocks until a whole line (without its newline) has arrived.
  vadasa::Result<std::string> ReadLine();

 private:
  explicit Connection(int fd) : fd_(fd) {}
  int fd_ = -1;
  std::string buffer_;
  size_t scanned_ = 0;
};

/// A spawned server process, stopped and reaped on destruction.
class ServerProcess {
 public:
  /// Starts `argv` with stdout and stderr appended to `log_path`, and waits
  /// until `socket_path` accepts connections.
  static vadasa::Result<ServerProcess> Spawn(const std::vector<std::string>& argv,
                                             const std::string& socket_path,
                                             const std::string& log_path);

  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(ServerProcess&& other) noexcept : pid_(other.pid_) { other.pid_ = -1; }
  ServerProcess& operator=(ServerProcess&& other) noexcept;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }
  /// Waits up to `timeout_s` for the process to exit on its own (after a
  /// shutdown request), then kills it. True when it exited with status 0.
  bool Stop(double timeout_s);

 private:
  pid_t pid_ = -1;
};

/// A closed loop: `clients` threads, each owning one persistent
/// connection, each sending its next request only after the previous one
/// is answered. `step(client, connection)` runs one operation and returns
/// false to stop that client. No more than `clients` connections are ever
/// opened.
struct ClosedLoopStats {
  size_t connections_opened = 0;
  size_t connect_failures = 0;
};
ClosedLoopStats RunClosedLoop(const std::string& socket_path, int clients,
                              const std::function<bool(int, Connection&)>& step);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_CLIENT_H_
