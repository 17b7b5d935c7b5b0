#include "serve_client.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>

#include "trace.h"

namespace perfbench {

using vadasa::Status;

vadasa::Result<Connection> Connection::Open(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IoError(std::string("socket: ") + std::strerror(errno));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError("connect " + socket_path + ": " + std::strerror(err));
  }
  return Connection(fd);
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

Connection::Connection(Connection&& other) noexcept
    : fd_(other.fd_), buffer_(std::move(other.buffer_)), scanned_(other.scanned_) {
  other.fd_ = -1;
}

Connection& Connection::operator=(Connection&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    scanned_ = other.scanned_;
    other.fd_ = -1;
  }
  return *this;
}

Status Connection::WriteLine(const std::string& line) {
  std::string out = line + "\n";
  size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::IoError(std::string("send: ") + std::strerror(errno));
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

vadasa::Result<std::string> Connection::ReadLine() {
  char chunk[1 << 16];
  while (true) {
    const size_t newline = buffer_.find('\n', scanned_);
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      scanned_ = 0;
      return line;
    }
    scanned_ = buffer_.size();
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return Status::IoError(std::string("recv: ") + std::strerror(errno));
    if (n == 0) return Status::IoError("server closed the connection");
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

vadasa::Result<ServerProcess> ServerProcess::Spawn(const std::vector<std::string>& argv,
                                                   const std::string& socket_path,
                                                   const std::string& log_path) {
  ::unlink(socket_path.c_str());
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log < 0) return Status::IoError("cannot open " + log_path);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log);
    return Status::IoError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Never outlive the benchmark, even if it is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(log, STDOUT_FILENO);
    ::dup2(log, STDERR_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(log);
  ServerProcess server;
  server.pid_ = pid;
  const int64_t deadline = NowNs() + 60'000'000'000LL;
  while (NowNs() < deadline) {
    if (Connection::Open(socket_path).ok()) return server;
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      server.pid_ = -1;
      return Status::IoError("server exited during start-up, see " + log_path);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return Status::IoError("server did not listen on " + socket_path);
}

ServerProcess& ServerProcess::operator=(ServerProcess&& other) noexcept {
  if (this != &other) {
    Stop(0.0);
    pid_ = other.pid_;
    other.pid_ = -1;
  }
  return *this;
}

ServerProcess::~ServerProcess() { Stop(0.0); }

bool ServerProcess::Stop(double timeout_s) {
  if (pid_ < 0) return true;
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  int status = 0;
  while (true) {
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    if (NowNs() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  return false;
}

ClosedLoopStats RunClosedLoop(const std::string& socket_path, int clients,
                              const std::function<bool(int, Connection&)>& step) {
  std::atomic<size_t> opened{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto connection = Connection::Open(socket_path);
      if (!connection.ok()) {
        failures.fetch_add(1);
        return;
      }
      opened.fetch_add(1);
      while (step(c, *connection)) {
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return {opened.load(), failures.load()};
}

}  // namespace perfbench
