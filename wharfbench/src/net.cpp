// A spawned `wharf serve --listen 0` child and a blocking NDJSON client
// over a 127.0.0.1 socket.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "bench.hpp"

namespace wharfbench {

ServerProcess::ServerProcess(const std::string& binary, int max_connections) {
  int err_pipe[2];
  require(::pipe(err_pipe) == 0, "pipe() failed");
  const std::string connections = std::to_string(max_connections);
  pid_ = ::fork();
  require(pid_ >= 0, "fork() failed");
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the harness
    const int devnull = ::open("/dev/null", O_RDWR);
    ::dup2(devnull, 0);
    ::dup2(devnull, 1);
    ::dup2(err_pipe[1], 2);
    ::close(err_pipe[0]);
    ::execl(binary.c_str(), binary.c_str(), "serve", "--listen", "0", "--max-connections",
            connections.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(err_pipe[1]);
  stderr_fd_ = err_pipe[0];
  // Wait for "serve: listening on 127.0.0.1:<port>".
  std::string text;
  const std::string marker = "listening on 127.0.0.1:";
  while (true) {
    const auto at = text.find(marker);
    if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
      port_ = std::stoi(text.substr(at + marker.size()));
      return;
    }
    pollfd pfd{stderr_fd_, POLLIN, 0};
    char chunk[512];
    if (::poll(&pfd, 1, 20000) <= 0) break;
    const ssize_t n = ::read(stderr_fd_, chunk, sizeof chunk);
    if (n <= 0) break;
    text.append(chunk, static_cast<std::size_t>(n));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
  throw std::runtime_error("wharf serve did not announce a port: " + text);
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  if (stderr_fd_ >= 0) ::close(stderr_fd_);
}

int ServerProcess::shutdown() {
  if (pid_ <= 0) return -1;
  {
    Client client(port_);
    client.send("{\"type\":\"shutdown\"}");
    (void)client.recv();
  }
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
}

Client::Client(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  require(fd_ >= 0, "socket() failed");
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("connect(): " + why);
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::send(const std::string& line) {
  const std::string bytes = line + "\n";
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) throw std::runtime_error(std::string("send(): ") + std::strerror(errno));
    sent += static_cast<std::size_t>(n);
  }
}

std::string Client::recv(int timeout_ms) {
  while (true) {
    const auto newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return line;
    }
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) throw std::runtime_error("response timed out");
    char chunk[65536];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n <= 0) throw std::runtime_error("connection closed by server");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace wharfbench
