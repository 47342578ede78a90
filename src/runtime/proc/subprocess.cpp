#include "runtime/proc/subprocess.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>  // NOLINT(modernize-deprecated-headers): sigaction API
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace groupfel::runtime::proc {

namespace {

void close_quiet(int& fd) noexcept {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

[[noreturn]] void run_child(const std::function<int(int, int)>& child_main,
                            int read_fd, int write_fd) {
  int rc = Subprocess::kUncaughtExceptionExit;
  try {
    rc = child_main(read_fd, write_fd);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "proc worker %d: uncaught exception: %s\n",
                 static_cast<int>(::getpid()), e.what());
  } catch (...) {
    std::fprintf(stderr, "proc worker %d: uncaught non-std exception\n",
                 static_cast<int>(::getpid()));
  }
  std::fflush(nullptr);
  ::_exit(rc);
}

}  // namespace

Subprocess Subprocess::spawn(const std::function<int(int, int)>& child_main,
                             std::span<const int> extra_close) {
  // to_child: parent writes, child reads. from_child: child writes, parent
  // reads. [0] = read end, [1] = write end.
  int to_child[2] = {-1, -1};
  int from_child[2] = {-1, -1};
  // O_CLOEXEC: workers fork without exec and keep their ends, but a
  // fork+exec helper started by anyone in this process never inherits them.
  if (::pipe2(to_child, O_CLOEXEC) != 0)
    throw std::runtime_error(std::string("Subprocess: pipe: ") +
                             std::strerror(errno));
  if (::pipe2(from_child, O_CLOEXEC) != 0) {
    close_quiet(to_child[0]);
    close_quiet(to_child[1]);
    throw std::runtime_error(std::string("Subprocess: pipe: ") +
                             std::strerror(errno));
  }

  const pid_t pid = ::fork();
  if (pid < 0) {
    close_quiet(to_child[0]);
    close_quiet(to_child[1]);
    close_quiet(from_child[0]);
    close_quiet(from_child[1]);
    throw std::runtime_error(std::string("Subprocess: fork: ") +
                             std::strerror(errno));
  }

  if (pid == 0) {
    // Child: keep only its two pipe ends. Closing the sibling workers' fds
    // here is what makes "parent died" observable as EOF on every worker.
    close_quiet(to_child[1]);
    close_quiet(from_child[0]);
    for (int fd : extra_close)
      if (fd >= 0) ::close(fd);
    run_child(child_main, to_child[0], from_child[1]);
  }

  // Parent.
  close_quiet(to_child[0]);
  close_quiet(from_child[1]);
  Subprocess p;
  p.pid_ = pid;
  p.read_fd_ = from_child[0];
  p.write_fd_ = to_child[1];
  return p;
}

Subprocess::~Subprocess() {
  if (pid_ > 0) {
    kill_now();
    (void)wait();
  }
  close_quiet(read_fd_);
  close_quiet(write_fd_);
}

Subprocess::Subprocess(Subprocess&& other) noexcept
    : pid_(std::exchange(other.pid_, -1)),
      read_fd_(std::exchange(other.read_fd_, -1)),
      write_fd_(std::exchange(other.write_fd_, -1)),
      status_(other.status_) {}

Subprocess& Subprocess::operator=(Subprocess&& other) noexcept {
  if (this != &other) {
    if (pid_ > 0) {
      kill_now();
      (void)wait();
    }
    close_quiet(read_fd_);
    close_quiet(write_fd_);
    pid_ = std::exchange(other.pid_, -1);
    read_fd_ = std::exchange(other.read_fd_, -1);
    write_fd_ = std::exchange(other.write_fd_, -1);
    status_ = other.status_;
  }
  return *this;
}

void Subprocess::close_write() noexcept { close_quiet(write_fd_); }

void Subprocess::kill_now() noexcept {
  if (pid_ > 0) ::kill(pid_, SIGKILL);
}

ExitStatus Subprocess::wait() {
  if (pid_ <= 0) return status_;
  int wstatus = 0;
  pid_t r;
  do {
    r = ::waitpid(pid_, &wstatus, 0);
  } while (r < 0 && errno == EINTR);
  pid_ = -1;
  close_quiet(read_fd_);
  close_quiet(write_fd_);
  if (r < 0) {
    status_ = {true, -1};
  } else if (WIFSIGNALED(wstatus)) {
    status_ = {true, WTERMSIG(wstatus)};
  } else {
    status_ = {false, WEXITSTATUS(wstatus)};
  }
  return status_;
}

std::size_t wait_any_readable(std::span<const int> fds) {
  std::vector<pollfd> pfds(fds.size());
  for (std::size_t i = 0; i < fds.size(); ++i)
    pfds[i] = {fds[i], POLLIN, 0};
  for (;;) {
    const int n = ::poll(pfds.data(), pfds.size(), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("proc::wait_any_readable: poll: ") +
                               std::strerror(errno));
    }
    for (std::size_t i = 0; i < pfds.size(); ++i)
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) return i;
  }
}

ScopedSigpipeIgnore::ScopedSigpipeIgnore() {
  previous_ = ::signal(SIGPIPE, SIG_IGN);
  restore_ = previous_ != SIG_ERR;
}

ScopedSigpipeIgnore::~ScopedSigpipeIgnore() {
  if (restore_) ::signal(SIGPIPE, previous_);
}

}  // namespace groupfel::runtime::proc
