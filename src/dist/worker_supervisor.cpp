#include "dist/worker_supervisor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "dist/wire.hpp"
#include "obs/obs.hpp"

namespace hp::dist {

namespace {

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

WorkerSupervisor::WorkerSupervisor(Options options)
    : options_(std::move(options)) {
  if (options_.workers == 0) {
    throw std::invalid_argument("WorkerSupervisor: workers must be > 0");
  }
}

WorkerSupervisor::~WorkerSupervisor() { shutdown(); }

void WorkerSupervisor::start() {
  if (!slots_.empty()) return;
  // A dead worker's pipe must surface as a failed write, not a fatal
  // signal; the CLI ignores SIGPIPE too, this is the in-library backstop.
  ::signal(SIGPIPE, SIG_IGN);
  if (::access(options_.worker_binary.c_str(), X_OK) != 0) {
    throw std::runtime_error("WorkerSupervisor: worker binary '" +
                             options_.worker_binary +
                             "' is missing or not executable");
  }
  slots_.resize(options_.workers);
  for (std::size_t i = 0; i < slots_.size(); ++i) spawn(i);
}

void WorkerSupervisor::spawn(std::size_t slot_index) {
  Slot& slot = slots_[slot_index];
  int to_child[2] = {-1, -1};
  int from_child[2] = {-1, -1};
  if (::pipe(to_child) != 0) {
    throw std::runtime_error("WorkerSupervisor: pipe() failed");
  }
  if (::pipe(from_child) != 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    throw std::runtime_error("WorkerSupervisor: pipe() failed");
  }

  std::vector<std::string> argv_storage;
  argv_storage.push_back(options_.worker_binary);
  for (const std::string& arg : options_.worker_args) {
    argv_storage.push_back(arg);
  }
  argv_storage.push_back("--worker-slot");
  argv_storage.push_back(std::to_string(slot_index));
  std::vector<char*> argv;
  argv.reserve(argv_storage.size() + 1);
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    throw std::runtime_error("WorkerSupervisor: fork() failed");
  }
  if (pid == 0) {
    // Child: pipes become stdin/stdout, stderr stays inherited for
    // diagnostics. Only async-signal-safe calls between fork and exec.
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    ::execv(argv[0], argv.data());
    ::_exit(127);  // exec failed; parent sees immediate EOF
  }

  ::close(to_child[0]);
  ::close(from_child[1]);
  // Non-blocking reads: the poll loop must never wedge on a worker that
  // wrote half a line and hung.
  const int flags = ::fcntl(from_child[0], F_GETFL, 0);
  (void)::fcntl(from_child[0], F_SETFL, flags | O_NONBLOCK);
  slot.pipe_capacity = PIPE_BUF;
#ifdef F_GETPIPE_SZ
  const int capacity = ::fcntl(to_child[1], F_GETPIPE_SZ);
  if (capacity > 0) slot.pipe_capacity = static_cast<std::size_t>(capacity);
#endif

  slot.pid = pid;
  slot.in_fd = to_child[1];
  slot.out_fd = from_child[0];
  slot.read_buffer.clear();
  slot.alive = true;
  ++spawned_;
}

bool WorkerSupervisor::alive(std::size_t slot) const {
  return slot < slots_.size() && slots_[slot].alive;
}

std::size_t WorkerSupervisor::live_count() const noexcept {
  std::size_t count = 0;
  for (const Slot& slot : slots_) {
    if (slot.alive) ++count;
  }
  return count;
}

std::size_t WorkerSupervisor::pipe_capacity(std::size_t slot) const {
  return slot < slots_.size() ? slots_[slot].pipe_capacity : PIPE_BUF;
}

bool WorkerSupervisor::send_frames(std::size_t slot_index,
                                   std::string_view frames) {
  if (!alive(slot_index)) return false;
  return write_all(slots_[slot_index].in_fd, frames);
}

bool WorkerSupervisor::drain(
    std::size_t slot_index,
    const std::function<void(std::size_t, const std::string&)>& on_line) {
  Slot& slot = slots_[slot_index];
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(slot.out_fd, chunk, sizeof chunk);
    if (n > 0) {
      slot.read_buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t newline;
      while ((newline = slot.read_buffer.find('\n')) != std::string::npos) {
        const std::string line = slot.read_buffer.substr(0, newline);
        slot.read_buffer.erase(0, newline + 1);
        if (on_line) on_line(slot_index, line);
      }
      continue;
    }
    if (n == 0) return false;  // EOF: worker exited or crashed
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
}

void WorkerSupervisor::poll_lines(
    int timeout_ms,
    const std::function<void(std::size_t, const std::string&)>& on_line,
    const std::function<void(std::size_t)>& on_death) {
  std::vector<struct pollfd> fds;
  std::vector<std::size_t> fd_slot;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].alive) continue;
    fds.push_back({slots_[i].out_fd, POLLIN, 0});
    fd_slot.push_back(i);
  }
  if (fds.empty()) {
    // Nothing to wait on; honor the timeout so the caller's loop does not
    // spin while it decides to respawn or give up.
    if (timeout_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(timeout_ms));
    }
    return;
  }
  const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
  if (ready <= 0) return;  // timeout or EINTR: caller re-enters
  for (std::size_t k = 0; k < fds.size(); ++k) {
    if (fds[k].revents == 0) continue;
    const std::size_t slot_index = fd_slot[k];
    // Drain on POLLHUP too: the worker may have written its last result
    // just before exiting.
    if (!drain(slot_index, on_line)) {
      reap(slot_index);
      if (on_death) on_death(slot_index);
    }
  }
}

void WorkerSupervisor::reap(std::size_t slot_index) {
  Slot& slot = slots_[slot_index];
  if (slot.pid < 0) return;
  if (slot.alive) {
    // SIGKILL before the blocking wait: the worker may have closed stdout
    // while still running (hang fault), and an un-killed child would make
    // waitpid block forever.
    ::kill(slot.pid, SIGKILL);
  }
  int status = 0;
  pid_t waited;
  do {
    waited = ::waitpid(slot.pid, &status, 0);
  } while (waited < 0 && errno == EINTR);
  if (waited == slot.pid) ++reaped_;
  slot.pid = -1;
  slot.alive = false;
  close_fd(slot.in_fd);
  close_fd(slot.out_fd);
  slot.read_buffer.clear();
}

void WorkerSupervisor::kill_worker(std::size_t slot_index) {
  if (slot_index >= slots_.size()) return;
  reap(slot_index);
}

bool WorkerSupervisor::respawn(std::size_t slot_index) {
  if (slot_index >= slots_.size()) return false;
  Slot& slot = slots_[slot_index];
  if (slot.alive) kill_worker(slot_index);
  if (slot.retired) return false;
  if (respawns_ >= options_.respawn_budget) {
    slot.retired = true;
    obs::logger().warn("fleet.worker_retired",
                       {{"slot", obs::JsonValue(slot_index)},
                        {"respawns", obs::JsonValue(respawns_)}});
    return false;
  }
  ++respawns_;
  spawn(slot_index);
  if (obs::tracer().enabled()) {
    obs::tracer().instant("worker.respawn", {{"slot", slot_index},
                                             {"respawns", respawns_}});
  }
  return true;
}

void WorkerSupervisor::shutdown(int grace_ms) {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].alive) (void)send_frames(i, encode_frame(encode_quit()));
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(grace_ms);
  for (Slot& slot : slots_) {
    while (slot.alive) {
      int status = 0;
      const pid_t waited = ::waitpid(slot.pid, &status, WNOHANG);
      if (waited == slot.pid) {
        ++reaped_;
        slot.pid = -1;
        slot.alive = false;
        close_fd(slot.in_fd);
        close_fd(slot.out_fd);
        break;
      }
      if (std::chrono::steady_clock::now() >= deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  // Stragglers get the non-negotiable path.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].alive) reap(i);
  }
}

}  // namespace hp::dist
