#include "core/sweep_proc.hpp"

#include <algorithm>
#include <deque>
#include <span>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/sweep_codec.hpp"
#include "runtime/proc/subprocess.hpp"
#include "runtime/proc/wire.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/timer.hpp"
#include "util/format.hpp"

namespace groupfel::core {

namespace proc = runtime::proc;

namespace {

/// The payload tail after a leading u64 read by `header`.
[[nodiscard]] std::span<const std::byte> payload_body(
    const proc::Frame& frame, const nn::ByteReader& header) {
  return std::span<const std::byte>(frame.payload)
      .subspan(frame.payload.size() - header.remaining());
}

/// index + body concatenated into one frame payload.
[[nodiscard]] std::vector<std::byte> indexed_payload(
    std::size_t index, std::span<const std::byte> body) {
  nn::ByteWriter w;
  w.size(index);
  std::vector<std::byte> out = w.take();
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

/// The error for a worker that died with `label`'s cell in flight; `stream`
/// says how its pipe showed the death.
[[nodiscard]] std::runtime_error worker_death(pid_t pid,
                                              const proc::ExitStatus& exit,
                                              const std::string& label,
                                              const std::string& stream) {
  return std::runtime_error(util::cat(
      "sweep worker pid ", pid,
      exit.signaled ? " killed by signal " : " exited with code ", exit.code,
      " while running cell '", label, "' (stream: ", stream,
      "); completed cells remain in the checkpoint journal"));
}

}  // namespace

int sweep_worker_loop(int in_fd, int out_fd, std::size_t worker_threads) {
  // The worker's own pool — NEVER ThreadPool::global(): the parent's pool
  // threads do not exist in this process after fork. 0 threads = inline.
  runtime::ThreadPool pool(worker_threads);
  // Experiments cached by spec so consecutive cells over the same federation
  // build the DataSet once (a deque keeps references stable across growth).
  std::deque<std::pair<ExperimentSpec, Experiment>> cache;

  proc::Frame frame;
  for (;;) {
    const proc::ReadStatus status = proc::read_frame_fd(in_fd, frame);
    if (status == proc::ReadStatus::kEof) return 0;  // parent closed: done
    if (status != proc::ReadStatus::kOk) return 2;   // damaged stream
    if (frame.type != kCellFrame) return 3;

    nn::ByteReader header(frame.payload);
    const std::size_t index = header.size();
    try {
      const SweepCell cell = decode_cell(payload_body(frame, header));

      Experiment* experiment = nullptr;
      for (auto& [spec, built] : cache)
        if (spec == cell.spec) {
          experiment = &built;
          break;
        }
      if (experiment == nullptr) {
        cache.emplace_back(cell.spec, build_experiment(cell.spec));
        experiment = &cache.back().second;
      }

      GroupFelTrainer trainer(experiment->topology, cell.config,
                              build_cost_model(cell.task, cell.op), &pool);
      SweepCellResult result;
      result.label = cell.label;
      runtime::Timer timer;
      result.result = trainer.train(cell.cost_budget);
      result.seconds = timer.seconds();

      proc::write_frame_fd(out_fd, kResultFrame,
                           indexed_payload(index, encode_cell_result(result)));
    } catch (const std::exception& e) {
      // Per-cell failure: report it and keep serving (the parent decides
      // whether to abort the sweep).
      nn::ByteWriter w;
      w.size(index);
      w.str(e.what());
      proc::write_frame_fd(out_fd, kErrorFrame, w.take());
    }
  }
}

void run_sweep_process(
    const std::vector<SweepCell>& cells,
    const std::vector<std::size_t>& pending, const SweepOptions& opts,
    const std::function<void(std::size_t, SweepCellResult&&)>& on_result) {
  if (pending.empty()) return;

  std::size_t n_workers = opts.workers != 0
                              ? opts.workers
                              : std::thread::hardware_concurrency();
  if (n_workers == 0) n_workers = 1;
  n_workers = std::min(n_workers, pending.size());

  // A worker that dies mid-sweep must surface as EPIPE on our next write,
  // not as SIGPIPE killing the dispatcher.
  proc::ScopedSigpipeIgnore sigpipe;

  const std::size_t worker_threads = opts.worker_threads;
  std::vector<proc::Subprocess> workers;
  workers.reserve(n_workers);
  // Each child closes the pipe ends of previously spawned siblings, so when
  // THIS process dies every worker sees EOF and exits instead of lingering.
  std::vector<int> sibling_fds;
  for (std::size_t w = 0; w < n_workers; ++w) {
    workers.push_back(proc::Subprocess::spawn(
        [worker_threads](int rfd, int wfd) {
          return sweep_worker_loop(rfd, wfd, worker_threads);
        },
        sibling_fds));
    sibling_fds.push_back(workers.back().read_fd());
    sibling_fds.push_back(workers.back().write_fd());
    if (opts.on_worker_spawn)
      opts.on_worker_spawn(static_cast<int>(workers.back().pid()));
  }

  // Work-stealing dispatch: one cell in flight per worker; whichever worker
  // answers first gets the next pending cell.
  constexpr std::size_t kIdle = static_cast<std::size_t>(-1);
  std::vector<std::size_t> current(n_workers, kIdle);
  std::size_t next = 0;
  std::size_t outstanding = 0;

  const auto send_next = [&](std::size_t w) {
    if (next >= pending.size()) {
      workers[w].close_write();  // EOF: worker exits cleanly
      return;
    }
    const std::size_t cell_index = pending[next++];
    const std::vector<std::byte> payload =
        indexed_payload(cell_index, encode_cell(cells[cell_index]));
    try {
      proc::write_frame_fd(workers[w].write_fd(), kCellFrame, payload);
    } catch (const std::system_error& e) {
      // A worker that is already dead has no read end: the write fails
      // with EPIPE. Reap it (closing our end first, so a live one sees EOF
      // and exits) and report it as a read of EOF would. An oversized
      // payload is not a write error and passes through.
      const pid_t pid = workers[w].pid();
      workers[w].close_write();
      const proc::ExitStatus exit = workers[w].wait();
      throw worker_death(pid, exit, cells[cell_index].label, e.what());
    }
    current[w] = cell_index;
    ++outstanding;
  };

  for (std::size_t w = 0; w < n_workers; ++w) send_next(w);

  proc::Frame frame;
  std::vector<int> fds;
  std::vector<std::size_t> fd_worker;
  while (outstanding > 0) {
    fds.clear();
    fd_worker.clear();
    for (std::size_t w = 0; w < n_workers; ++w)
      if (current[w] != kIdle) {
        fds.push_back(workers[w].read_fd());
        fd_worker.push_back(w);
      }
    const std::size_t w = fd_worker[proc::wait_any_readable(fds)];

    const proc::ReadStatus status = proc::read_frame_fd(workers[w].read_fd(), frame);
    if (status != proc::ReadStatus::kOk) {
      // Worker died (or corrupted its stream) with a cell in flight. Reap it
      // so the error names the signal/exit code; cells already completed were
      // journaled before this point and survive for --resume.
      const pid_t pid = workers[w].pid();
      const proc::ExitStatus exit = workers[w].wait();
      throw worker_death(pid, exit, cells[current[w]].label,
                         proc::to_string(status));
    }

    nn::ByteReader header(frame.payload);
    const std::size_t index = header.size();
    if (index != current[w])
      throw std::runtime_error(util::cat(
          "sweep worker pid ", workers[w].pid(), " answered for cell ", index,
          " while cell ", current[w], " was in flight"));
    if (frame.type == kErrorFrame)
      throw std::runtime_error(util::cat("sweep worker failed on cell '",
                                         cells[index].label,
                                         "': ", header.str()));
    if (frame.type != kResultFrame)
      throw std::runtime_error(util::cat("sweep worker pid ", workers[w].pid(),
                                         " sent unknown frame type ",
                                         static_cast<int>(frame.type)));

    SweepCellResult result = decode_cell_result(payload_body(frame, header));
    current[w] = kIdle;
    --outstanding;
    on_result(index, std::move(result));
    send_next(w);
  }

  for (std::size_t w = 0; w < n_workers; ++w) workers[w].close_write();
  for (std::size_t w = 0; w < n_workers; ++w) {
    const pid_t pid = workers[w].pid();
    const proc::ExitStatus exit = workers[w].wait();
    if (!exit.clean())
      throw std::runtime_error(util::cat(
          "sweep worker pid ", pid,
          exit.signaled ? " killed by signal " : " exited with code ",
          exit.code, " during shutdown"));
  }
}

}  // namespace groupfel::core
