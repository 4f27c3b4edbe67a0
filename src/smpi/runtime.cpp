#include "smpi/runtime.h"

#include <exception>
#include <thread>
#include <vector>

#include "obs/trace.h"

namespace smpi {

namespace {

void launch_threads(int nranks,
                    const std::function<void(Communicator&)>& body) {
  World world(make_thread_transport(nranks));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));

  // Rank 0 runs on the calling thread so single-rank runs need no thread
  // creation and debuggers see the "main" rank on the main stack.
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks - 1));
  for (int r = 1; r < nranks; ++r) {
    threads.emplace_back([&world, &body, &errors, r] {
      jitfd::obs::set_thread_rank(r);
      Communicator comm(&world, r);
      try {
        body(comm);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  {
    jitfd::obs::set_thread_rank(0);
    Communicator comm(&world, 0);
    try {
      body(comm);
    } catch (...) {
      errors[0] = std::current_exception();
    }
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (const std::exception_ptr& err : errors) {
    if (err != nullptr) {
      std::rethrow_exception(err);
    }
  }
}

}  // namespace

void launch(const LaunchOptions& opts,
            const std::function<void(Communicator&)>& body) {
  const TransportKind kind =
      opts.transport.has_value() ? *opts.transport : default_transport();
  switch (kind) {
    case TransportKind::Threads:
      launch_threads(opts.nranks, body);
      return;
    case TransportKind::ProcessShm: {
      const std::size_t ring_kb =
          opts.shm_ring_kb != 0 ? opts.shm_ring_kb : 256;
      launch_process_shm(opts.nranks, ring_kb * 1024, body);
      return;
    }
  }
}

}  // namespace smpi
