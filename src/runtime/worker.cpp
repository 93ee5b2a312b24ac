#include "runtime/worker.hpp"

#include "runtime/node.hpp"
#include "workloads/workload.hpp"

namespace hyflow::runtime {

Worker::Worker(Node& node, workloads::Workload& workload, std::uint64_t seed)
    : node_(node), workload_(workload), rng_(seed) {}

Worker::~Worker() {
  request_stop();
  join();
}

void Worker::start() {
  thread_ = std::jthread([this](std::stop_token st) { loop(st); });
}

void Worker::request_stop() {
  if (thread_.joinable()) thread_.request_stop();
}

void Worker::join() {
  if (thread_.joinable()) thread_.join();
}

void Worker::loop(std::stop_token st) {
  while (!st.stop_requested()) {
    auto op = workload_.next_op(node_.self(), rng_);
    // Commits and their latency land in NodeMetrics (recorded by the TFA
    // runtime).
    node_.runtime().run(op.profile, op.body, [&st] { return !st.stop_requested(); });
  }
}

}  // namespace hyflow::runtime
