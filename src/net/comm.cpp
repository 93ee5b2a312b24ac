#include "net/comm.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace hyflow::net {

SimDuration RetryPolicy::timeout_for(int attempt, std::uint64_t msg_id) const {
  SimDuration t = base_timeout;
  for (int i = 0; i < attempt && t < max_timeout; ++i) t *= 2;
  t = std::min(t, max_timeout);
  // +-25% deterministic jitter keyed by (msg_id, attempt).
  const std::uint64_t bits = mix64(msg_id * 31 + static_cast<std::uint64_t>(attempt));
  const double u = static_cast<double>(bits >> 11) * (1.0 / 9007199254740992.0);
  const double factor = 0.75 + 0.5 * u;
  return std::max<SimDuration>(1, static_cast<SimDuration>(static_cast<double>(t) * factor));
}

std::optional<Message> reliable_wait(Comm& comm, RequestCall& call,
                                     const RetryPolicy& policy) {
  for (int attempt = 0;; ++attempt) {
    auto reply = call.poll_for(policy.timeout_for(attempt, call.id()));
    if (reply) return reply;
    // Shutdown, not loss; or the budget is spent.
    if (call.closed() || attempt == policy.max_retries) return std::nullopt;
    comm.resend(call.to(), call.id(), static_cast<std::uint32_t>(attempt + 1), call.payload());
  }
}

}  // namespace hyflow::net
