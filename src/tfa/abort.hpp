// Abort taxonomy.
//
// The paper distinguishes two causes of nested-transaction aborts
// (§IV-B): (1) the transaction's own early validation / object
// inconsistency, and (2) its parent's abort. Root transactions additionally
// abort on scheduler denial (the conflicting request hit an object under
// validation and the scheduler said abort), on backoff expiry (an enqueued
// parent ran out of patience), and on commit-time lock conflicts.
#pragma once

#include <cstdint>

#include "util/time.hpp"

namespace hyflow::tfa {

enum class AbortCause : std::uint8_t {
  kNone = 0,
  kEarlyValidation,   // forwarding/commit validation, or a commit lock, found a stale entry
  kSchedulerDenied,   // requested an object under validation; scheduler said abort
  kBackoffExpired,    // enqueued, but the object never arrived in time
  kLockConflict,      // commit-time lock busy: another commit holds it
  kShutdown,          // cluster stopping
  kUserRetry,         // workload-requested restart
  kWatchdog,          // RPC retry budget exhausted: peer unreachable/reply lost
  kCauseCount
};

constexpr const char* abort_cause_name(AbortCause c) {
  switch (c) {
    case AbortCause::kNone: return "none";
    case AbortCause::kEarlyValidation: return "early-validation";
    case AbortCause::kSchedulerDenied: return "scheduler-denied";
    case AbortCause::kBackoffExpired: return "backoff-expired";
    case AbortCause::kLockConflict: return "lock-conflict";
    case AbortCause::kShutdown: return "shutdown";
    case AbortCause::kUserRetry: return "user-retry";
    case AbortCause::kWatchdog: return "watchdog";
    case AbortCause::kCauseCount: break;
  }
  return "?";
}

// Thrown by the TFA runtime to unwind a doomed transaction body.
// `locus_depth` identifies the nesting level whose access entry caused the
// failure: a closed-nested child whose own entry went stale retries alone;
// anything rooted shallower aborts the parent chain up to that level.
struct AbortException {
  AbortCause cause = AbortCause::kNone;
  int locus_depth = 0;          // 0 = root
  SimDuration retry_stall = 0;  // TFA+Backoff: stall before restarting
};

}  // namespace hyflow::tfa
