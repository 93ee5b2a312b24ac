// The paper's scheduler under its former class name. SchedulerConfig::kind
// defaults to "rts", so RtsScheduler(cfg) is the rts row of the policy table
// unless the caller names another row; new code uses core::Scheduler.
#pragma once

#include "core/scheduler.hpp"

namespace hyflow::core {

using RtsScheduler = Scheduler;

}  // namespace hyflow::core
