// recovery_records.hpp — a member's recovery records as a vector, for
// tests that pick records out by position.
#pragma once

#include <vector>

#include "srm/recovery_log.hpp"

/// The records of `log`, in push order.
inline std::vector<cesrm::srm::RecoveryRecord> recovery_records(
    const cesrm::srm::RecoveryLog& log) {
  return {log.begin(), log.end()};
}
