#include "srm/adaptive.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace cesrm::srm {

AdaptiveController::AdaptiveController(double deterministic,
                                       double probabilistic,
                                       AdaptiveTuning tuning)
    : tuning_(tuning), det_(deterministic), prob_(probabilistic) {
  CESRM_CHECK(deterministic >= 0.0);
  CESRM_CHECK(probabilistic >= 0.0);
  det_ = std::clamp(det_, tuning_.det_min, tuning_.det_max);
  prob_ = std::clamp(prob_, tuning_.prob_min, tuning_.prob_max);
}

void AdaptiveController::observe(double duplicates, double normalized_delay) {
  update_dup(duplicates);
  update_delay(normalized_delay);
  ++observations_;
  adjust();
}

void AdaptiveController::observe_duplicates(double duplicates) {
  update_dup(duplicates);
  ++observations_;
  adjust();
}

void AdaptiveController::update_dup(double duplicates) {
  if (dup_samples_++ == 0)
    ave_dup_ = duplicates;
  else
    ave_dup_ += tuning_.ewma_alpha * (duplicates - ave_dup_);
}

void AdaptiveController::update_delay(double normalized_delay) {
  if (delay_samples_++ == 0)
    ave_delay_ = normalized_delay;
  else
    ave_delay_ += tuning_.ewma_alpha * (normalized_delay - ave_delay_);
}

void AdaptiveController::adjust() {
  if (ave_dup_ > tuning_.dup_target) {
    // Too many duplicates: widen both components for better suppression.
    det_ += tuning_.det_step_up;
    prob_ += tuning_.prob_step_up;
  } else if (ave_dup_ < 0.5 * tuning_.dup_target &&
             ave_delay_ > tuning_.delay_target) {
    // Suppression is comfortable but we are slow: trim the delay. The
    // probabilistic part shrinks first; the deterministic part follows
    // only when delay is well above target (mirroring Floyd et al.'s
    // conservative reduction of C1).
    prob_ -= tuning_.prob_step_down;
    if (ave_delay_ > 2.0 * tuning_.delay_target)
      det_ -= tuning_.det_step_down;
  }
  det_ = std::clamp(det_, tuning_.det_min, tuning_.det_max);
  prob_ = std::clamp(prob_, tuning_.prob_min, tuning_.prob_max);
}

}  // namespace cesrm::srm
