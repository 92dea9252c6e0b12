// adaptive.hpp — dynamic adjustment of SRM's timer parameters.
//
// Floyd et al.'s SRM paper (ToN 1997, §V) complements the fixed timer
// parameters (the "typical settings" C1=C2=2, D1=D2=1 that the CESRM paper
// simulates) with an adaptive algorithm: each host tunes its request
// parameters from the duplicate requests and request delays it observes,
// and its reply parameters likewise. AdaptiveController implements that
// control loop in their spirit:
//
//  * after every observation window it updates exponentially weighted
//    averages of (a) duplicates per recovery exchange and (b) the host's
//    own timer delay, normalized by the relevant distance;
//  * too many duplicates → increase both the deterministic and the
//    probabilistic component (more suppression);
//  * few duplicates and high delay → trim the components (less latency);
//  * both components are clamped to sane ranges so a quiet or noisy spell
//    cannot run the parameters off to extremes.
//
// One controller instance serves the request side (seeded with C1, C2) and
// another the reply side (D1, D2) of each SrmAgent when
// SrmConfig::adaptive_timers is enabled.
#pragma once

#include <cstdint>

namespace cesrm::srm {

struct AdaptiveTuning {
  double dup_target = 1.0;    ///< acceptable duplicates per exchange
  double delay_target = 1.5;  ///< acceptable own delay (units of intervals)
  double ewma_alpha = 0.25;   ///< weight of each new observation
  double det_step_up = 0.1;   ///< deterministic component increase
  double prob_step_up = 0.5;  ///< probabilistic component increase
  double det_step_down = 0.05;
  double prob_step_down = 0.1;
  double det_min = 0.5, det_max = 4.0;
  double prob_min = 1.0, prob_max = 8.0;
};

class AdaptiveController {
 public:
  /// Seeds the controller with the static parameter pair (e.g. C1, C2).
  AdaptiveController(double deterministic, double probabilistic,
                     AdaptiveTuning tuning = {});

  /// Current deterministic component (C1 or D1).
  double deterministic() const { return det_; }
  /// Current probabilistic component (C2 or D2).
  double probabilistic() const { return prob_; }

  /// Records the duplicates observed in one completed exchange and the
  /// delay (in units of the scheduling interval base) this host's own
  /// timer contributed, then adjusts the parameters.
  void observe(double duplicates, double normalized_delay);

  /// Partial observation: updates only the duplicate average (an exchange
  /// yielded a duplicate count but this host sent nothing), then adjusts.
  void observe_duplicates(double duplicates);

  double average_duplicates() const { return ave_dup_; }
  double average_delay() const { return ave_delay_; }
  std::uint64_t observations() const { return observations_; }

 private:
  void adjust();
  void update_dup(double duplicates);
  void update_delay(double normalized_delay);

  AdaptiveTuning tuning_;
  double det_;
  double prob_;
  double ave_dup_ = 0.0;
  double ave_delay_ = 0.0;
  std::uint64_t observations_ = 0;       ///< total observe* calls
  std::uint64_t dup_samples_ = 0;        ///< first-sample handling per EWMA
  std::uint64_t delay_samples_ = 0;
};

}  // namespace cesrm::srm
