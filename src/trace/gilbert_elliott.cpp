#include "trace/gilbert_elliott.hpp"

#include "util/check.hpp"

namespace cesrm::trace {

GilbertElliott::GilbertElliott(double p_gb, double p_bg)
    : p_gb_(p_gb), p_bg_(p_bg) {
  CESRM_CHECK(p_gb_ >= 0.0 && p_gb_ <= 1.0);
  CESRM_CHECK(p_bg_ >= 0.0 && p_bg_ <= 1.0);
}

GilbertElliott GilbertElliott::from_rate_and_burst(double loss_rate,
                                                   double mean_burst) {
  CESRM_CHECK(loss_rate >= 0.0 && loss_rate < 1.0);
  CESRM_CHECK(mean_burst >= 1.0);
  const double p_bg = 1.0 / mean_burst;
  // ρ = p_gb / (p_gb + p_bg)  ⇒  p_gb = ρ p_bg / (1 − ρ)
  double p_gb = loss_rate * p_bg / (1.0 - loss_rate);
  if (p_gb > 1.0) p_gb = 1.0;
  return GilbertElliott(p_gb, p_bg);
}

double GilbertElliott::stationary_loss_rate() const {
  const double denom = p_gb_ + p_bg_;
  return denom > 0.0 ? p_gb_ / denom : 0.0;
}

double GilbertElliott::mean_burst_length() const {
  return p_bg_ > 0.0 ? 1.0 / p_bg_ : 0.0;
}

}  // namespace cesrm::trace
