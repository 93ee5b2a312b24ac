#include "util/stats.hpp"

namespace hyflow {

void Ewma::add(double x) {
  if (!seeded_) {
    value_ = x;
    seeded_ = true;
  } else {
    value_ = alpha_ * x + (1.0 - alpha_) * value_;
  }
}

}  // namespace hyflow
