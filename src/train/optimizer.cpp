#include "train/optimizer.h"

#include <cmath>

namespace gnn4ip::train {
namespace {

constexpr float kBeta1 = 0.9F;
constexpr float kBeta2 = 0.999F;
constexpr float kEps = 1e-8F;

}  // namespace

Adam::Adam(std::vector<tensor::Parameter*> params, float lr)
    : params_(std::move(params)), lr_(lr) {
  first_moment_.reserve(params_.size());
  second_moment_.reserve(params_.size());
  for (tensor::Parameter* p : params_) {
    first_moment_.emplace_back(p->value.rows(), p->value.cols(), 0.0F);
    second_moment_.emplace_back(p->value.rows(), p->value.cols(), 0.0F);
  }
}

void Adam::step() {
  ++step_count_;
  const float bias1 = 1.0F - std::pow(kBeta1, static_cast<float>(step_count_));
  const float bias2 = 1.0F - std::pow(kBeta2, static_cast<float>(step_count_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    tensor::Parameter& p = *params_[i];
    auto m = first_moment_[i].data();
    auto v = second_moment_[i].data();
    const auto gd = p.grad.data();
    auto w = p.value.data();
    for (std::size_t j = 0; j < gd.size(); ++j) {
      m[j] = kBeta1 * m[j] + (1.0F - kBeta1) * gd[j];
      v[j] = kBeta2 * v[j] + (1.0F - kBeta2) * gd[j] * gd[j];
      const float m_hat = m[j] / bias1;
      const float v_hat = v[j] / bias2;
      w[j] -= lr_ * m_hat / (std::sqrt(v_hat) + kEps);
    }
  }
}

}  // namespace gnn4ip::train
