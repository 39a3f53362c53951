#include "nn/optim.hpp"

#include <cmath>

namespace iwg::nn {

void Sgdm::step(const std::vector<Param*>& params) {
  for (Param* p : params) {
    TensorF& vel = velocity_[p];
    if (vel.empty()) {
      vel.reset(std::vector<std::int64_t>(
          {p->value.size()}));
    }
    const TensorF& grad = p->ensure_grad();
    for (std::int64_t i = 0; i < p->value.size(); ++i) {
      vel[i] = momentum_ * vel[i] + grad[i];
      p->value[i] -= lr_ * vel[i];
    }
    ++p->version;
  }
}

void Adam::step(const std::vector<Param*>& params) {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (Param* p : params) {
    TensorF& m = m_[p];
    TensorF& v = v_[p];
    if (m.empty()) {
      m.reset(std::vector<std::int64_t>({p->value.size()}));
      v.reset(std::vector<std::int64_t>({p->value.size()}));
    }
    const TensorF& grad = p->ensure_grad();
    for (std::int64_t i = 0; i < p->value.size(); ++i) {
      const float g = grad[i];
      m[i] = beta1_ * m[i] + (1.0f - beta1_) * g;
      v[i] = beta2_ * v[i] + (1.0f - beta2_) * g * g;
      const float mh = m[i] / bc1;
      const float vh = v[i] / bc2;
      p->value[i] -= lr_ * mh / (std::sqrt(vh) + eps_);
    }
    ++p->version;
  }
}

}  // namespace iwg::nn
