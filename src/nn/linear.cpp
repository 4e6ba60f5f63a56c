#include "nn/linear.h"

#include <cmath>
#include <sstream>

#include "tensor/ops.h"

namespace goldfish::nn {

Linear::Linear(long in_features, long out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_(Tensor::randn({out_features, in_features}, rng, 0.0f,
                            std::sqrt(2.0f / static_cast<float>(in_features)))),
      bias_(Tensor::zeros({out_features})),
      grad_weight_(Tensor::zeros({out_features, in_features})),
      grad_bias_(Tensor::zeros({out_features})) {
  GOLDFISH_CHECK(in_features > 0 && out_features > 0, "bad linear dims");
}

const Tensor& Linear::forward(const Tensor& x, bool /*train*/) {
  GOLDFISH_CHECK(x.rank() == 2 && x.dim(1) == in_,
                 "linear input shape " + x.shape_str());
  cached_input_ = x;  // member copy: capacity reused across steps
  // The bias rides the GEMM writeback — no extra pass.
  Tensor& y = slot(0, {x.dim(0), out_});
  gemm_fused_into(y, x, weight_, false, true, runtime::Epilogue::kBiasCol,
                  bias_);  // (N, out)
  return y;
}

const Tensor& Linear::backward(const Tensor& grad_output) {
  GOLDFISH_CHECK(grad_output.rank() == 2 && grad_output.dim(1) == out_,
                 "linear grad shape");
  GOLDFISH_CHECK(!cached_input_.empty(), "backward before forward");
  // dW = gradᵀ · x (accumulated in place) ; db = column sums ; dx = grad · W
  gemm_acc(grad_weight_, grad_output, cached_input_, true, false);
  const long n = grad_output.dim(0);
  for (long i = 0; i < n; ++i)
    for (long j = 0; j < out_; ++j)
      grad_bias_[std::size_t(j)] += grad_output.at(i, j);
  Tensor& dx = slot(1, {n, in_});
  gemm_into(dx, grad_output, weight_, false, false);
  return dx;
}

std::vector<ParamRef> Linear::params() {
  return {{"weight", &weight_, &grad_weight_},
          {"bias", &bias_, &grad_bias_}};
}

std::unique_ptr<Layer> Linear::clone() const {
  auto copy = std::make_unique<Linear>(*this);
  copy->grad_weight_.zero();
  copy->grad_bias_.zero();
  copy->cached_input_ = Tensor();
  return copy;
}

std::string Linear::name() const {
  std::ostringstream os;
  os << "linear(" << in_ << "->" << out_ << ")";
  return os.str();
}

}  // namespace goldfish::nn
