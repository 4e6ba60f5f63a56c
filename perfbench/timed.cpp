#include "timed.h"

#include "core/early_termination.h"
#include "losses/goldfish_loss.h"
#include "nn/activations.h"
#include "nn/conv.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "nn/sgd.h"
#include "tensor/check.h"
#include "trace.h"

namespace perfbench {
namespace {

class TimedLayer final : public nn::Layer {
 public:
  TimedLayer(const char* fwd_name, const char* bwd_name,
             std::unique_ptr<nn::Layer> inner, std::shared_ptr<LayerCost> cost)
      : fwd_name_(fwd_name),
        bwd_name_(bwd_name),
        inner_(std::move(inner)),
        cost_(std::move(cost)) {}

  const Tensor& forward(const Tensor& x, bool train) override {
    trace::Scope span(fwd_name_);
    cost_->fwd_rows.fetch_add(x.dim(0), std::memory_order_relaxed);
    return inner_->forward(x, train);
  }
  const Tensor& backward(const Tensor& g) override {
    trace::Scope span(bwd_name_);
    cost_->bwd_rows.fetch_add(g.dim(0), std::memory_order_relaxed);
    return inner_->backward(g);
  }
  std::vector<nn::ParamRef> params() override { return inner_->params(); }
  std::unique_ptr<nn::Layer> clone() const override {
    return std::make_unique<TimedLayer>(fwd_name_, bwd_name_, inner_->clone(),
                                        cost_);
  }
  std::string name() const override { return inner_->name(); }
  void attach_workspace(nn::Workspace* ws, std::size_t& next_key) override {
    inner_->attach_workspace(ws, next_key);
  }

 private:
  const char* fwd_name_;
  const char* bwd_name_;
  std::unique_ptr<nn::Layer> inner_;
  std::shared_ptr<LayerCost> cost_;
};

// The cost entry for the `next`-th timed unit of a model: every model built
// into the same ModelCosts shares one entry per unit position.
std::shared_ptr<LayerCost> add_cost(ModelCosts& costs, std::size_t& next,
                                    LayerCost::Kind kind, long in, long out) {
  if (next < costs.layers.size()) {
    std::shared_ptr<LayerCost> c = costs.layers[next++];
    GOLDFISH_CHECK(c->kind == kind && c->in == in && c->out == out,
                   "ModelCosts shared by different architectures");
    return c;
  }
  auto c = std::make_shared<LayerCost>();
  c->kind = kind;
  c->in = in;
  c->out = out;
  costs.layers.push_back(c);
  ++next;
  return c;
}

// Linear (optionally followed by ReLU) as one timed unit: the inner
// Sequential keeps the library's Linear→ReLU peephole fusion.
std::unique_ptr<nn::Layer> timed_linear(long in, long out, bool relu,
                                        Rng& rng, ModelCosts& costs,
                                        std::size_t& next) {
  auto unit = std::make_unique<nn::Sequential>();
  unit->add(std::make_unique<nn::Linear>(in, out, rng));
  if (relu) unit->add(std::make_unique<nn::ReLU>());
  return std::make_unique<TimedLayer>(
      "nn.linear.fwd", "nn.linear.bwd", std::move(unit),
      add_cost(costs, next, LayerCost::kLinear, in, out));
}

std::unique_ptr<nn::Layer> timed_conv(const Conv2dGeom& g, long out,
                                      Rng& rng, ModelCosts& costs,
                                      std::size_t& next) {
  auto cost = add_cost(costs, next, LayerCost::kConv, g.in_channels, out);
  cost->geom = g;
  return std::make_unique<TimedLayer>(
      "nn.conv2d.fwd", "nn.conv2d.bwd",
      std::make_unique<nn::Conv2d>(g.in_channels, out, g.kernel, g.stride,
                                   g.pad, g.in_h, g.in_w, rng),
      cost);
}

std::unique_ptr<nn::Layer> timed_relu(ModelCosts& costs, std::size_t& next) {
  return std::make_unique<TimedLayer>("nn.relu.fwd", "nn.relu.bwd",
                                      std::make_unique<nn::ReLU>(),
                                      add_cost(costs, next, LayerCost::kRelu, 0, 0));
}

std::unique_ptr<nn::Layer> timed_pool(ModelCosts& costs, std::size_t& next) {
  return std::make_unique<TimedLayer>("nn.pool.fwd", "nn.pool.bwd",
                                      std::make_unique<nn::MaxPool2d>(2, 2),
                                      add_cost(costs, next, LayerCost::kPool, 0, 0));
}

}  // namespace

double LayerCost::fwd_flops_per_row() const {
  switch (kind) {
    case kLinear:
      return 2.0 * double(in) * double(out);
    case kConv:
      return 2.0 * double(geom.out_h() * geom.out_w()) *
             double(geom.patch_size()) * double(out);
    default:
      return 0.0;
  }
}

void ModelCosts::reset() {
  for (auto& l : layers) {
    l->fwd_rows = 0;
    l->bwd_rows = 0;
  }
}

double ModelCosts::gemm_flops() const {
  double f = 0.0;
  for (const auto& l : layers)
    f += l->fwd_flops_per_row() *
         (double(l->fwd_rows.load()) + 2.0 * double(l->bwd_rows.load()));
  return f;
}

std::vector<const LayerCost*> ModelCosts::convs() const {
  std::vector<const LayerCost*> out;
  for (const auto& l : layers)
    if (l->kind == LayerCost::kConv) out.push_back(l.get());
  return out;
}

nn::Model timed_model(const std::string& arch, const nn::InputGeom& in,
                      long num_classes, ModelCosts& costs) {
  Rng rng(0x7153D);  // placeholder weights; callers load real ones
  std::size_t next = 0;
  auto net = std::make_unique<nn::Sequential>();
  if (arch.rfind("mlp", 0) == 0) {
    const long hidden = std::stol(arch.substr(3));
    net->add(timed_linear(in.flat(), hidden, /*relu=*/true, rng, costs, next));
    net->add(timed_linear(hidden, num_classes, /*relu=*/false, rng, costs, next));
  } else if (arch == "lenet5") {
    // Same layer sequence and shapes as nn::make_lenet5.
    net->add(std::make_unique<nn::Unflatten>(in.channels, in.height,
                                             in.width));
    net->add(timed_conv({in.channels, in.height, in.width, 5, 1, 2}, 6, rng,
                        costs, next));
    net->add(timed_relu(costs, next));
    net->add(timed_pool(costs, next));
    const long h1 = in.height / 2, w1 = in.width / 2;
    net->add(timed_conv({6, h1, w1, 5, 1, 0}, 16, rng, costs, next));
    net->add(timed_relu(costs, next));
    net->add(timed_pool(costs, next));
    const long h2 = (h1 - 4) / 2, w2 = (w1 - 4) / 2;
    net->add(std::make_unique<nn::Flatten>());
    net->add(timed_linear(16 * h2 * w2, 120, /*relu=*/true, rng, costs, next));
    net->add(timed_linear(120, num_classes, /*relu=*/false, rng, costs, next));
  } else {
    GOLDFISH_CHECK(false, "timed_model: unsupported architecture " + arch);
  }
  return nn::Model(arch, std::move(net), num_classes);
}

nn::Model timed_twin(const nn::Model& lib, const nn::InputGeom& geom,
                     ModelCosts& costs) {
  nn::Model m = timed_model(lib.arch_name(), geom, lib.num_classes(), costs);
  m.load(lib.snapshot());
  return m;
}

RoundContext& round_context() {
  static RoundContext ctx;
  return ctx;
}

TimedWire::TimedWire(std::unique_ptr<fl::WirePolicy> inner)
    : inner_(std::move(inner)) {}

void TimedWire::encode(const std::vector<Tensor>& params,
                       const std::vector<Tensor>* reference,
                       std::string& out) const {
  const RoundContext& ctx = round_context();
  trace::Scope span("fl.wire_encode", ctx.round.load(), ctx.request.load());
  inner_->encode(params, reference, out);
  bytes_.fetch_add(static_cast<long long>(out.size()));
}

std::vector<Tensor> TimedWire::decode(
    const char* data, std::size_t size,
    const std::vector<Tensor>* reference) const {
  const RoundContext& ctx = round_context();
  trace::Scope span("fl.wire_decode", ctx.round.load(), ctx.request.load());
  return inner_->decode(data, size, reference);
}

void traced_train_local(nn::Model& model, const data::Dataset& ds,
                        const fl::TrainOptions& opts) {
  GOLDFISH_CHECK(!ds.empty(), "training on an empty dataset");
  auto loss = losses::make_hard_loss(opts.loss);
  nn::Sgd::Options sgd_opts;
  sgd_opts.lr = opts.lr;
  sgd_opts.momentum = opts.momentum;
  nn::Sgd sgd(sgd_opts);
  Rng rng(opts.seed);
  model.zero_grad();

  Tensor x;
  std::vector<long> y;
  for (long e = 0; e < opts.epochs; ++e) {
    data::BatchIterator it(ds, opts.batch_size, rng);
    for (std::size_t b = 0; b < it.num_batches(); ++b) {
      {
        trace::Scope span("data.batch");
        const auto [idx, count] = it.batch_span(b);
        ds.batch_into(idx, count, x, y);
      }
      const Tensor& logits = model.forward(x, /*train=*/true);
      losses::LossResult r;
      {
        trace::Scope span("losses.hard");
        r = loss->eval(logits, y);
      }
      model.backward(r.grad_logits);
      trace::Scope span("nn.sgd_step");
      sgd.step(model);
    }
  }
}

core::DistillResult traced_distill(nn::Model& student, nn::Model& teacher,
                                   const data::Dataset& d_r,
                                   const data::Dataset& d_f,
                                   float reference_loss,
                                   const core::DistillOptions& opts) {
  GOLDFISH_CHECK(!d_r.empty(), "remaining dataset is empty");
  losses::GoldfishLossConfig loss_cfg = opts.loss;
  if (opts.use_adaptive_temperature)
    loss_cfg.temperature = opts.temperature(d_r.size(), d_f.size());
  const losses::GoldfishLoss loss(loss_cfg);

  nn::Sgd::Options sgd_opts;
  sgd_opts.lr = opts.lr;
  sgd_opts.momentum = opts.momentum;
  nn::Sgd sgd(sgd_opts);
  Rng rng(opts.seed);

  core::ExcessRiskTracker tracker(reference_loss, opts.delta);
  core::DistillResult result;
  result.temperature_used = loss_cfg.temperature;

  const bool have_forget = !d_f.empty();
  for (long epoch = 0; epoch < opts.max_epochs; ++epoch) {
    data::BatchIterator it_r(d_r, opts.batch_size, rng);
    data::BatchIterator it_f(have_forget ? d_f : d_r, opts.batch_size, rng);
    const std::size_t f_batches = have_forget ? it_f.num_batches() : 0;

    double epoch_loss = 0.0;
    double epoch_hard = 0.0;
    for (std::size_t b = 0; b < it_r.num_batches(); ++b) {
      double step_loss = 0.0;
      {
        std::pair<Tensor, std::vector<long>> batch;
        {
          trace::Scope span("data.batch");
          batch = d_r.batch(it_r.batch_indices(b));
        }
        const Tensor& teacher_logits = teacher.forward(batch.first, false);
        const Tensor& student_logits = student.forward(batch.first, true);
        losses::GoldfishBatchLoss lr;
        {
          trace::Scope span("losses.remaining");
          lr = loss.eval_remaining(student_logits, batch.second,
                                   teacher_logits);
        }
        student.backward(lr.grad_r);
        step_loss += lr.total;
        epoch_hard += lr.hard_r;
      }
      if (have_forget) {
        std::pair<Tensor, std::vector<long>> batch;
        {
          trace::Scope span("data.batch");
          batch = d_f.batch(it_f.batch_indices(b % f_batches));
        }
        const Tensor& student_logits_f = student.forward(batch.first, true);
        losses::GoldfishBatchLoss lf;
        {
          trace::Scope span("losses.forget");
          lf = loss.eval_forget(student_logits_f, batch.second);
        }
        student.backward(lf.grad_f);
        step_loss += lf.total;
      }
      {
        trace::Scope span("nn.sgd_step");
        sgd.step(student);
      }
      epoch_loss += step_loss;
    }
    const float mean_loss =
        static_cast<float>(epoch_loss / double(it_r.num_batches()));
    result.epoch_losses.push_back(mean_loss);
    ++result.epochs_run;
    tracker.record_epoch(
        static_cast<float>(epoch_hard / double(it_r.num_batches())));
    if (opts.use_early_termination && tracker.should_stop()) {
      result.terminated_early = true;
      break;
    }
  }
  result.final_excess_risk = tracker.excess_risk();
  return result;
}

}  // namespace perfbench
