// unlearn-mlp / unlearn-conv: a closed loop with one outstanding deletion
// request at a time. Each request asks the server to forget client 0's
// backdoored rows; it is served by Goldfish (early termination, adaptive
// temperature, adaptive aggregator), by B1 (retrain from scratch) and by B2
// (rapid retrain), all with the same round budget.
#include <cstring>
#include <iostream>
#include <mutex>

#include "baselines/rapid_retrain.h"
#include "baselines/retrain_scratch.h"
#include "core/unlearner.h"
#include "data/backdoor.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "metrics/evaluation.h"
#include "nn/models.h"
#include "probes.h"
#include "tensor/buffer_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Variant {
  const char* arch;
  long clients;
  long rows_per_client;
  long test_rows;
  long pretrain_rounds;  // federated training of the contaminated model
  long local_epochs;
  long batch;
  float lr;
  long rounds;          // per-request budget, the same for all three methods
  long distill_epochs;  // Goldfish upper bound (early termination may stop)
  float distill_lr;
  double acc_margin;    // quality target: accuracy within this many points
  std::vector<float> rates;  // client 0's poisoned share, one federation each
};

// Request k forgets the rows of federation k % rates.size(). mlp64: small
// dense GEMMs, so per-batch and per-round overheads dominate; every one of
// the paper's deletion rates gets a federation.
const Variant kMlp{"mlp64", 8, 500, 1000, 6, 2, 50, 0.05f, 3, 3, 0.05f, 5.0,
                   {0.02f, 0.04f, 0.06f, 0.08f, 0.10f, 0.12f}};
// lenet5: conv forward/backward through im2col + sgemm dominates. A smaller
// federation and three of the rates keep its set-up and requests short.
const Variant kConv{"lenet5", 4, 100, 200, 10, 2, 20, 0.05f, 4, 3, 0.02f, 10.0,
                    {0.04f, 0.08f, 0.12f}};

// Quality target of one Goldfish request: accuracy within the variant's
// margin of the contaminated model, and backdoor success at most this.
constexpr double kAsrCeiling = 15.0;

constexpr int kSetupReps = 3;

struct Federation {
  float rate = 0.0f;
  data::TrainTest tt;
  std::vector<data::Dataset> parts;  // client 0 poisoned
  std::vector<std::size_t> poisoned;
  data::Dataset probe;
  nn::Model fresh;    // ω0
  nn::Model trained;  // contaminated global model
  double accuracy = 0.0;
  double asr = 0.0;
};

fl::FlConfig train_config(const Variant& v, std::uint64_t seed) {
  fl::FlConfig cfg;
  cfg.local.epochs = v.local_epochs;
  cfg.local.batch_size = v.batch;
  cfg.local.lr = v.lr;
  cfg.seed = seed;
  return cfg;
}

Federation build_federation(const Variant& v, float rate, std::uint64_t seed) {
  Federation f;
  f.rate = rate;
  f.tt = data::make_synthetic(data::default_spec(
      data::DatasetKind::Mnist, seed, v.clients * v.rows_per_client,
      v.test_rows));
  Rng rng(mix_seed(seed, 0xFED, 0));
  f.parts = data::partition_iid(f.tt.train, v.clients, rng);
  data::BackdoorSpec spec;
  spec.target_label = 0;
  spec.patch = 4;
  data::PoisonResult poisoned =
      data::poison_dataset(f.parts[0], spec, rate, rng);
  f.parts[0] = std::move(poisoned.poisoned);
  f.poisoned = std::move(poisoned.poisoned_indices);
  f.probe = data::make_trigger_probe(f.tt.test, spec);

  Rng mrng(mix_seed(seed, 0x30DE1, 0));
  f.fresh = nn::make_model(v.arch, f.tt.train.geom, f.tt.train.num_classes,
                           mrng);
  fl::FederatedSim sim(f.fresh, f.parts, f.tt.test, train_config(v, seed));
  sim.run(v.pretrain_rounds);
  f.trained = sim.global_model();
  f.accuracy = metrics::accuracy(f.trained, f.tt.test);
  f.asr = metrics::attack_success_rate(f.trained, f.probe);
  return f;
}

std::vector<Federation> build_all(const Variant& v, std::uint64_t seed) {
  std::vector<Federation> feds;
  for (std::size_t i = 0; i < v.rates.size(); ++i)
    feds.push_back(build_federation(v, v.rates[i], mix_seed(seed, 0xF0, i)));
  return feds;
}

// What one served request produced.
struct Served {
  double seconds = 0.0;
  std::vector<fl::StepResult> steps;   // Goldfish: one per round
  std::vector<fl::RoundResult> rounds; // B1/B2
  std::vector<Tensor> params;          // final global model
  double accuracy = 0.0;
  double asr = 0.0;
  long epochs = 0;       // Goldfish distillation epochs, Σ clients and rounds
  long early_stops = 0;  // Goldfish clients that terminated early
  long long heap_allocs = 0;
  long long wire_bytes = 0;
};

bool same_rounds(const std::vector<fl::RoundResult>& a,
                 const std::vector<fl::RoundResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].round != b[i].round ||
        !same_bits(a[i].global_accuracy, b[i].global_accuracy) ||
        !same_bits(a[i].min_local_accuracy, b[i].min_local_accuracy) ||
        !same_bits(a[i].max_local_accuracy, b[i].max_local_accuracy) ||
        !same_bits(a[i].mean_local_accuracy, b[i].mean_local_accuracy) ||
        a[i].bytes_uplinked != b[i].bytes_uplinked)
      return false;
  return true;
}

core::UnlearnConfig unlearn_config(const Variant& v, std::uint64_t seed) {
  core::UnlearnConfig cfg;  // early termination + adaptive temperature on
  cfg.distill.max_epochs = v.distill_epochs;
  cfg.distill.batch_size = v.batch;
  cfg.distill.lr = v.distill_lr;
  cfg.aggregator = "adaptive";
  cfg.seed = seed;
  return cfg;
}

void evaluate(Served& s, nn::Model& model, const Federation& f) {
  trace::Scope span("metrics.eval");
  s.accuracy = metrics::accuracy(model, f.tt.test);
  s.asr = metrics::attack_success_rate(model, f.probe);
}

// Goldfish. `costs` non-null selects the traced run: timed model twins, the
// mirrored client update and a timed wire.
Served serve_goldfish(const Federation& f, const Variant& v,
                      std::uint64_t seed, ModelCosts* costs) {
  const nn::InputGeom geom = f.tt.train.geom;
  // Inputs the server already holds; copying them is not part of serving.
  nn::Model trained = costs ? timed_twin(f.trained, geom, *costs) : f.trained;
  nn::Model fresh = costs ? timed_twin(f.fresh, geom, *costs) : f.fresh;
  std::vector<data::Dataset> parts = f.parts;
  data::Dataset test = f.tt.test;
  const core::UnlearnConfig cfg = unlearn_config(v, seed);
  if (costs) costs->reset();

  Served out;
  std::mutex mu;
  std::unique_ptr<core::GoldfishUnlearner> ul;
  const std::size_t allocs0 = alloc_stats::heap_allocations();
  const std::int64_t t0 = trace::now_ns();
  {
    trace::Scope request("unlearn.request");
    {
      trace::Scope span("core.construct");
      ul = std::make_unique<core::GoldfishUnlearner>(
          std::move(trained), std::move(fresh), std::move(parts),
          std::move(test), cfg);
    }
    {
      trace::Scope span("data.split");
      ul->request_deletion({{0, f.poisoned}});
    }
    core::GoldfishUnlearner* u = ul.get();
    if (costs) {
      // The unlearner's own client update, step for step, with spans.
      u->engine().set_client_update([u, cfg, &mu, &out](
                                        std::size_t c, nn::Model& student,
                                        const data::Dataset& d_r, long round) {
        const RoundContext& ctx = round_context();
        trace::Scope update("fl.client_update", ctx.round.load(),
                            ctx.request.load());
        std::unique_ptr<nn::Model> teacher;
        {
          trace::Scope span("core.teacher_clone");
          teacher = std::make_unique<nn::Model>(u->teacher_model());
        }
        core::DistillOptions opts = cfg.distill;
        opts.seed = mix_seed(cfg.seed ^ 0xC0FFEEull, c,
                             static_cast<std::uint64_t>(round));
        const data::Dataset& d_f = u->removed_data(c);
        float ref = 0.0f;
        {
          trace::Scope span("core.reference_loss");
          ref = core::reference_loss_of(*teacher, d_r, opts);
        }
        core::DistillResult res;
        {
          trace::Scope span("core.distill");
          res = traced_distill(student, *teacher, d_r, d_f, ref, opts);
        }
        std::lock_guard<std::mutex> lock(mu);
        out.epochs += res.epochs_run;
        if (res.terminated_early) ++out.early_stops;
      });
    }
    for (long r = 0; r < v.rounds; ++r) {
      // One synchronous round per run, as GoldfishUnlearner::run_round.
      fl::Scenario sc = u->engine().sync_scenario(1, /*local_accuracy=*/false);
      TimedWire* wire = nullptr;
      if (costs) {
        auto w = std::make_unique<TimedWire>(std::make_unique<fl::DenseWire>());
        wire = w.get();
        sc.wire = std::move(w);
      }
      trace::Scope round("fl.round");
      round_context().round = round.id();
      u->engine().run(std::move(sc), [&](const fl::StepResult& s) {
        out.steps.push_back(s);
      });
      if (wire) out.wire_bytes += wire->bytes();
    }
  }
  out.seconds = seconds_since(t0);
  out.heap_allocs =
      static_cast<long long>(alloc_stats::heap_allocations() - allocs0);
  out.params = ul->global_model().snapshot();
  evaluate(out, ul->global_model(), f);
  return out;
}

// B1: federated retraining from scratch on the remaining data.
Served serve_b1(const Federation& f, const Variant& v, std::uint64_t seed,
                ModelCosts* costs) {
  const nn::InputGeom geom = f.tt.train.geom;
  nn::Model fresh = costs ? timed_twin(f.fresh, geom, *costs) : f.fresh;
  std::vector<data::Dataset> remaining = f.parts;
  data::Dataset test = f.tt.test;
  const fl::FlConfig cfg = train_config(v, seed);

  Served out;
  nn::Model model;
  const std::int64_t t0 = trace::now_ns();
  {
    trace::Scope request("b1.request");
    {
      trace::Scope span("data.split");
      remaining[0] =
          core::split_deletion(remaining[0], {0, f.poisoned}).remaining;
    }
    if (!costs) {
      out.rounds = baselines::retrain_from_scratch(
          fresh, std::move(remaining), std::move(test), cfg, v.rounds, &model);
    } else {
      // retrain_from_scratch's FederatedSim, with the engine's default
      // update (fl::train_local under the same seed mix) mirrored.
      fl::FederatedSim sim(fresh, std::move(remaining), std::move(test), cfg);
      sim.set_client_update([cfg](std::size_t cid, nn::Model& local,
                                  const data::Dataset& ds, long round) {
        const RoundContext& ctx = round_context();
        trace::Scope update("fl.client_update", ctx.round.load(),
                            ctx.request.load());
        fl::TrainOptions opts = cfg.local;
        opts.seed = mix_seed(cfg.seed, cid, static_cast<std::uint64_t>(round));
        traced_train_local(local, ds, opts);
      });
      for (long r = 0; r < v.rounds; ++r) {
        trace::Scope round("fl.round");
        round_context().round = round.id();
        out.rounds.push_back(sim.run_round());
      }
      model = sim.global_model();
    }
  }
  out.seconds = seconds_since(t0);
  out.params = model.snapshot();
  evaluate(out, model, f);
  return out;
}

// B2: rapid retraining. Its preconditioned local update is internal to the
// library, so the traced run brackets the whole call and times the Fisher
// pass (baselines::diagonal_fim) as its own call on the same inputs.
Served serve_b2(const Federation& f, const Variant& v, std::uint64_t seed,
                bool traced) {
  nn::Model trained = f.trained;
  std::vector<data::Dataset> remaining = f.parts;
  data::Dataset test = f.tt.test;
  baselines::RapidRetrainConfig cfg;
  cfg.fl = train_config(v, seed);

  Served out;
  nn::Model model;
  const std::int64_t t0 = trace::now_ns();
  {
    trace::Scope request("b2.request");
    {
      trace::Scope span("data.split");
      remaining[0] =
          core::split_deletion(remaining[0], {0, f.poisoned}).remaining;
    }
    trace::Scope span("baselines.rapid_retrain");
    baselines::rapid_retrain(f.fresh, trained, std::move(remaining),
                             std::move(test), cfg, v.rounds, &model);
  }
  out.seconds = seconds_since(t0);
  if (traced) {
    // rapid_retrain's Fisher input: the remaining rows of every client.
    data::Dataset pooled = core::split_deletion(f.parts[0], {0, f.poisoned})
                               .remaining;
    for (std::size_t c = 1; c < f.parts.size(); ++c)
      pooled = data::Dataset::concat(pooled, f.parts[c]);
    nn::Model probe_model = f.trained;
    const auto hard = losses::make_hard_loss(cfg.fl.local.loss);
    trace::Scope span("baselines.fim");
    baselines::diagonal_fim(probe_model, pooled, *hard, cfg.fl.local.batch_size);
  }
  out.params = model.snapshot();
  evaluate(out, model, f);
  return out;
}

struct Triple {
  Served goldfish, b1, b2;
};

std::uint64_t request_seed(std::uint64_t seed, std::size_t k, int method) {
  return mix_seed(seed, 0x5E5E0000ull + static_cast<std::uint64_t>(method), k);
}

bool meets_target(const Served& g, const Federation& f, const Variant& v) {
  return g.accuracy >= f.accuracy - v.acc_margin && g.asr <= kAsrCeiling;
}

std::string describe(std::size_t k, const Served& g, const Federation& f) {
  return "request " + std::to_string(k) + " (rate " +
         std::to_string(f.rate) + "): accuracy " + std::to_string(g.accuracy) +
         "% vs contaminated " + std::to_string(f.accuracy) + "%, ASR " +
         std::to_string(g.asr) + "%";
}

}  // namespace

Outcome run_unlearn(const Options& opt, bool conv) {
  const Variant& v = conv ? kConv : kMlp;
  std::vector<double> setup_s;
  std::vector<Federation> feds;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = trace::now_ns();
    feds = build_all(v, opt.seed);
    setup_s.push_back(seconds_since(t0));
  }
  std::cout << "set-up: " << v.arch << ", " << v.clients << " clients x "
            << v.rows_per_client << " rows, " << v.rates.size()
            << " contaminated federations (client 0 poisoned at 2-12%), "
            << v.rounds << " rounds per request\n";
  for (const Federation& f : feds)
    std::cout << "  rate " << f.rate << ": contaminated accuracy "
              << f.accuracy << "%, ASR " << f.asr << "%\n";

  Outcome out;
  const auto serve = [&](std::size_t k, ModelCosts* costs) {
    const Federation& f = feds[k % feds.size()];
    Triple t;
    t.goldfish = serve_goldfish(f, v, request_seed(opt.seed, k, 0), costs);
    t.b1 = serve_b1(f, v, request_seed(opt.seed, k, 1), costs);
    t.b2 = serve_b2(f, v, request_seed(opt.seed, k, 2), costs != nullptr);
    return t;
  };

  // Untraced closed loop. In trace mode it takes half the budget and the
  // traced pass then replays exactly the same requests.
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::vector<Triple> served;
  const std::int64_t loop0 = trace::now_ns();
  // Whole cycles over the federations, so every deletion rate weighs the
  // same in the medians.
  while (served.size() < feds.size() || served.size() % feds.size() != 0 ||
         seconds_since(loop0) < budget) {
    const std::size_t k = served.size();
    served.push_back(serve(k, nullptr));
    const Federation& f = feds[k % feds.size()];
    out.check(meets_target(served.back().goldfish, f, v),
              describe(k, served.back().goldfish, f));
  }

  std::vector<double> unlearn, retrain, rapid, acc, asr, b1acc, b2acc;
  for (const Triple& t : served) {
    unlearn.push_back(t.goldfish.seconds);
    retrain.push_back(t.b1.seconds);
    rapid.push_back(t.b2.seconds);
    acc.push_back(t.goldfish.accuracy);
    asr.push_back(t.goldfish.asr);
    b1acc.push_back(t.b1.accuracy);
    b2acc.push_back(t.b2.accuracy);
  }

  if (!opt.trace) {
    std::cout << "end-to-end (" << served.size() << " requests):\n";
    print_timing("unlearn_s", unlearn);
    print_timing("unlearn_s, mean per cycle over the deletion rates",
                 cycle_means(unlearn, feds.size()));
    print_timing("retrain_s", retrain);
    print_timing("rapid_retrain_s", rapid);
    print_value("accuracy_pct", median(cycle_means(acc, feds.size())), "%",
                "Goldfish accuracy, median of per-cycle means");
    print_value("asr_pct", median(asr), "%", "median Goldfish ASR");
    print_value("b1_accuracy_pct", median(b1acc), "%");
    print_value("b2_accuracy_pct", median(b2acc), "%");
    print_value("failed_frac", double(out.failed) / double(out.attempted),
                "ratio",
                "target: accuracy within " + std::to_string(v.acc_margin) +
                    " points of the contaminated model and ASR <= " +
                    std::to_string(kAsrCeiling) + "%");
    print_value("speedup_vs_retrain", median(retrain) / median(unlearn), "x",
                "not gated: retrain_s median " +
                    std::to_string(median(retrain)) + " s / unlearn_s median " +
                    std::to_string(median(unlearn)) + " s");
    print_timing("setup_s", setup_s);
    out.add("request_s", median(cycle_means(unlearn, feds.size())), "s");
    out.add("accuracy_pct", median(cycle_means(acc, feds.size())), "%");
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  // Traced pass over the same requests.
  ModelCosts costs;
  LayerMetrics lm;
  std::vector<trace::Span> all_spans;
  double traced_s = 0.0, untraced_s = 0.0;
  // Unit-cost probes, measured once at the first request's shapes.
  double gflops = 0.0, agg_s = 0.0, eval_s = 0.0;
  std::vector<double> im2col_row, col2im_row;
  trace::set_enabled(true);
  for (std::size_t k = 0; k < served.size(); ++k) {
    const Federation& f = feds[k % feds.size()];
    const std::uint64_t rid = 3 * k + 1;
    trace::RequestScope request(rid);
    round_context().request = rid;
    Triple t;
    t.goldfish = serve_goldfish(f, v, request_seed(opt.seed, k, 0), &costs);
    std::vector<trace::Span> g_spans = trace::drain();
    const double flops = costs.gemm_flops();
    std::vector<long long> conv_fwd, conv_bwd;
    for (const LayerCost* c : costs.convs()) {
      conv_fwd.push_back(c->fwd_rows.load());
      conv_bwd.push_back(c->bwd_rows.load());
    }
    round_context().request = rid + 1;
    t.b1 = serve_b1(f, v, request_seed(opt.seed, k, 1), &costs);
    std::vector<trace::Span> b1_spans = trace::drain();
    round_context().request = rid + 2;
    t.b2 = serve_b2(f, v, request_seed(opt.seed, k, 2), true);
    std::vector<trace::Span> b2_spans = trace::drain();

    const Triple& u = served[k];
    out.require(same_steps(t.goldfish.steps, u.goldfish.steps) &&
                    same_params(t.goldfish.params, u.goldfish.params) &&
                    same_bits(t.goldfish.accuracy, u.goldfish.accuracy),
                "traced Goldfish request " + std::to_string(k) +
                    " differs from the untraced run");
    out.require(same_rounds(t.b1.rounds, u.b1.rounds) &&
                    same_params(t.b1.params, u.b1.params),
                "traced B1 request " + std::to_string(k) +
                    " differs from the untraced run");
    out.require(same_params(t.b2.params, u.b2.params),
                "traced B2 request " + std::to_string(k) +
                    " differs from the untraced run");
    out.check(meets_target(t.goldfish, f, v), describe(k, t.goldfish, f));
    // The first cycle also warms pools and caches; leave it out when there
    // are more.
    if (k >= feds.size() || served.size() == feds.size()) {
      traced_s += t.goldfish.seconds + t.b1.seconds;
      untraced_s += u.goldfish.seconds + u.b1.seconds;
    }

    const LayerTimes g = layer_times(g_spans);
    const LayerTimes b1 = layer_times(b1_spans);
    const LayerTimes b2 = layer_times(b2_spans);
    lm.add("core.distill_s", g.self("core.distill"), "s");
    lm.add("core.reference_loss_s", g.self("core.reference_loss"), "s");
    lm.add("core.teacher_clone_s", g.self("core.teacher_clone"), "s");
    lm.add("core.epochs_run", double(t.goldfish.epochs), "count");
    lm.add("core.early_stops", double(t.goldfish.early_stops), "count");
    std::vector<double> rounds;
    for (const trace::Span& s : g_spans)
      if (std::strcmp(s.name, "fl.round") == 0)
        rounds.push_back(double(s.end_ns - s.start_ns) * 1e-9);
    lm.add("fl.round_s", median(rounds), "s");
    lm.add("fl.engine_self_s", g.self("fl.round"), "s");
    lm.add("fl.client_update_s", g.inclusive("fl.client_update"), "s");
    lm.add("fl.client_wait_s", median(client_waits(g_spans)), "s");
    lm.add("fl.wire_encode_s", g.self("fl.wire_encode"), "s");
    lm.add("fl.wire_decode_s", g.self("fl.wire_decode"), "s");
    lm.add("fl.wire_bytes", double(t.goldfish.wire_bytes), "bytes");
    long consumed = 0, dropped = 0;
    for (const fl::StepResult& s : t.goldfish.steps) {
      consumed += s.updates_consumed;
      dropped += s.dropped_updates;
    }
    lm.add("fl.update_yield",
           double(consumed) / double(g.count("fl.client_update")), "ratio");
    lm.add("fl.dropped_updates", double(dropped), "count");
    for (const char* name :
         {"nn.linear.fwd", "nn.linear.bwd", "nn.conv2d.fwd", "nn.conv2d.bwd",
          "nn.pool.fwd", "nn.pool.bwd", "nn.relu.fwd", "nn.relu.bwd",
          "nn.sgd_step", "losses.remaining", "losses.forget", "data.batch",
          "data.split"})
      lm.add(std::string(name) + "_s", g.self(name), "s");
    lm.add("losses.hard_s", b1.self("losses.hard"), "s");
    lm.add("baselines.fim_s", b2.self("baselines.fim"), "s");
    lm.add("baselines.b1_accuracy_pct", t.b1.accuracy, "%");
    lm.add("baselines.b2_accuracy_pct", t.b2.accuracy, "%");
    if (alloc_stats::enabled())
      lm.add("tensor.heap_allocs", double(t.goldfish.heap_allocs), "count");
    if (k == 0) {
      trace::set_enabled(false);
      gflops = probe_gemm_gflops(costs, v.batch);
      agg_s = probe_aggregate("adaptive", f.trained, f.tt.test, v.clients);
      eval_s = probe_eval(f.trained, f.tt.test);
      for (const LayerCost* c : costs.convs()) {
        im2col_row.push_back(probe_im2col_per_row(*c, v.batch));
        col2im_row.push_back(probe_col2im_per_row(*c, v.batch));
      }
      trace::set_enabled(true);
    }
    lm.add("runtime.sgemm_gflops", gflops, "GFLOP/s");
    lm.add("runtime.sgemm_s", flops / (gflops * 1e9), "s");
    lm.add("fl.aggregate_s", agg_s * double(v.rounds), "s");
    lm.add("metrics.eval_s", eval_s * double(v.rounds), "s");
    double im2col = 0.0, col2im = 0.0;
    for (std::size_t i = 0; i < conv_fwd.size(); ++i) {
      im2col += double(conv_fwd[i]) * im2col_row[i];
      col2im += double(conv_bwd[i]) * col2im_row[i];
    }
    lm.add("tensor.im2col_s", im2col, "s");
    lm.add("tensor.col2im_s", col2im, "s");
    all_spans.insert(all_spans.end(), g_spans.begin(), g_spans.end());
    all_spans.insert(all_spans.end(), b1_spans.begin(), b1_spans.end());
    all_spans.insert(all_spans.end(), b2_spans.begin(), b2_spans.end());
  }
  trace::set_enabled(false);
  finish_traced(lm, out, opt, all_spans, traced_s, untraced_s);
  return out;
}

}  // namespace perfbench
