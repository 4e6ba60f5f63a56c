// shard-delete: a closed loop of deletion requests against one client's
// core::ShardManager (τ shards, mlp64) — the paper's data-partition
// mechanism. Requests alternate between colocated rows (all in one shard:
// one shard retrains) and scattered rows (one per shard: every shard
// retrains, so sharding saves nothing — the bypass case). Each request is
// delete_rows + the Eq. 8 aggregate. The manager is restored from its
// trained state every kResetEvery requests so the client never runs dry.
#include <algorithm>
#include <iostream>
#include <set>

#include "core/sharding.h"
#include "data/synthetic.h"
#include "metrics/evaluation.h"
#include "nn/models.h"
#include "probes.h"
#include "tensor/buffer_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr long kShards = 8;  // τ
constexpr long kRows = 4000;
constexpr long kTestRows = 1000;
constexpr long kRowsPerRequest = 8;
constexpr int kResetEvery = 16;
constexpr int kSetupReps = 3;
// Quality target: the aggregate model's accuracy stays within this many
// points of the trained manager's.
constexpr double kAccMargin = 5.0;

fl::TrainOptions shard_train_options(std::uint64_t seed) {
  fl::TrainOptions o;
  o.epochs = 3;
  o.batch_size = 50;
  o.lr = 0.05f;
  o.seed = seed;
  return o;
}

struct Client {
  data::TrainTest tt;
  nn::Model init;
  std::unique_ptr<core::ShardManager> trained;  // restored on reset
  double accuracy = 0.0;
};

// `costs` non-null builds the shard models from a timed twin of the same
// initial weights (the traced run).
std::unique_ptr<core::ShardManager> build_manager(const Client& c,
                                                  std::uint64_t seed,
                                                  ModelCosts* costs) {
  const nn::Model init =
      costs ? timed_twin(c.init, c.tt.train.geom, *costs) : c.init;
  Rng rng(mix_seed(seed, 0x5A4D, 0));
  auto m = std::make_unique<core::ShardManager>(init, c.tt.train, kShards, rng);
  m->train_all(shard_train_options(mix_seed(seed, 0x7A1, 0)));
  return m;
}

double accuracy_of(const std::vector<Tensor>& params, const Client& c) {
  nn::Model m = c.init;
  m.load(params);
  return metrics::accuracy(m, c.tt.test);
}

Client build_client(std::uint64_t seed) {
  Client c;
  c.tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, seed, kRows, kTestRows));
  Rng rng(mix_seed(seed, 0x30DE1, 0));
  c.init = nn::make_model("mlp64", c.tt.train.geom, c.tt.train.num_classes,
                          rng);
  c.trained = build_manager(c, seed, nullptr);
  c.accuracy = accuracy_of(c.trained->aggregate(), c);
  return c;
}

// Request k's rows: colocated (even k) draws kRowsPerRequest live rows of
// one shard, scattered (odd k) one live row from each of kRowsPerRequest
// shards.
std::vector<std::size_t> request_rows(const core::ShardManager& m,
                                      std::uint64_t seed, std::size_t k) {
  Rng rng(mix_seed(seed, 0xDE1, k));
  std::vector<std::size_t> rows;
  const auto pick = [&](long shard, long n) {
    std::vector<std::size_t> ids = m.shard_row_ids(shard);
    rng.shuffle(ids);
    for (long i = 0; i < n && i < long(ids.size()); ++i) rows.push_back(ids[i]);
  };
  if (k % 2 == 0) {
    pick(static_cast<long>(rng.uniform_index(kShards)), kRowsPerRequest);
  } else {
    for (long s = 0; s < kRowsPerRequest; ++s) pick(s % kShards, 1);
  }
  return rows;
}

struct Served {
  double seconds = 0.0;
  core::ShardManager::DeletionReport report;
  std::vector<Tensor> params;
  double accuracy = 0.0;
  long rows_held = 0;
  long long heap_allocs = 0;
};

Served serve(core::ShardManager& m, const std::vector<std::size_t>& rows,
             std::uint64_t seed, std::size_t k, const Client& c) {
  Served s;
  s.rows_held = m.total_rows();
  const fl::TrainOptions opts = shard_train_options(mix_seed(seed, 0x7A2, k));
  const std::size_t allocs0 = alloc_stats::heap_allocations();
  const std::int64_t t0 = trace::now_ns();
  {
    trace::Scope request("shard.request");
    {
      trace::Scope span("core.shard_retrain");
      s.report = m.delete_rows(rows, opts);
    }
    trace::Scope span("core.shard_aggregate");
    s.params = m.aggregate();
  }
  s.seconds = seconds_since(t0);
  s.heap_allocs =
      static_cast<long long>(alloc_stats::heap_allocations() - allocs0);
  trace::Scope span("metrics.eval");
  s.accuracy = accuracy_of(s.params, c);
  return s;
}

// Check the request's outputs: every requested row is gone from every shard
// and the aggregate meets the quality target.
void check(const core::ShardManager& m, const std::vector<std::size_t>& rows,
           const Served& s, const Client& c, std::size_t k, Outcome& out) {
  const std::set<std::size_t> gone(rows.begin(), rows.end());
  bool clean = true;
  for (long sh = 0; sh < m.num_shards(); ++sh)
    for (std::size_t id : m.shard_row_ids(sh))
      if (gone.count(id) != 0) clean = false;
  out.require(clean, "request " + std::to_string(k) +
                         ": a deleted row id remains in a shard");
  out.require(s.report.rows_deleted == long(rows.size()),
              "request " + std::to_string(k) + ": deleted " +
                  std::to_string(s.report.rows_deleted) + " of " +
                  std::to_string(rows.size()) + " rows");
  out.check(s.accuracy >= c.accuracy - kAccMargin,
            "request " + std::to_string(k) + ": accuracy " +
                std::to_string(s.accuracy) + "% vs trained " +
                std::to_string(c.accuracy) + "%");
}

}  // namespace

Outcome run_shard(const Options& opt) {
  std::vector<double> setup_s;
  Client c;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = trace::now_ns();
    c = build_client(opt.seed);
    setup_s.push_back(seconds_since(t0));
  }
  std::cout << "set-up: one client, " << kRows << " rows in " << kShards
            << " shards (mlp64), trained aggregate accuracy " << c.accuracy
            << "%; " << kRowsPerRequest << " rows per request\n";

  Outcome out;
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::vector<Served> served;
  std::vector<std::vector<std::size_t>> requests;
  std::unique_ptr<core::ShardManager> m;
  const std::int64_t loop0 = trace::now_ns();
  while (served.size() < 4 || served.size() % 2 != 0 ||
         seconds_since(loop0) < budget) {
    const std::size_t k = served.size();
    if (k % kResetEvery == 0) m = std::make_unique<core::ShardManager>(*c.trained);
    requests.push_back(request_rows(*m, opt.seed, k));
    served.push_back(serve(*m, requests.back(), opt.seed, k, c));
    check(*m, requests.back(), served.back(), c, k, out);
  }

  if (!opt.trace) {
    std::vector<double> all, colocated, scattered, acc;
    for (std::size_t k = 0; k < served.size(); ++k) {
      all.push_back(served[k].seconds);
      (k % 2 == 0 ? colocated : scattered).push_back(served[k].seconds);
      acc.push_back(served[k].accuracy);
    }
    const std::vector<double> pairs = cycle_means(all, 2);
    std::cout << "end-to-end (" << served.size() << " requests):\n";
    print_timing("shard_delete_s", all);
    print_timing("shard_delete_s colocated (one shard retrains)", colocated);
    print_timing("shard_delete_s scattered (every shard retrains)", scattered);
    print_timing("shard_delete_s, mean per colocated + scattered pair", pairs);
    print_value("accuracy_pct", median(cycle_means(acc, 2)), "%",
                "median of per-pair means");
    print_value("failed_frac", double(out.failed) / double(out.attempted),
                "ratio", "target: accuracy within 5 points of the trained "
                         "manager's");
    print_timing("setup_s", setup_s);
    out.add("request_s", median(pairs), "s");
    out.add("accuracy_pct", median(cycle_means(acc, 2)), "%");
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  // Traced pass: a manager over timed models replays the same requests.
  ModelCosts costs;
  const std::unique_ptr<core::ShardManager> timed_trained =
      build_manager(c, opt.seed, &costs);
  out.require(same_params(timed_trained->aggregate(), c.trained->aggregate()),
              "timed shard manager differs from the untraced one after "
              "training");
  const double gflops = probe_gemm_gflops(costs, 50);
  LayerMetrics lm;
  std::vector<trace::Span> all_spans;
  double traced_s = 0.0, untraced_s = 0.0;
  trace::set_enabled(true);
  for (std::size_t k = 0; k < served.size(); ++k) {
    if (k % kResetEvery == 0)
      m = std::make_unique<core::ShardManager>(*timed_trained);
    trace::RequestScope request(k + 1);
    costs.reset();
    const Served s = serve(*m, requests[k], opt.seed, k, c);
    check(*m, requests[k], s, c, k, out);
    std::vector<trace::Span> spans = trace::drain();
    const Served& u = served[k];
    out.require(same_params(s.params, u.params) &&
                    s.report.affected_shards == u.report.affected_shards &&
                    s.report.rows_retrained == u.report.rows_retrained,
                "traced shard request " + std::to_string(k) +
                    " differs from the untraced run");
    traced_s += s.seconds;
    untraced_s += u.seconds;
    const LayerTimes t = layer_times(spans);
    lm.add("core.shard_retrain_s", t.inclusive("core.shard_retrain"), "s");
    lm.add("core.shard_aggregate_s", t.inclusive("core.shard_aggregate"), "s");
    lm.add("core.shard_rows_retrained", double(s.report.rows_retrained),
           "count");
    lm.add("core.shard_retrain_ratio",
           double(s.report.rows_retrained) / double(s.rows_held), "ratio");
    for (const char* name :
         {"nn.linear.fwd", "nn.linear.bwd", "metrics.eval"})
      lm.add(std::string(name) + "_s", t.self(name), "s");
    lm.add("runtime.sgemm_gflops", gflops, "GFLOP/s");
    lm.add("runtime.sgemm_s", costs.gemm_flops() / (gflops * 1e9), "s");
    if (alloc_stats::enabled())
      lm.add("tensor.heap_allocs", double(s.heap_allocs), "count");
    all_spans.insert(all_spans.end(), spans.begin(), spans.end());
  }
  trace::set_enabled(false);
  finish_traced(lm, out, opt, all_spans, traced_s, untraced_s);
  return out;
}

}  // namespace perfbench
