// fl-stream: one long buffered-asynchronous fl::Engine run over a
// population::Population of 10^5 registered tiny clients — cohort sampling,
// a fixed buffer K, delta+int8 uploads, and deletions, joins and leaves
// mutating the client store mid-stream. The engine schedule and drain, the
// population store, the wire and aggregation dominate; nn and runtime are
// nearly idle. The stream runs as consecutive chunks of kAggsPerChunk
// aggregations until the time budget is spent.
#include <iostream>
#include <set>

#include "fl/population/population.h"
#include "metrics/evaluation.h"
#include "nn/models.h"
#include "probes.h"
#include "tensor/buffer_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kPopulation = 100000;
constexpr std::size_t kCohort = 64;
constexpr long kBuffer = 32;  // K
constexpr long kAggsPerChunk = 20;
constexpr long kRowsPerClient = 2;
constexpr long kTestRows = 512;
constexpr long kClasses = 4;
constexpr long kHidden = 8;
constexpr int kWarmupChunks = 20;
constexpr int kSetupReps = 3;
const nn::InputGeom kGeom{1, 4, 4};
// Quality target of one step: the global model's test accuracy.
constexpr double kMinStepAccuracy = 50.0;

// Labels follow a fixed random linear rule of the features, so the stream
// has something to learn and accuracy is a meaningful quality check.
struct Rule {
  std::vector<float> w;  // kClasses × kGeom.flat()
  explicit Rule(std::uint64_t seed) {
    Rng rng(mix_seed(seed, 0x7E1E, 0));
    for (long i = 0; i < kClasses * kGeom.flat(); ++i)
      w.push_back(rng.normal());
  }
  data::Dataset rows(long n, std::uint64_t seed) const {
    data::Dataset ds;
    ds.num_classes = kClasses;
    ds.geom = kGeom;
    ds.features = Tensor::uninit({n, kGeom.flat()});
    ds.labels.resize(static_cast<std::size_t>(n));
    Rng rng(seed);
    const long d = kGeom.flat();
    for (long i = 0; i < n; ++i) {
      float* x = ds.features.data() + i * d;
      for (long j = 0; j < d; ++j) x[j] = rng.normal();
      long best = 0;
      float best_v = -1e30f;
      for (long c = 0; c < kClasses; ++c) {
        float v = 0.0f;
        for (long j = 0; j < d; ++j) v += w[c * d + j] * x[j];
        if (v > best_v) {
          best_v = v;
          best = c;
        }
      }
      ds.labels[static_cast<std::size_t>(i)] = best;
    }
    return ds;
  }
};

struct Stream {
  std::uint64_t seed = 0;
  Rule rule{0};
  std::unique_ptr<fl::Engine> engine;
  std::set<std::size_t> deleted;  // clients whose row 0 was deleted
  long chunk = 0;                 // next chunk index
};

// One chunk's telemetry and timings.
struct Chunk {
  std::vector<fl::StepResult> steps;
  std::vector<double> step_s;  // sink-to-sink (first: run start to sink)
  double seconds = 0.0;
  long long heap_allocs = 0;
  long long wire_bytes = 0;
  std::size_t materializations = 0;
};

Chunk run_chunk(Stream& s, bool traced, Outcome& out);

std::uint64_t client_seed(std::uint64_t seed, std::size_t id) {
  return mix_seed(seed, 0xC11E47, id);
}

// `costs` non-null builds the traced twin: the same stream over a timed
// model (identical weights), whose replicas the engine clones.
std::unique_ptr<Stream> build_stream(std::uint64_t seed, ModelCosts* costs,
                                     Outcome& warm) {
  auto s = std::make_unique<Stream>();
  s->seed = seed;
  s->rule = Rule(seed);
  fl::population::Population pop;
  for (std::size_t c = 0; c < kPopulation; ++c)
    pop.clients.add(s->rule.rows(kRowsPerClient, client_seed(seed, c)));
  fl::FlConfig cfg;
  cfg.local.epochs = 1;
  cfg.local.batch_size = kRowsPerClient;
  cfg.local.lr = 0.2f;
  cfg.async.buffer_size = kBuffer;
  cfg.seed = mix_seed(seed, 0xE6, 0);
  Rng rng(mix_seed(seed, 0x30DE1, 0));
  nn::Model model = nn::make_mlp(kGeom, kHidden, kClasses, rng);
  if (costs != nullptr) model = timed_twin(model, kGeom, *costs);
  s->engine = std::make_unique<fl::Engine>(
      std::move(model), std::move(pop),
      s->rule.rows(kTestRows, mix_seed(seed, 0x7E57, 0)), cfg);
  for (int i = 0; i < kWarmupChunks; ++i) run_chunk(*s, false, warm);
  return s;
}

// The next chunk's scenario: cohort sampling, K = kBuffer, delta+int8
// uploads, and a deletion, a join and a leave mid-stream (the deletion hits
// a member of the first cohort, so its in-flight update is evicted).
fl::Scenario next_scenario(Stream& s, TimedWire** timed) {
  fl::Engine& eng = *s.engine;
  const std::uint64_t cseed = mix_seed(s.seed, 0xC0407, s.chunk);
  Rng rng(cseed);
  fl::Scenario sc = eng.async_scenario(kAggsPerChunk);
  auto cohort = std::make_unique<fl::CohortParticipation>(kCohort, cseed);
  const std::size_t n = eng.num_clients();
  std::vector<std::size_t> first = cohort->cohort(0, n);
  sc.participation = std::move(cohort);
  std::unique_ptr<fl::WirePolicy> wire = std::make_unique<fl::DeltaWire>(
      std::make_unique<fl::QuantizedWire>());
  if (timed != nullptr) {
    auto w = std::make_unique<TimedWire>(std::move(wire));
    *timed = w.get();
    wire = std::move(w);
  }
  sc.wire = std::move(wire);

  std::size_t victim = first[rng.uniform_index(first.size())];
  while (s.deleted.count(victim) != 0) victim = rng.uniform_index(n);
  s.deleted.insert(victim);
  data::Dataset kept = s.rule.rows(kRowsPerClient, client_seed(s.seed, victim))
                           .subset({1});
  sc.deletions.push_back({0.5, victim, std::move(kept)});
  sc.joins.push_back({1.5, s.rule.rows(kRowsPerClient, client_seed(s.seed, n))});
  sc.leaves.push_back({2.5, rng.uniform_index(n)});
  ++s.chunk;
  return sc;
}

long aggregated_total(const fl::Engine& eng) {
  const auto& store = eng.population()->clients;
  long total = 0;
  for (std::size_t c = 0; c < store.num_clients(); ++c)
    total += store.telemetry(c).updates_aggregated;
  return total;
}

// Run one chunk, tracing engine rounds as sink-to-sink intervals when
// tracing is on; checks the buffer accounting against the client store.
Chunk run_chunk(Stream& s, bool traced, Outcome& out) {
  fl::Engine& eng = *s.engine;
  TimedWire* wire = nullptr;
  fl::Scenario sc = next_scenario(s, traced ? &wire : nullptr);
  if (traced) {
    eng.set_client_update([cfg = eng.config()](std::size_t cid,
                                               nn::Model& model,
                                               const data::Dataset& ds,
                                               long round) {
      // The engine's default update, fl::train_local under its seed mix.
      const RoundContext& ctx = round_context();
      trace::Scope update("fl.client_update", ctx.round.load(),
                          ctx.request.load());
      fl::TrainOptions opts = cfg.local;
      opts.seed = mix_seed(cfg.seed, cid, static_cast<std::uint64_t>(round));
      traced_train_local(model, ds, opts);
    });
  }
  const long aggregated0 = aggregated_total(eng);
  const std::size_t mat0 = eng.population()->clients.materializations();
  Chunk c;
  const std::size_t allocs0 = alloc_stats::heap_allocations();
  const std::int64_t t0 = trace::now_ns();
  std::int64_t last = t0;
  {
    trace::Scope run("fl.run");
    std::uint64_t round_id = trace::new_id();
    round_context().round = round_id;
    eng.run(std::move(sc), [&](const fl::StepResult& r) {
      const std::int64_t now = trace::now_ns();
      c.steps.push_back(r);
      c.step_s.push_back(double(now - last) * 1e-9);
      trace::record({"fl.round", round_id, run.id(), trace::current_request(),
                     last, now});
      round_id = trace::new_id();
      round_context().round = round_id;
      last = now;
    });
  }
  c.seconds = seconds_since(t0);
  c.heap_allocs =
      static_cast<long long>(alloc_stats::heap_allocations() - allocs0);
  c.materializations =
      eng.population()->clients.materializations() - mat0;
  if (wire != nullptr) c.wire_bytes = wire->bytes();

  long consumed = 0;
  for (const fl::StepResult& r : c.steps) {
    consumed += r.updates_consumed;
    out.require(r.updates_consumed == kBuffer,
                "step " + std::to_string(r.step) + " consumed " +
                    std::to_string(r.updates_consumed) + " updates, K is " +
                    std::to_string(kBuffer));
  }
  out.require(long(c.steps.size()) == kAggsPerChunk &&
                  consumed == kBuffer * kAggsPerChunk,
              "chunk consumed " + std::to_string(consumed) +
                  " updates, expected the sum of its buffer sizes");
  out.require(aggregated_total(eng) - aggregated0 == consumed,
              "client store counts " +
                  std::to_string(aggregated_total(eng) - aggregated0) +
                  " aggregated updates, the engine consumed " +
                  std::to_string(consumed));
  return c;
}

void check_quality(const Chunk& c, Outcome& out) {
  for (const fl::StepResult& r : c.steps)
    out.check(r.global_accuracy >= kMinStepAccuracy,
              "step " + std::to_string(r.step) + " accuracy " +
                  std::to_string(r.global_accuracy) + "% below " +
                  std::to_string(kMinStepAccuracy) + "%");
}

// Seconds per materialize + release of a cold client, on a store of
// clients shaped like the stream's.
double probe_materialize(const Rule& rule) {
  fl::population::ClientStateStore store;
  for (std::size_t c = 0; c < 1024; ++c)
    store.add(rule.rows(kRowsPerClient, c));
  std::size_t next = 0;
  return time_median([&] {
    for (int i = 0; i < 64; ++i) {
      const std::size_t id = next++ % store.num_clients();
      store.materialize(id);
      store.release(id);
    }
  }) / 64.0;
}

}  // namespace

Outcome run_stream(const Options& opt) {
  // Set-up: register the population, build the engine, warm it up.
  std::vector<double> setup_s;
  std::unique_ptr<Stream> stream;
  Outcome out;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = trace::now_ns();
    stream = build_stream(opt.seed, nullptr, out);
    setup_s.push_back(seconds_since(t0));
  }
  std::cout << "set-up: " << kPopulation << " registered clients x "
            << kRowsPerClient << " rows, cohort " << kCohort << ", K "
            << kBuffer << ", delta+quantized wire, " << kAggsPerChunk
            << " aggregations per chunk\n";

  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  Stream& plain = *stream;
  std::vector<Chunk> chunks;
  const std::int64_t loop0 = trace::now_ns();
  while (chunks.size() < 3 || seconds_since(loop0) < budget) {
    chunks.push_back(run_chunk(plain, false, out));
    check_quality(chunks.back(), out);
  }

  if (!opt.trace) {
    std::vector<double> step_s, acc;
    double seconds = 0.0;
    long updates = 0, dropped = 0;
    for (const Chunk& c : chunks) {
      step_s.insert(step_s.end(), c.step_s.begin(), c.step_s.end());
      seconds += c.seconds;
      for (const fl::StepResult& r : c.steps) updates += r.updates_consumed;
      dropped += c.steps.back().dropped_updates;
    }
    for (const fl::StepResult& r : chunks.back().steps)
      acc.push_back(r.global_accuracy);
    const auto& store = plain.engine->population()->clients;
    std::cout << "end-to-end (" << chunks.size() << " chunks, "
              << store.num_clients() << " registered clients at the end):\n";
    print_timing("step_s", step_s);
    print_value("updates_per_s", double(updates) / seconds, "1/s",
                std::to_string(updates) + " updates, population " +
                    std::to_string(kPopulation) + ", cohort " +
                    std::to_string(kCohort) + ", K " + std::to_string(kBuffer));
    print_value("dropped_updates", double(dropped), "count");
    print_value("accuracy_pct", median(acc), "%", "median over the last chunk");
    print_value("failed_frac", double(out.failed) / double(out.attempted),
                "ratio", "target: every step's accuracy >= 50%");
    print_timing("setup_s", setup_s);
    out.add("request_s", median(step_s), "s");
    out.add("accuracy_pct", median(acc), "%");
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  // Traced pass: a twin stream over a timed model replays the same chunks.
  ModelCosts costs;
  const std::unique_ptr<Stream> twin_owner =
      build_stream(opt.seed, &costs, out);
  Stream& twin = *twin_owner;
  LayerMetrics lm;
  std::vector<trace::Span> all_spans;
  double traced_s = 0.0, untraced_s = 0.0;
  const double gflops = probe_gemm_gflops(costs, kRowsPerClient);
  const double mat_s = probe_materialize(twin.rule);
  const double agg_s = probe_aggregate(
      "fedavg", twin.engine->global_model(), twin.engine->server_test(),
      kBuffer);
  const double eval_s =
      probe_eval(plain.engine->global_model(), twin.engine->server_test());
  trace::set_enabled(true);
  for (std::size_t k = 0; k < chunks.size(); ++k) {
    trace::RequestScope request(k + 1);
    round_context().request = k + 1;
    costs.reset();
    const Chunk c = run_chunk(twin, true, out);
    check_quality(c, out);
    std::vector<trace::Span> spans = trace::drain();
    const Chunk& u = chunks[k];
    out.require(same_steps(c.steps, u.steps),
                "traced chunk " + std::to_string(k) +
                    " StepResult stream differs from the untraced run");
    traced_s += c.seconds;
    untraced_s += u.seconds;

    const double steps = double(c.steps.size());
    const LayerTimes t = layer_times(spans);
    lm.add("fl.round_s", median(c.step_s), "s");
    lm.add("fl.engine_self_s", t.self("fl.round") / steps, "s");
    lm.add("fl.client_update_s", t.inclusive("fl.client_update") / steps, "s");
    lm.add("fl.client_wait_s", median(client_waits(spans)), "s");
    lm.add("fl.wire_encode_s", t.self("fl.wire_encode") / steps, "s");
    lm.add("fl.wire_decode_s", t.self("fl.wire_decode") / steps, "s");
    lm.add("fl.wire_bytes", double(c.wire_bytes) / steps, "bytes");
    lm.add("fl.aggregate_s", agg_s, "s");
    lm.add("fl.update_yield",
           double(kBuffer * kAggsPerChunk) /
               double(t.count("fl.client_update")),
           "ratio");
    lm.add("fl.dropped_updates", double(c.steps.back().dropped_updates),
           "count");
    const auto& store = twin.engine->population()->clients;
    lm.add("population.materialize_s",
           mat_s * double(c.materializations) / steps, "s");
    lm.add("population.materializations", double(c.materializations) / steps,
           "count");
    lm.add("population.peak_resident_bytes",
           double(store.peak_resident_bytes()), "bytes");
    lm.add("population.cold_bytes", double(store.cold_bytes()), "bytes");
    for (const char* name : {"nn.linear.fwd", "nn.linear.bwd", "nn.sgd_step",
                             "losses.hard", "data.batch"})
      lm.add(std::string(name) + "_s", t.self(name) / steps, "s");
    lm.add("metrics.eval_s", eval_s, "s");
    lm.add("runtime.sgemm_gflops", gflops, "GFLOP/s");
    lm.add("runtime.sgemm_s", costs.gemm_flops() / (gflops * 1e9) / steps,
           "s");
    if (alloc_stats::enabled())
      lm.add("tensor.heap_allocs", double(c.heap_allocs) / steps, "count");
    all_spans.insert(all_spans.end(), spans.begin(), spans.end());
  }
  trace::set_enabled(false);
  out.require(same_params(twin.engine->global_model().snapshot(),
                          plain.engine->global_model().snapshot()),
              "traced stream's final global model differs from the untraced");
  finish_traced(lm, out, opt, all_spans, traced_s, untraced_s);
  return out;
}

}  // namespace perfbench
