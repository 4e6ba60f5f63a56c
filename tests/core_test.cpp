// Core Goldfish modules: early termination (Eq. 7), adaptive temperature
// (Eq. 11), the distillation trainer (Algorithm 1), and sharding (Eq. 8–10).
#include <gtest/gtest.h>

#include <cmath>

#include "core/distill_trainer.h"
#include "core/early_termination.h"
#include "core/sharding.h"
#include "core/unlearner.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/trainer.h"
#include "metrics/evaluation.h"
#include "nn/models.h"

namespace goldfish {
namespace {

TEST(ExcessRisk, InfiniteBeforeFirstEpoch) {
  core::ExcessRiskTracker t(1.0f, 0.1f);
  EXPECT_TRUE(std::isinf(t.excess_risk()));
  EXPECT_FALSE(t.should_stop());
}

TEST(ExcessRisk, RunningMeanAgainstReference) {
  core::ExcessRiskTracker t(1.0f, 0.1f);
  t.record_epoch(2.0f);  // mean 2.0, err 1.0
  EXPECT_NEAR(t.excess_risk(), 1.0f, 1e-6f);
  EXPECT_FALSE(t.should_stop());
  t.record_epoch(0.2f);  // mean 1.1, err 0.1
  EXPECT_NEAR(t.excess_risk(), 0.1f, 1e-5f);
  EXPECT_TRUE(t.should_stop());
}

TEST(ExcessRisk, AbsoluteValueOfGap) {
  core::ExcessRiskTracker t(2.0f, 0.05f);
  t.record_epoch(1.0f);  // student *below* reference still counts
  EXPECT_NEAR(t.excess_risk(), 1.0f, 1e-6f);
}

TEST(ExcessRisk, RejectsBadInputs) {
  EXPECT_THROW(core::ExcessRiskTracker(1.0f, -0.1f), CheckError);
  core::ExcessRiskTracker t(1.0f, 0.1f);
  EXPECT_THROW(t.record_epoch(std::nanf("")), CheckError);
}

TEST(AdaptiveTemperature, NoDeletionGivesT0) {
  core::AdaptiveTemperature at;  // α = e
  // |D_f| = 0 → exponent −1, α·e⁻¹ = 1 → T = T0.
  EXPECT_NEAR(at(1000, 0), at.t0, 1e-3f);
}

TEST(AdaptiveTemperature, MoreDeletionHigherTemperature) {
  core::AdaptiveTemperature at;
  const float t_small = at(980, 20);
  const float t_big = at(700, 300);
  EXPECT_GT(t_big, t_small);
  EXPECT_GT(t_small, at(1000, 0));
}

TEST(AdaptiveTemperature, MatchesEquation11) {
  core::AdaptiveTemperature at;
  at.t0 = 2.0f;
  at.alpha = 1.5f;
  const float expected =
      1.5f * 2.0f * std::exp(-900.0f / 1000.0f);
  EXPECT_NEAR(at(900, 100), std::max(expected, at.min_temperature), 1e-4f);
}

TEST(AdaptiveTemperature, FlooredAtOne) {
  core::AdaptiveTemperature at;
  at.t0 = 0.5f;
  at.alpha = 1.0f;
  EXPECT_FLOAT_EQ(at(1000, 0), 1.0f);  // raw value ≈ 0.18 → floored
}

TEST(AdaptiveTemperature, EmptyClientThrows) {
  core::AdaptiveTemperature at;
  EXPECT_THROW(at(0, 0), CheckError);
}

// -- distillation trainer ----------------------------------------------------

struct DistillFixture {
  data::TrainTest tt;
  nn::Model teacher;

  DistillFixture()
      : tt(data::make_synthetic(
            data::default_spec(data::DatasetKind::Mnist, 51, 400, 100))),
        teacher([] {
          Rng rng(52);
          return nn::make_mlp({1, 28, 28}, 32, 10, rng);
        }()) {
    fl::TrainOptions opts;
    opts.epochs = 8;
    opts.lr = 0.01f;
    fl::train_local(teacher, tt.train, opts);
  }
};

DistillFixture& distill_fixture() {
  static DistillFixture f;
  return f;
}

TEST(DistillTrainer, StudentApproachesTeacherAccuracy) {
  auto& f = distill_fixture();
  Rng rng(53);
  nn::Model student = nn::make_mlp({1, 28, 28}, 32, 10, rng);
  core::DistillOptions opts;
  opts.max_epochs = 8;
  opts.lr = 0.01f;
  opts.use_early_termination = false;
  nn::Model teacher = f.teacher;
  const float ref = core::reference_loss_of(teacher, f.tt.train, opts);
  const auto res = core::goldfish_distill(student, teacher, f.tt.train,
                                          data::Dataset(), ref, opts);
  EXPECT_EQ(res.epochs_run, 8);
  const double teacher_acc = metrics::accuracy(teacher, f.tt.test);
  const double student_acc = metrics::accuracy(student, f.tt.test);
  EXPECT_GT(student_acc, 0.7 * teacher_acc);
}

TEST(DistillTrainer, EarlyTerminationStopsSooner) {
  auto& f = distill_fixture();
  Rng rng(54);
  nn::Model student = nn::make_mlp({1, 28, 28}, 32, 10, rng);
  core::DistillOptions opts;
  opts.max_epochs = 30;
  opts.lr = 0.02f;
  opts.use_early_termination = true;
  opts.delta = 1.5f;  // generous threshold → stops early for sure
  nn::Model teacher = f.teacher;
  const float ref = core::reference_loss_of(teacher, f.tt.train, opts);
  const auto res = core::goldfish_distill(student, teacher, f.tt.train,
                                          data::Dataset(), ref, opts);
  EXPECT_TRUE(res.terminated_early);
  EXPECT_LT(res.epochs_run, 30);
  EXPECT_LE(res.final_excess_risk, 1.5f);
}

TEST(DistillTrainer, AdaptiveTemperatureRecorded) {
  auto& f = distill_fixture();
  Rng rng(55);
  nn::Model student = nn::make_mlp({1, 28, 28}, 16, 10, rng);
  core::DistillOptions opts;
  opts.max_epochs = 1;
  opts.use_adaptive_temperature = true;
  nn::Model teacher = f.teacher;
  data::Dataset d_f = f.tt.train.subset({0, 1, 2, 3, 4});
  const auto res = core::goldfish_distill(student, teacher, f.tt.train, d_f,
                                          2.0f, opts);
  EXPECT_NEAR(res.temperature_used,
              opts.temperature(f.tt.train.size(), 5), 1e-5f);
  // Fixed temperature when the extension is off.
  nn::Model student2 = nn::make_mlp({1, 28, 28}, 16, 10, rng);
  opts.use_adaptive_temperature = false;
  const auto res2 = core::goldfish_distill(student2, teacher, f.tt.train,
                                           d_f, 2.0f, opts);
  EXPECT_FLOAT_EQ(res2.temperature_used, opts.loss.temperature);
}

TEST(DistillTrainer, EmptyRemainingThrows) {
  auto& f = distill_fixture();
  Rng rng(56);
  nn::Model student = nn::make_mlp({1, 28, 28}, 8, 10, rng);
  nn::Model teacher = f.teacher;
  core::DistillOptions opts;
  EXPECT_THROW(core::goldfish_distill(student, teacher, data::Dataset(),
                                      data::Dataset(), 1.0f, opts),
               CheckError);
}

// -- sharding ---------------------------------------------------------------

struct ShardFixture {
  data::TrainTest tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, 61, 240, 60));
  nn::Model init = [] {
    Rng rng(62);
    return nn::make_mlp({1, 28, 28}, 16, 10, rng);
  }();
};

TEST(Sharding, SplitsAllRows) {
  ShardFixture f;
  Rng rng(63);
  core::ShardManager mgr(f.init, f.tt.train, 6, rng);
  EXPECT_EQ(mgr.num_shards(), 6);
  EXPECT_EQ(mgr.total_rows(), 240);
  for (long s = 0; s < 6; ++s) EXPECT_EQ(mgr.shard_rows(s), 40);
}

TEST(Sharding, AggregateOfIdenticalModelsIsIdentity) {
  ShardFixture f;
  Rng rng(64);
  core::ShardManager mgr(f.init, f.tt.train, 4, rng);
  // No training yet: every shard holds the init weights.
  const auto agg = mgr.aggregate();
  EXPECT_NEAR(nn::snapshot_distance_sq(agg, f.init.snapshot()), 0.0f, 1e-8f);
}

TEST(Sharding, Equation10RecoversStoredWeights) {
  ShardFixture f;
  Rng rng(65);
  core::ShardManager mgr(f.init, f.tt.train, 3, rng);
  fl::TrainOptions opts;
  opts.epochs = 1;
  opts.lr = 0.01f;
  mgr.train_all(opts);
  // ω_i reconstructed from the aggregate must equal the stored shard model.
  for (long s = 0; s < 3; ++s) {
    const auto recovered = mgr.recover_shard_weights(s);
    const auto stored = mgr.shard_model(s).snapshot();
    EXPECT_LT(nn::snapshot_distance_sq(recovered, stored), 1e-4f)
        << "shard " << s;
  }
}

TEST(Sharding, DeletionRetrainsOnlyAffectedShards) {
  ShardFixture f;
  Rng rng(66);
  core::ShardManager mgr(f.init, f.tt.train, 6, rng);
  fl::TrainOptions opts;
  opts.epochs = 1;
  opts.lr = 0.01f;
  mgr.train_all(opts);

  // Find rows all living in one shard: take 3 rows of shard 2 by probing
  // membership through deletion on a copy is overkill — instead delete rows
  // we know exist and check the report's shard count is small.
  std::vector<std::vector<Tensor>> before;
  for (long s = 0; s < 6; ++s)
    before.push_back(mgr.shard_model(s).snapshot());

  const auto report = mgr.delete_rows({0, 1, 2}, opts);
  EXPECT_EQ(report.rows_deleted, 3);
  EXPECT_LE(static_cast<long>(report.affected_shards.size()), 3);
  EXPECT_EQ(mgr.total_rows(), 237);

  // Unaffected shards' models must be bit-identical.
  std::set<long> affected(report.affected_shards.begin(),
                          report.affected_shards.end());
  for (long s = 0; s < 6; ++s) {
    if (affected.count(s)) continue;
    EXPECT_NEAR(nn::snapshot_distance_sq(before[static_cast<std::size_t>(s)],
                                         mgr.shard_model(s).snapshot()),
                0.0f, 1e-10f)
        << "untouched shard " << s << " changed";
  }
}

TEST(Sharding, AffectedShardRetrainsFromReinitialization) {
  // Unlearning guarantee: an affected shard's old weights carry the deleted
  // rows' influence and must be discarded. With a 0-epoch retrain the
  // affected shard model must equal the pristine init, not its trained
  // weights.
  ShardFixture f;
  Rng rng(69);
  core::ShardManager mgr(f.init, f.tt.train, 4, rng);
  fl::TrainOptions opts;
  opts.epochs = 2;
  opts.lr = 0.02f;
  mgr.train_all(opts);

  const std::vector<std::size_t> doomed{mgr.shard_row_ids(1).front()};
  fl::TrainOptions no_train = opts;
  no_train.epochs = 0;
  const auto report = mgr.delete_rows(doomed, no_train);
  ASSERT_EQ(report.affected_shards.size(), 1u);
  ASSERT_EQ(report.affected_shards[0], 1);
  EXPECT_NEAR(nn::snapshot_distance_sq(mgr.shard_model(1).snapshot(),
                                       f.init.snapshot()),
              0.0f, 1e-10f);
  // Untouched shards keep trained weights (≠ init).
  EXPECT_GT(nn::snapshot_distance_sq(mgr.shard_model(0).snapshot(),
                                     f.init.snapshot()),
            1e-6f);
}

TEST(Sharding, DeletingUnknownRowsIsNoop) {
  ShardFixture f;
  Rng rng(67);
  core::ShardManager mgr(f.init, f.tt.train, 4, rng);
  fl::TrainOptions opts;
  opts.epochs = 1;
  const auto report = mgr.delete_rows({100000}, opts);
  EXPECT_EQ(report.rows_deleted, 0);
  EXPECT_TRUE(report.affected_shards.empty());
  EXPECT_EQ(mgr.total_rows(), 240);
}

TEST(Sharding, ParallelDeletionMatchesSerial) {
  ShardFixture f;
  Rng rng(68);
  core::ShardManager serial(f.init, f.tt.train, 6, rng);
  Rng rng2(68);
  core::ShardManager parallel(f.init, f.tt.train, 6, rng2);
  fl::TrainOptions opts;
  opts.epochs = 1;
  opts.lr = 0.01f;
  serial.train_all(opts);
  parallel.train_all(opts);
  std::vector<std::size_t> doomed;
  for (std::size_t i = 0; i < 30; ++i) doomed.push_back(i);
  runtime::Scheduler serial_sched(1);
  runtime::Scheduler parallel_sched(4);
  serial.delete_rows(doomed, opts, &serial_sched);
  parallel.delete_rows(doomed, opts, &parallel_sched);
  EXPECT_NEAR(
      nn::snapshot_distance_sq(serial.aggregate(), parallel.aggregate()),
      0.0f, 1e-8f);
}

// -- unlearner orchestration (small smoke; the full path is covered by the
//    integration test) --------------------------------------------------------

TEST(Unlearner, RequestSplitsClientData) {
  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, 71, 120, 40));
  Rng rng(72);
  auto parts = data::partition_iid(tt.train, 2, rng);
  nn::Model trained = nn::make_mlp({1, 28, 28}, 16, 10, rng);
  nn::Model fresh = nn::make_mlp({1, 28, 28}, 16, 10, rng);
  core::UnlearnConfig cfg;
  core::GoldfishUnlearner ul(trained, fresh, parts, tt.test, cfg);
  const long before = parts[0].size();
  ul.request_deletion({{0, {0, 1, 2, 3}}});
  EXPECT_EQ(ul.remaining_data(0).size(), before - 4);
  EXPECT_EQ(ul.removed_data(0).size(), 4);
  EXPECT_EQ(ul.removed_data(1).size(), 0);
}

TEST(Unlearner, RejectsBadRequests) {
  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, 73, 60, 20));
  Rng rng(74);
  auto parts = data::partition_iid(tt.train, 2, rng);
  nn::Model m = nn::make_mlp({1, 28, 28}, 8, 10, rng);
  core::UnlearnConfig cfg;
  core::GoldfishUnlearner ul(m, m, parts, tt.test, cfg);
  EXPECT_THROW(ul.request_deletion({{7, {0}}}), CheckError);
  EXPECT_THROW(ul.request_deletion({{0, {100000}}}), CheckError);
}

TEST(Unlearner, MeanTemperatureCountsOnlyClientsThatDistilled) {
  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, 75, 160, 40));
  Rng rng(76);
  auto parts = data::partition_iid(tt.train, 4, rng);
  nn::Model trained = nn::make_mlp({1, 28, 28}, 8, 10, rng);
  nn::Model fresh = nn::make_mlp({1, 28, 28}, 8, 10, rng);
  core::UnlearnConfig cfg;
  cfg.distill.max_epochs = 1;
  cfg.distill.use_adaptive_temperature = false;  // every client uses T
  const double t = cfg.distill.loss.temperature;
  core::GoldfishUnlearner ul(trained, fresh, parts, tt.test, cfg);
  EXPECT_DOUBLE_EQ(ul.run_round().mean_temperature, t);

  // Client 3 leaves for good: later rounds average over the 3 that remain.
  fl::Scenario s = ul.engine().sync_scenario(1, /*local_accuracy=*/false);
  s.leaves.push_back({0.0, 3});
  ul.engine().collect(std::move(s));
  ASSERT_EQ(ul.engine().active_clients(), 3u);
  EXPECT_DOUBLE_EQ(ul.run_round().mean_temperature, t);
}

}  // namespace
}  // namespace goldfish
