// sim::Fleet — the sharded many-fabric serving engine.
//
// The contracts under test:
//  * determinism — a fleet digest is a pure function of (config, seeds,
//    slots stepped): pinning and step()/run() batching must not change it;
//    any one shard's seed must;
//  * independence — shards never interact: a fleet of F shards equals F
//    standalone interconnects run serially from the same derived seeds;
//  * one thread per shard — a shard is one fabric on one driver thread, so
//    the fleet drives exactly shards() threads and rejects any other
//    threads_per_shard;
//  * checkpoint/resume — one CheckpointStore chain per shard under
//    <dir>/shard-<i>/ restores the whole fleet bit-for-bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/checkpoint.hpp"
#include "sim/fleet.hpp"
#include "sim/interconnect.hpp"
#include "sim/traffic.hpp"
#include "util/rng.hpp"

namespace wdm {
namespace {

namespace fs = std::filesystem;

sim::FleetConfig fleet_config(std::size_t shards, std::int32_t n_fibers = 8,
                              std::int32_t k = 4) {
  sim::FleetConfig cfg;
  cfg.shards = shards;
  cfg.seed = 7;
  cfg.interconnect.n_fibers = n_fibers;
  cfg.interconnect.scheme = core::ConversionScheme::circular(k, 1, 1);
  cfg.traffic.load = 0.7;
  cfg.traffic.holding = sim::HoldingTime::kGeometric;
  cfg.traffic.mean_holding = 2.0;
  return cfg;
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;
}

TEST(Fleet, DigestIsThreadCountAndPinningInvariant) {
  const std::uint64_t kSlots = 60;
  std::uint64_t reference = 0;
  for (const bool pin : {false, true}) {
    sim::FleetConfig cfg = fleet_config(3);
    cfg.pin_cpus = pin;
    sim::Fleet fleet(cfg);
    fleet.run(kSlots);
    if (!pin) {
      reference = fleet.fleet_digest();
    } else {
      EXPECT_EQ(fleet.fleet_digest(), reference) << "pinning moved the digest";
    }
  }
}

TEST(Fleet, DefaultConfigRunsOneThreadPerShard) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    sim::Fleet fleet(fleet_config(shards));
    EXPECT_EQ(fleet.shards(), shards);
    EXPECT_EQ(fleet.total_threads(), fleet.shards());
  }
}

TEST(Fleet, RejectsThreadsPerShardAboveOne) {
  sim::FleetConfig cfg = fleet_config(2);
  cfg.threads_per_shard = 2;
  EXPECT_THROW(sim::Fleet fleet(cfg), std::logic_error);
}

TEST(Fleet, StepAndRunBatchingAgree) {
  sim::FleetConfig cfg = fleet_config(2);
  sim::Fleet stepped(cfg);
  sim::Fleet batched(cfg);
  for (int i = 0; i < 40; ++i) stepped.step();
  batched.run(40);
  EXPECT_EQ(stepped.fleet_digest(), batched.fleet_digest());
  EXPECT_EQ(stepped.current_slot(), 40u);
  EXPECT_EQ(batched.current_slot(), 40u);
  EXPECT_EQ(stepped.total_arrivals(), batched.total_arrivals());
  EXPECT_EQ(stepped.total_granted(), batched.total_granted());
}

TEST(Fleet, AnyShardSeedChangeChangesTheDigest) {
  sim::FleetConfig cfg = fleet_config(3);
  sim::Fleet base(cfg);
  base.run(30);

  // Pin the derived seeds explicitly, then perturb one shard at a time.
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < base.shards(); ++i) {
    seeds.push_back(base.shard_seed(i));
  }
  sim::FleetConfig pinned = cfg;
  pinned.shard_seeds = seeds;
  sim::Fleet same(pinned);
  same.run(30);
  EXPECT_EQ(same.fleet_digest(), base.fleet_digest())
      << "explicit copies of the derived seeds must reproduce the fleet";

  for (std::size_t victim = 0; victim < seeds.size(); ++victim) {
    sim::FleetConfig perturbed = cfg;
    perturbed.shard_seeds = seeds;
    perturbed.shard_seeds[victim] ^= 1;
    sim::Fleet other(perturbed);
    other.run(30);
    EXPECT_NE(other.fleet_digest(), base.fleet_digest())
        << "shard " << victim << "'s seed must reach the digest";
  }
}

TEST(Fleet, ShardsMatchStandaloneInterconnectsRunSerially) {
  sim::FleetConfig cfg = fleet_config(3);
  sim::Fleet fleet(cfg);
  fleet.run(50);

  for (std::size_t shard = 0; shard < fleet.shards(); ++shard) {
    // Reproduce shard i standalone: same derived master seed, same
    // seeder draw order as Fleet's driver (interconnect, then traffic).
    util::Rng seeder(fleet.shard_seed(shard));
    sim::InterconnectConfig icfg = cfg.interconnect;
    icfg.seed = seeder.next();
    sim::Interconnect solo(icfg);
    sim::TrafficGenerator traffic(icfg.n_fibers, icfg.scheme.k(), cfg.traffic,
                                  seeder.next());
    std::vector<std::uint8_t> busy;
    std::vector<core::SlotRequest> arrivals;
    for (int s = 0; s < 50; ++s) {
      solo.input_channel_busy_into(busy);
      traffic.next_slot_into(busy, arrivals);
      solo.step(arrivals);
    }
    EXPECT_EQ(sim::state_digest(solo),
              sim::state_digest(fleet.shard_interconnect(shard)))
        << "shard " << shard << " must equal its standalone twin";
  }
}

TEST(Fleet, MergedMetricsEqualTheSumOfShardMetrics) {
  sim::FleetConfig cfg = fleet_config(3);
  sim::Fleet fleet(cfg);
  fleet.run(80);
  const sim::MetricsCollector merged = fleet.merged_metrics();
  std::uint64_t slots = 0, arrivals = 0, granted = 0, losses = 0;
  for (std::size_t i = 0; i < fleet.shards(); ++i) {
    const auto& m = fleet.shard_metrics(i);
    slots += m.slots();
    arrivals += m.raw_arrivals();
    granted += m.granted();
    losses += m.losses();
  }
  EXPECT_EQ(merged.slots(), slots);
  EXPECT_EQ(merged.raw_arrivals(), arrivals);
  EXPECT_EQ(merged.granted(), granted);
  EXPECT_EQ(merged.losses(), losses);
  EXPECT_EQ(merged.raw_arrivals(), fleet.total_arrivals());
  EXPECT_EQ(merged.granted(), fleet.total_granted());
  EXPECT_GT(merged.granted(), 0u);
}

TEST(Fleet, LastStepStatsSumShardSlots) {
  sim::FleetConfig cfg = fleet_config(2);
  sim::Fleet fleet(cfg);
  fleet.step();
  std::uint64_t arrivals = 0, granted = 0;
  for (std::size_t i = 0; i < fleet.shards(); ++i) {
    const auto& m = fleet.shard_metrics(i);
    arrivals += m.raw_arrivals();
    granted += m.granted();
  }
  EXPECT_EQ(fleet.last_step_stats().arrivals, arrivals);
  EXPECT_EQ(fleet.last_step_stats().granted, granted);
}

TEST(Fleet, CheckpointResumeRestoresTheWholeFleetBitForBit) {
  const fs::path dir = fresh_dir("fleet_ckpt");
  sim::FleetConfig cfg = fleet_config(3);

  // Reference: uninterrupted run to slot 90.
  sim::Fleet reference(cfg);
  reference.run(90);
  const std::uint64_t want = reference.fleet_digest();

  // Interrupted run: checkpoint at slot 60, abandon, resume, finish.
  {
    sim::Fleet fleet(cfg);
    sim::CheckpointPolicy policy;
    policy.dir = dir.string();
    policy.full_every = 2;
    fleet.open_checkpoints(policy);
    fleet.run(60);
    fleet.write_checkpoint();
  }
  sim::Fleet resumed(cfg);
  const sim::FleetRecovery recovery = resumed.resume_from(dir.string());
  ASSERT_TRUE(recovery.recovered);
  EXPECT_EQ(recovery.slot, 60u);
  EXPECT_EQ(resumed.current_slot(), 60u);
  ASSERT_EQ(recovery.shards.size(), 3u);
  for (const auto& report : recovery.shards) {
    EXPECT_TRUE(report.recovered);
    EXPECT_TRUE(report.discarded.empty());
  }
  resumed.run(30);
  EXPECT_EQ(resumed.fleet_digest(), want)
      << "resume + 30 slots must equal the uninterrupted 90-slot run";
}

TEST(Fleet, ResumeFallsBackToTheNewestAgreeingSlot) {
  // A SIGKILL mid write_checkpoint leaves some shards one frame ahead of
  // others. Model it by deleting shard 1's newest frame: resume must
  // negotiate back to the newest slot every chain agrees on (all-or-nothing
  // on an agreeing slot), not fail and not resume shards at mixed slots.
  const fs::path dir = fresh_dir("fleet_ckpt_skew");
  sim::FleetConfig cfg = fleet_config(2);
  {
    sim::Fleet fleet(cfg);
    sim::CheckpointPolicy policy;
    policy.dir = dir.string();
    policy.full_every = 1;
    fleet.open_checkpoints(policy);
    fleet.run(20);
    fleet.write_checkpoint();
    fleet.run(10);
    fleet.write_checkpoint();
  }
  std::vector<fs::path> frames;
  for (const auto& entry : fs::directory_iterator(dir / "shard-1")) {
    frames.push_back(entry.path());
  }
  ASSERT_EQ(frames.size(), 2u);
  std::sort(frames.begin(), frames.end());
  fs::remove(frames.back());

  sim::Fleet resumed(cfg);
  const sim::FleetRecovery recovery = resumed.resume_from(dir.string());
  ASSERT_TRUE(recovery.recovered);
  EXPECT_EQ(recovery.slot, 20u);
  for (const auto& report : recovery.shards) {
    EXPECT_EQ(report.slot, 20u);
  }

  // The negotiated state is the real slot-20 fleet state: finishing the run
  // matches an uninterrupted fleet.
  resumed.run(20);
  sim::Fleet reference(cfg);
  reference.run(40);
  EXPECT_EQ(resumed.fleet_digest(), reference.fleet_digest());
}

TEST(Fleet, ResumeFailsCleanlyOnAMissingShardChain) {
  const fs::path dir = fresh_dir("fleet_ckpt_partial");
  sim::FleetConfig cfg = fleet_config(2);
  {
    sim::Fleet fleet(cfg);
    sim::CheckpointPolicy policy;
    policy.dir = dir.string();
    fleet.open_checkpoints(policy);
    fleet.run(20);
    fleet.write_checkpoint();
  }
  fs::remove_all(dir / "shard-1");
  sim::Fleet resumed(cfg);
  const sim::FleetRecovery recovery = resumed.resume_from(dir.string());
  EXPECT_FALSE(recovery.recovered);
}

TEST(Fleet, UnsupervisedShardErrorLeavesTheFleetUsableAndDestructible) {
  // Exception-safety contract of the *unsupervised* fleet (supervision off
  // is the default): a shard throwing mid-run must surface as an exception
  // from run()/step() — not a deadlock, not a crash — and the Fleet must
  // remain queryable and destructible afterwards.
  sim::FleetConfig cfg = fleet_config(3);
  sim::ShardFaultEvent crash;
  crash.shard = 1;
  crash.slot = 10;
  crash.kind = sim::ShardFaultKind::kCrash;
  cfg.shard_faults.push_back(crash);

  sim::Fleet fleet(cfg);
  EXPECT_THROW(fleet.run(20), sim::ShardCrashInjected);
  // The healthy shards served every slot; the barrier never deadlocked.
  EXPECT_EQ(fleet.current_slot(), 20u);
  EXPECT_EQ(fleet.shard_interconnect(0).current_slot(), 20);
  EXPECT_EQ(fleet.shard_interconnect(2).current_slot(), 20);

  // A second step fails cleanly with the same parked error (the errored
  // shard does not step again), and the digest stays computable.
  EXPECT_THROW(fleet.step(), sim::ShardCrashInjected);
  EXPECT_EQ(fleet.shard_interconnect(1).current_slot(), 10);
  (void)fleet.fleet_digest();
  // Destruction at scope exit joins every driver — the real assertion is
  // that this test terminates at all.
}

TEST(Fleet, ScriptedFaultsThrowOnAnOutOfRangeShard) {
  sim::FleetConfig cfg = fleet_config(2);
  sim::ShardFaultEvent crash;
  crash.shard = 7;  // fleet has 2
  cfg.shard_faults.push_back(crash);
  EXPECT_ANY_THROW(sim::Fleet fleet(cfg));
}

TEST(Fleet, ResetCountersDropsObserversButNotState) {
  sim::FleetConfig cfg = fleet_config(2);
  sim::Fleet fleet(cfg);
  fleet.run(30);
  const std::uint64_t digest_before = fleet.fleet_digest();
  EXPECT_GT(fleet.total_arrivals(), 0u);
  fleet.reset_counters();
  EXPECT_EQ(fleet.total_arrivals(), 0u);
  EXPECT_EQ(fleet.shard_metrics(0).slots(), 0u);
  EXPECT_EQ(fleet.fleet_digest(), digest_before)
      << "metrics are observers: resetting them must not touch sim state";
}

}  // namespace
}  // namespace wdm
