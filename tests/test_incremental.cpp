// The incremental pipeline's contracts (DESIGN § incremental pipeline).
// That a resume, or a chain of them, is byte-identical to a fresh run is
// checked by the equivalence lattice (test_equivalence.cpp). This file
// checks the rest:
//
//  1. Resume refuses what it cannot reproduce: a base whose horizon does not
//     cover the extension falls back to a fresh run.
//
//  2. Deltas are exact or rejected: a snapshot delta applies onto exactly
//     the base it was diffed from (reproducing the full rebuild bit for
//     bit) and cleanly refuses any other base — including through
//     LookupServer::reload, which must keep the last-good snapshot
//     serving when handed a mismatched or corrupt delta.
//
// The IncrementalDelta.DeltaApplyDuringQuery case doubles as the TSan
// target for delta publication racing live queries (see ci.yml).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "analysis/cache.h"
#include "analysis/scenario.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/snapshot.h"

namespace reuse {
namespace {

// ---------------------------------------------------------------------------
// Scenario-level resume fallback

analysis::ScenarioConfig incremental_config(std::uint64_t seed, int base_days,
                                            int extra_days) {
  analysis::ScenarioConfig config;
  config.seed = seed;
  config.world = inet::test_world_config(seed);
  config.world.as_count = 30;
  config.crawl_days = 1;
  config.fleet.probe_count = 100;
  config.run_census = false;
  // One collection period ending at `base_days`, with the abuse horizon
  // declared past it — the precondition for a prefix-stable event stream
  // (and exactly what reuse_study --resume-days sets up).
  config.ecosystem.periods = {net::TimeWindow{
      net::SimTime(0),
      net::SimTime(static_cast<std::int64_t>(base_days) * 86400)}};
  config.horizon_days = base_days + extra_days;
  config.finalize();
  return config;
}

TEST(Incremental, HorizonTooShortFallsBackToFreshRun) {
  auto config = incremental_config(9, 20, 4);
  // Auto horizon resolves to the period end, so extending the period moves
  // the horizon and the base stream is no longer a prefix: evolve must
  // refuse to resume rather than diverge.
  config.horizon_days = 0;
  const std::string base_path = "test_incremental_short_base.cache";
  const std::string ext_path = "test_incremental_short_ext.cache";
  std::remove(base_path.c_str());
  std::remove(ext_path.c_str());

  ASSERT_FALSE(analysis::run_scenario_cached(config, base_path).cache_hit);
  const analysis::EvolvedScenario evolved =
      analysis::evolve_scenario_cached(config, 4, base_path, ext_path);
  EXPECT_EQ(evolved.path, analysis::EvolvePath::kFreshRun);

  std::remove(base_path.c_str());
  std::remove(ext_path.c_str());
}

// ---------------------------------------------------------------------------
// Snapshot deltas

serve::CompiledSnapshot build_snapshot(
    const blocklist::SnapshotStore& store,
    const std::unordered_set<net::Ipv4Address>& nated,
    const net::PrefixSet& dynamic) {
  return serve::SnapshotBuilder()
      .with_store(store)
      .with_nated(nated)
      .with_dynamic(dynamic)
      .build();
}

net::Ipv4Address addr(const char* text) {
  return *net::Ipv4Address::parse(text);
}

/// Base and evolved serve-side worlds: entries added, removed, re-worded,
/// and a dynamic pool appearing — every delta record kind exercised.
struct DeltaFixture {
  blocklist::SnapshotStore base_store, next_store;
  std::unordered_set<net::Ipv4Address> nated;
  net::PrefixSet base_dynamic, next_dynamic;

  DeltaFixture() {
    base_store.record(1, addr("1.0.0.1"), 0);
    base_store.record(1, addr("2.0.0.1"), 0);
    base_store.record(2, addr("3.0.0.1"), 0);
    // Evolved: 3.0.0.1 delisted, 4.0.0.4 appears, 2.0.0.1 gains a list
    // (re-worded verdict), and 5.0.0.0/24 becomes a dynamic pool.
    next_store.record(1, addr("1.0.0.1"), 0);
    next_store.record(1, addr("2.0.0.1"), 0);
    next_store.record(2, addr("2.0.0.1"), 1);
    next_store.record(2, addr("4.0.0.4"), 1);
    nated.insert(addr("2.0.0.1"));
    next_dynamic.insert(*net::Ipv4Prefix::parse("5.0.0.0/24"));
  }

  [[nodiscard]] serve::CompiledSnapshot base() const {
    return build_snapshot(base_store, nated, base_dynamic);
  }
  [[nodiscard]] serve::CompiledSnapshot next() const {
    return build_snapshot(next_store, nated, next_dynamic);
  }
};

TEST(IncrementalDelta, ApplyReproducesFullRebuildByteForByte) {
  const DeltaFixture fx;
  const serve::CompiledSnapshot base = fx.base();
  const serve::CompiledSnapshot next = fx.next();
  const serve::SnapshotDelta delta = serve::SnapshotBuilder::diff(base, next);
  EXPECT_FALSE(delta.empty());
  EXPECT_EQ(delta.base_fingerprint(), base.fingerprint());
  EXPECT_EQ(delta.target_fingerprint(), next.fingerprint());

  std::string error;
  const auto applied = delta.apply(base, &error);
  ASSERT_TRUE(applied.has_value()) << error;
  EXPECT_EQ(applied->fingerprint(), next.fingerprint());
  EXPECT_TRUE(applied->verdict(addr("4.0.0.4")).listed());
  EXPECT_FALSE(applied->verdict(addr("3.0.0.1")).listed());
  EXPECT_TRUE(applied->verdict(addr("5.0.0.7")).dynamic());

  // Self-diff is empty and applies to itself.
  const serve::SnapshotDelta none = serve::SnapshotBuilder::diff(base, base);
  EXPECT_TRUE(none.empty());
  const auto same = none.apply(base, &error);
  ASSERT_TRUE(same.has_value()) << error;
  EXPECT_EQ(same->fingerprint(), base.fingerprint());
}

TEST(IncrementalDelta, SurvivesDiskRoundTripAndRejectsCorruption) {
  const DeltaFixture fx;
  const serve::CompiledSnapshot base = fx.base();
  const serve::CompiledSnapshot next = fx.next();
  const serve::SnapshotDelta delta = serve::SnapshotBuilder::diff(base, next);
  const std::string path = "test_incremental_delta_roundtrip.bin";
  ASSERT_TRUE(delta.save(path));
  EXPECT_EQ(serve::file_magic(path), serve::kSnapshotDeltaMagic);

  std::string error;
  const auto loaded = serve::SnapshotDelta::load(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  const auto applied = loaded->apply(base, &error);
  ASSERT_TRUE(applied.has_value()) << error;
  EXPECT_EQ(applied->fingerprint(), next.fingerprint());

  // A compiled snapshot is not a delta (and vice versa): magic rejects it.
  const std::string snap_path = "test_incremental_delta_notadelta.bin";
  ASSERT_TRUE(base.save(snap_path));
  EXPECT_FALSE(serve::SnapshotDelta::load(snap_path, &error).has_value());
  EXPECT_NE(error.find("not a snapshot delta"), std::string::npos) << error;

  // A mid-write torso rejects with a distinct diagnostic, never applies.
  {
    std::FILE* in = std::fopen(path.c_str(), "rb");
    ASSERT_NE(in, nullptr);
    std::string bytes(1 << 16, '\0');
    bytes.resize(std::fread(bytes.data(), 1, bytes.size(), in));
    std::fclose(in);
    std::FILE* out = std::fopen(path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size() / 2, out);
    std::fclose(out);
  }
  EXPECT_FALSE(serve::SnapshotDelta::load(path, &error).has_value());
  EXPECT_NE(error.find("delta load failed"), std::string::npos) << error;

  std::remove(path.c_str());
  std::remove(snap_path.c_str());
}

TEST(IncrementalDelta, RefusesAnyBaseButItsOwn) {
  const DeltaFixture fx;
  const serve::CompiledSnapshot base = fx.base();
  const serve::CompiledSnapshot next = fx.next();
  const serve::SnapshotDelta delta = serve::SnapshotBuilder::diff(base, next);

  std::string error;
  // Applying onto the TARGET (the classic double-apply mistake) fails.
  EXPECT_FALSE(delta.apply(next, &error).has_value());
  EXPECT_NE(error.find("fingerprint mismatch"), std::string::npos) << error;

  // Applying onto an unrelated snapshot fails identically.
  blocklist::SnapshotStore other_store;
  other_store.record(1, addr("8.8.8.8"), 0);
  const serve::CompiledSnapshot other =
      serve::SnapshotBuilder().with_store(other_store).build();
  EXPECT_FALSE(delta.apply(other, &error).has_value());
}

// ---------------------------------------------------------------------------
// lookupd applying deltas in place

serve::ServerConfig calm_server_config(int workers = 1) {
  serve::ServerConfig config;
  config.workers = workers;
  config.max_queue = 64;
  config.deadline_ms = 10'000;
  config.stall_timeout_ms = 10'000;
  return config;
}

TEST(IncrementalDelta, ServerAppliesDeltaInPlaceAndKeepsLastGoodOnMismatch) {
  const DeltaFixture fx;
  const auto base =
      std::make_shared<const serve::CompiledSnapshot>(fx.base());
  const serve::CompiledSnapshot next = fx.next();
  const std::string delta_path = "test_incremental_server_delta.bin";
  ASSERT_TRUE(serve::SnapshotBuilder::diff(*base, next).save(delta_path));

  serve::LookupEngine engine;
  engine.publish(base);
  serve::LookupServer server(engine, calm_server_config());
  std::string error;
  EXPECT_TRUE(server.reload(delta_path, &error)) << error;
  EXPECT_EQ(server.reloads(), 1u);
  EXPECT_EQ(server.reload_failures(), 0u);
  // The delta-applied snapshot is live: evolved verdicts serve immediately.
  EXPECT_TRUE(engine.verdict(addr("4.0.0.4")).listed());
  EXPECT_FALSE(engine.verdict(addr("3.0.0.1")).listed());

  // Re-applying the same delta must fail cleanly (the live base moved on)
  // and leave the last-good snapshot serving.
  EXPECT_FALSE(server.reload(delta_path, &error));
  EXPECT_NE(error.find("fingerprint mismatch"), std::string::npos) << error;
  EXPECT_EQ(server.reloads(), 1u);
  EXPECT_EQ(server.reload_failures(), 1u);
  EXPECT_TRUE(engine.verdict(addr("4.0.0.4")).listed());
  server.drain();

  // A server with no live snapshot has nothing to apply a delta to.
  serve::LookupEngine cold;
  serve::LookupServer cold_server(cold, calm_server_config());
  EXPECT_FALSE(cold_server.reload(delta_path, &error));
  EXPECT_NE(error.find("no live snapshot"), std::string::npos) << error;
  cold_server.drain();

  std::remove(delta_path.c_str());
}

// The TSan target: delta publication racing live queries through the epoch
// domain. Forward and reverse deltas toggle the live snapshot while client
// threads hammer the server; every response must decode, and the ledger
// must reconcile exactly when the dust settles.
TEST(IncrementalDelta, DeltaApplyDuringQueryKeepsLedgerExact) {
  const DeltaFixture fx;
  const auto base =
      std::make_shared<const serve::CompiledSnapshot>(fx.base());
  const serve::CompiledSnapshot next = fx.next();
  const std::string fwd_path = "test_incremental_delta_fwd.bin";
  const std::string rev_path = "test_incremental_delta_rev.bin";
  ASSERT_TRUE(serve::SnapshotBuilder::diff(*base, next).save(fwd_path));
  ASSERT_TRUE(serve::SnapshotBuilder::diff(next, *base).save(rev_path));

  serve::LookupEngine engine;
  engine.publish(base);
  serve::LookupServer server(engine, calm_server_config(/*workers=*/2));

  constexpr int kClients = 2;
  constexpr std::uint64_t kBatches = 200;
  const std::vector<std::uint32_t> queries{
      addr("1.0.0.1").value(), addr("2.0.0.1").value(),
      addr("3.0.0.1").value(), addr("4.0.0.4").value(),
      addr("5.0.0.7").value()};
  std::vector<int> fds;
  for (int c = 0; c < kClients; ++c) fds.push_back(server.connect_client());
  std::vector<std::thread> clients;
  std::vector<std::uint64_t> ok_counts(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([fd = fds[c], &queries, &ok_counts, c] {
      serve::LookupClient client(fd);
      ASSERT_TRUE(client.valid());
      for (std::uint64_t b = 0; b < kBatches; ++b) {
        ASSERT_TRUE(client.send_batch(b, queries));
        const auto response = client.read_response();
        ASSERT_TRUE(response.has_value());
        ASSERT_EQ(response->verdicts.size(), queries.size());
        // Either snapshot may answer mid-toggle, but 1.0.0.1 is listed in
        // both worlds — a constant the race cannot disturb.
        EXPECT_NE(response->verdicts[0] & serve::kVerdictListed, 0u);
        if (response->status == serve::ResponseStatus::kOk) ++ok_counts[c];
      }
      client.shutdown_write();
    });
  }

  // Toggle base -> next -> base ... serially from this thread; each delta
  // applies onto exactly the snapshot the previous reload published, so
  // every reload must succeed no matter how the queries interleave.
  constexpr int kToggles = 40;
  std::string error;
  for (int t = 0; t < kToggles; ++t) {
    const std::string& path = (t % 2 == 0) ? fwd_path : rev_path;
    ASSERT_TRUE(server.reload(path, &error)) << "toggle " << t << ": " << error;
  }

  for (std::thread& thread : clients) thread.join();
  server.drain();
  const serve::ServerStats stats = server.stats();
  EXPECT_TRUE(stats.reconciles());
  std::uint64_t ok_total = 0;
  for (const std::uint64_t count : ok_counts) ok_total += count;
  EXPECT_EQ(stats.served, ok_total);
  EXPECT_EQ(stats.submitted_valid,
            static_cast<std::uint64_t>(kClients) * kBatches);
  EXPECT_EQ(server.reloads(), static_cast<std::uint64_t>(kToggles));
  EXPECT_EQ(server.reload_failures(), 0u);

  std::remove(fwd_path.c_str());
  std::remove(rev_path.c_str());
}

}  // namespace
}  // namespace reuse
