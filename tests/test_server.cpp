// The serving front end: frame validation, epoch reclamation, overload
// shedding, hostile-client eviction, hot reload under load, and exact
// ledger reconciliation against the seeded ChaosClient plan.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "serve/client.h"
#include "serve/epoch.h"
#include "serve/frame.h"
#include "serve/snapshot.h"

namespace reuse::serve {
namespace {

net::Ipv4Address addr(const char* text) {
  return *net::Ipv4Address::parse(text);
}

net::Ipv4Prefix prefix(const char* text) {
  return *net::Ipv4Prefix::parse(text);
}

/// Same hand-built world as test_serve.cpp: every verdict class present.
struct Fixture {
  blocklist::SnapshotStore store;
  std::unordered_set<net::Ipv4Address> nated;
  net::PrefixSet dynamic;

  Fixture() {
    store.record(1, addr("1.0.0.1"), 0);
    store.record(1, addr("2.0.0.1"), 0);
    store.record(2, addr("2.0.0.1"), 1);
    store.record(2, addr("3.0.0.1"), 0);
    nated.insert(addr("2.0.0.1"));
    nated.insert(addr("9.0.0.9"));
    dynamic.insert(prefix("3.0.0.0/24"));
  }

  [[nodiscard]] CompiledSnapshot build() const {
    return SnapshotBuilder()
        .with_store(store)
        .with_nated(nated)
        .with_dynamic(dynamic)
        .build();
  }
};

std::string u32_bytes(std::uint32_t value) {
  char bytes[4];
  std::memcpy(bytes, &value, sizeof bytes);
  return {bytes, sizeof bytes};
}

std::string u64_bytes(std::uint64_t value) {
  char bytes[8];
  std::memcpy(bytes, &value, sizeof bytes);
  return {bytes, sizeof bytes};
}

// ---------------------------------------------------------------------------
// Frame protocol

TEST(Frame, RequestRoundTripSurvivesBytewiseFeeding) {
  const std::vector<std::uint32_t> first{1, 2, 3};
  const std::vector<std::uint32_t> second{0xffffffffu};
  const std::string wire =
      encode_request(7, first) + encode_request(1ull << 40, second);

  RequestDecoder decoder;
  std::vector<RequestFrame> out;
  for (const char byte : wire) {  // worst-case torn transport: 1-byte reads
    decoder.feed({&byte, 1});
    while (auto frame = decoder.next()) out.push_back(*std::move(frame));
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].request_id, 7u);
  EXPECT_EQ(out[0].addresses, first);
  EXPECT_EQ(out[1].request_id, 1ull << 40);
  EXPECT_EQ(out[1].addresses, second);
  EXPECT_EQ(decoder.error(), FrameError::kNone);
  EXPECT_FALSE(decoder.mid_frame());
}

TEST(Frame, ResponseRoundTripCarriesStatusAndVerdicts) {
  const std::vector<std::uint32_t> verdicts{kVerdictListed,
                                            kVerdictNated | kVerdictDynamic};
  ResponseDecoder decoder;
  decoder.feed(encode_response(42, ResponseStatus::kOk, verdicts));
  decoder.feed(encode_response(43, ResponseStatus::kShed, {}));
  const auto ok = decoder.next();
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->request_id, 42u);
  EXPECT_EQ(ok->status, ResponseStatus::kOk);
  EXPECT_EQ(ok->verdicts, verdicts);
  const auto shed = decoder.next();
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->status, ResponseStatus::kShed);
  EXPECT_TRUE(shed->verdicts.empty());
}

TEST(Frame, PartialFrameStaysPendingNotRejected) {
  const std::string wire = encode_request(1, std::vector<std::uint32_t>{5});
  RequestDecoder decoder;
  decoder.feed(std::string_view(wire).substr(0, wire.size() / 2));
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.error(), FrameError::kNone);
  EXPECT_TRUE(decoder.mid_frame());  // the torn-write/slowloris tell
  decoder.feed(std::string_view(wire).substr(wire.size() / 2));
  EXPECT_TRUE(decoder.next().has_value());
  EXPECT_FALSE(decoder.mid_frame());
}

TEST(Frame, RejectsBadMagic) {
  std::string wire = u32_bytes(static_cast<std::uint32_t>(kFrameHeaderBytes));
  wire += u32_bytes(0xdeadbeefu);
  wire += u64_bytes(1);
  wire += u32_bytes(1);
  RequestDecoder decoder;
  decoder.feed(wire);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.error(), FrameError::kBadMagic);
}

TEST(Frame, RejectsOversizedDeclaredLengthBeforeBuffering) {
  RequestDecoder decoder;
  // Four bytes are enough to refuse: the length word alone is over the cap.
  decoder.feed(u32_bytes(static_cast<std::uint32_t>(kMaxFrameBytes + 1)));
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.error(), FrameError::kOversized);
}

TEST(Frame, RejectsUndersizedDeclaredLength) {
  RequestDecoder decoder;
  decoder.feed(u32_bytes(3));  // smaller than any legal frame body
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.error(), FrameError::kBadLength);
}

TEST(Frame, RejectsZeroCountOverCountAndReservedBits) {
  const auto craft = [](std::uint32_t count_word, std::size_t payload_words) {
    std::string wire = u32_bytes(
        static_cast<std::uint32_t>(kFrameHeaderBytes + 4 * payload_words));
    wire += u32_bytes(kRequestMagic);
    wire += u64_bytes(9);
    wire += u32_bytes(count_word);
    wire.append(4 * payload_words, '\0');
    return wire;
  };
  {
    RequestDecoder decoder;  // zero count
    decoder.feed(craft(0, 0));
    EXPECT_FALSE(decoder.next().has_value());
    EXPECT_EQ(decoder.error(), FrameError::kBadCount);
  }
  {
    RequestDecoder decoder;  // nonzero reserved (upper 16) bits
    decoder.feed(craft((1u << 16) | 1u, 1));
    EXPECT_FALSE(decoder.next().has_value());
    EXPECT_EQ(decoder.error(), FrameError::kBadCount);
  }
  {
    RequestDecoder decoder;  // count disagrees with the frame length
    decoder.feed(craft(2, 1));
    EXPECT_FALSE(decoder.next().has_value());
    EXPECT_EQ(decoder.error(), FrameError::kBadLength);
  }
}

TEST(Frame, PoisonIsSticky) {
  RequestDecoder decoder;
  decoder.feed(u32_bytes(static_cast<std::uint32_t>(kMaxFrameBytes + 1)));
  EXPECT_FALSE(decoder.next().has_value());
  ASSERT_EQ(decoder.error(), FrameError::kOversized);
  // A poisoned stream never yields again, even for perfectly valid frames.
  decoder.feed(encode_request(1, std::vector<std::uint32_t>{1}));
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.error(), FrameError::kOversized);
}

// ---------------------------------------------------------------------------
// Epoch domain

TEST(Epoch, SynchronizeAdvancesTheGlobalEpoch) {
  EpochDomain& domain = EpochDomain::instance();
  const std::uint64_t before = domain.epoch();
  EXPECT_EQ(before % 2, 0u);
  domain.synchronize();
  EXPECT_EQ(domain.epoch(), before + 2);
}

TEST(Epoch, ReadGuardsNestOnOneThread) {
  {
    const ReadGuard outer;
    const ReadGuard inner;  // must not deadlock or corrupt the slot
  }
  // Fully exited: a writer barrier completes immediately.
  EpochDomain::instance().synchronize();
}

TEST(Epoch, SynchronizeWaitsForAnActiveReader) {
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::atomic<bool> synced{false};

  std::thread reader([&] {
    EpochDomain::instance().enter();
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
    EpochDomain::instance().exit();
  });
  while (!entered.load()) std::this_thread::yield();

  std::thread writer([&] {
    EpochDomain::instance().synchronize();
    synced.store(true);
  });
  // The reader is inside its critical section: the barrier must not return.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(synced.load());
  release.store(true);
  writer.join();
  reader.join();
  EXPECT_TRUE(synced.load());
}

TEST(Epoch, SlotsRecycleWhenThreadsExit) {
  EpochDomain& domain = EpochDomain::instance();
  const int before = domain.active_slots();
  for (int i = 0; i < 64; ++i) {
    std::thread([&] { const ReadGuard guard; }).join();
  }
  // Every exited thread released its slot; sequential short-lived threads
  // must not leak the slot directory.
  EXPECT_EQ(domain.active_slots(), before);
}

// ---------------------------------------------------------------------------
// LookupServer

class ServerTest : public ::testing::Test {
 protected:
  Fixture fx_;
  LookupEngine engine_;
  std::shared_ptr<const CompiledSnapshot> snapshot_ =
      std::make_shared<const CompiledSnapshot>(fx_.build());

  void SetUp() override { engine_.publish(snapshot_); }

  [[nodiscard]] ServerConfig calm_config(int workers = 1) const {
    ServerConfig config;
    config.workers = workers;
    config.max_queue = 64;
    config.deadline_ms = 10'000;   // never sheds in a deterministic run
    config.stall_timeout_ms = 10'000;
    return config;
  }
};

TEST_F(ServerTest, ServesOracleVerdictsAndEchoesRequestIds) {
  LookupServer server(engine_, calm_config());
  LookupClient client(server.connect_client());
  ASSERT_TRUE(client.valid());

  const std::vector<std::uint32_t> queries{
      addr("1.0.0.1").value(), addr("2.0.0.1").value(),
      addr("3.0.0.99").value(), addr("9.0.0.9").value(),
      addr("200.1.2.3").value()};
  ASSERT_TRUE(client.send_batch(0xfeedULL, queries));
  const auto response = client.read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->request_id, 0xfeedULL);
  EXPECT_EQ(response->status, ResponseStatus::kOk);
  ASSERT_EQ(response->verdicts.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(response->verdicts[i],
              snapshot_->verdict(net::Ipv4Address(queries[i])).bits)
        << "query " << i;
  }

  client.shutdown_write();
  EXPECT_FALSE(client.read_response().has_value());  // clean EOF
  server.drain();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.served, 1u);
  EXPECT_EQ(stats.submitted_valid, 1u);
  EXPECT_TRUE(stats.reconciles());
}

TEST_F(ServerTest, ShedsExplicitlyWhenQueueOverflows) {
  ServerConfig config = calm_config();
  config.max_queue = 1;
  LookupServer server(engine_, config);
  LookupClient client(server.connect_client());
  ASSERT_TRUE(client.valid());

  // One contiguous burst so the worker decodes the whole flood before its
  // next processing pass: the bounded queue must answer the overflow with
  // SHED frames, never drop them.
  constexpr std::uint64_t kFrames = 64;
  std::string burst;
  const std::vector<std::uint32_t> batch{addr("1.0.0.1").value()};
  for (std::uint64_t b = 0; b < kFrames; ++b) {
    burst += encode_request(b, batch);
  }
  ASSERT_TRUE(client.send_bytes(burst));
  client.shutdown_write();

  std::uint64_t ok = 0, shed = 0;
  while (auto response = client.read_response()) {
    (response->status == ResponseStatus::kShed ? shed : ok) += 1;
  }
  EXPECT_EQ(ok + shed, kFrames);  // every frame answered, nothing silent
  EXPECT_GE(shed, 1u);
  server.drain();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted_valid, kFrames);
  EXPECT_EQ(stats.served, ok);
  EXPECT_EQ(stats.shed_total(), shed);
  EXPECT_TRUE(stats.reconciles());
}

TEST_F(ServerTest, EvictsStalledMidFrameClient) {
  ServerConfig config = calm_config();
  config.stall_timeout_ms = 50;
  LookupServer server(engine_, config);
  LookupClient client(server.connect_client());
  ASSERT_TRUE(client.valid());

  const std::string frame =
      encode_request(1, std::vector<std::uint32_t>{5, 6, 7});
  ASSERT_TRUE(client.send_bytes(
      std::string_view(frame).substr(0, frame.size() / 2)));
  // Slow-loris: hold the half-open frame; the server must cut us loose.
  EXPECT_FALSE(client.read_response().has_value());  // blocks until EOF
  server.drain();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.clients_evicted, 1u);
  EXPECT_EQ(stats.submitted_valid, 0u);
  EXPECT_TRUE(stats.reconciles());
}

TEST_F(ServerTest, EvictsClientThatNeverReads) {
  ServerConfig config = calm_config();
  config.max_queue = 4096;
  config.max_outbound_bytes = 4096;
  LookupServer server(engine_, config);
  LookupClient client(server.connect_client());
  ASSERT_TRUE(client.valid());

  // Large batches, never reading a response: once the socket buffer and
  // then the bounded outbound buffer fill, the session must be evicted
  // rather than buffering without limit.
  std::vector<std::uint32_t> batch(kMaxFrameAddresses, addr("1.0.0.1").value());
  for (std::uint64_t b = 0; b < 4096; ++b) {
    if (!client.send_batch(b, batch)) break;  // EPIPE after eviction
  }
  server.drain();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.clients_evicted, 1u);
  EXPECT_TRUE(stats.reconciles());
}

TEST_F(ServerTest, RejectsTornGarbageAndOversizedStreams) {
  LookupServer server(engine_, calm_config());
  {
    LookupClient torn(server.connect_client());
    const std::string frame =
        encode_request(1, std::vector<std::uint32_t>{5});
    ASSERT_TRUE(torn.send_bytes(
        std::string_view(frame).substr(0, frame.size() - 1)));
    torn.close_now();  // EOF lands mid-frame
  }
  {
    LookupClient garbage(server.connect_client());
    std::string wire =
        u32_bytes(static_cast<std::uint32_t>(kFrameHeaderBytes));
    wire += u32_bytes(0x0badf00du);
    wire.append(kFrameHeaderBytes - 4, '\0');
    ASSERT_TRUE(garbage.send_bytes(wire));
    EXPECT_FALSE(garbage.read_response().has_value());  // server closes
  }
  {
    LookupClient oversized(server.connect_client());
    ASSERT_TRUE(oversized.send_bytes(
        u32_bytes(static_cast<std::uint32_t>(kMaxFrameBytes + 1))));
    EXPECT_FALSE(oversized.read_response().has_value());
  }
  server.drain();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected_torn, 1u);
  EXPECT_EQ(stats.rejected_garbage, 1u);
  EXPECT_EQ(stats.rejected_oversized, 1u);
  EXPECT_EQ(stats.submitted_valid, 0u);
  EXPECT_TRUE(stats.reconciles());
}

TEST_F(ServerTest, DrainAnswersAcceptedWorkThenClosesSessions) {
  LookupServer server(engine_, calm_config(2));
  LookupClient client(server.connect_client());
  ASSERT_TRUE(client.valid());
  const std::vector<std::uint32_t> batch{addr("2.0.0.1").value()};
  for (std::uint64_t b = 0; b < 8; ++b) {
    ASSERT_TRUE(client.send_batch(b, batch));
    ASSERT_TRUE(client.read_response().has_value());
  }
  server.drain();
  // After drain the session is closed from the server side...
  EXPECT_FALSE(client.read_response().has_value());
  // ...no new clients are accepted...
  EXPECT_EQ(server.connect_client(), -1);
  // ...and drain is idempotent.
  server.drain();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.served, 8u);
  EXPECT_TRUE(stats.reconciles());
}

TEST_F(ServerTest, ReloadFallsBackToLastGoodOnCorruptArtifact) {
  const std::string good_path = "test_server_reload_good.bin";
  const std::string bad_path = "test_server_reload_bad.bin";
  const blocklist::SnapshotStore empty_store;
  const CompiledSnapshot empty =
      SnapshotBuilder().with_store(empty_store).build();
  ASSERT_TRUE(empty.save(good_path));
  {
    // A mid-write torso of the artifact: header promises more payload.
    std::ifstream in(good_path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }

  LookupServer server(engine_, calm_config());
  std::string error;
  EXPECT_FALSE(server.reload(bad_path, &error));
  EXPECT_NE(error.find("snapshot load failed"), std::string::npos) << error;
  EXPECT_EQ(server.reload_failures(), 1u);
  EXPECT_EQ(server.reloads(), 0u);
  // Last-good still serving: the original snapshot's answers are intact.
  EXPECT_TRUE(engine_.verdict(addr("1.0.0.1")).listed());

  EXPECT_TRUE(server.reload(good_path, &error));
  EXPECT_EQ(server.reloads(), 1u);
  // The empty snapshot took over atomically.
  EXPECT_FALSE(engine_.verdict(addr("1.0.0.1")).listed());

  server.drain();
  std::remove(good_path.c_str());
  std::remove(bad_path.c_str());
}

TEST_F(ServerTest, ServedTalliesAreByteIdenticalAcrossWorkerCounts) {
  LoadConfig load;
  load.seed = 99;
  load.clients = 4;
  load.queries = 256 * 32;
  load.batch_size = 32;
  load.max_in_flight = 1;  // closed loop: nothing can shed, tallies exact

  // The in-process engine sends the same batches at any client count: its
  // tallies are what every socket run must reproduce.
  LookupEngine reference;
  reference.publish(snapshot_);
  LoadConfig in_process = load;
  in_process.clients = 1;
  const LoadReport expected = run_load(reference, *snapshot_, in_process);
  EXPECT_GT(expected.listed_words, 0u);
  EXPECT_GT(expected.reused_words, 0u);
  for (const int clients : {2, 4}) {
    in_process.clients = clients;
    const LoadReport report = run_load(reference, *snapshot_, in_process);
    EXPECT_EQ(report.listed_words, expected.listed_words) << clients;
    EXPECT_EQ(report.reused_words, expected.reused_words) << clients;
  }

  for (const int workers : {1, 2, 4}) {
    LookupEngine engine;
    engine.publish(snapshot_);
    LookupServer server(engine, calm_config(workers));
    const LoadReport report = run_load(server, *snapshot_, load);
    server.drain();
    const ServerStats stats = server.stats();

    EXPECT_EQ(report.shed, 0u) << workers << " workers";
    EXPECT_EQ(report.submitted, 256u) << workers << " workers";
    EXPECT_EQ(report.ok, report.submitted) << workers << " workers";
    EXPECT_TRUE(stats.reconciles());
    EXPECT_EQ(stats.served, report.submitted);
    EXPECT_EQ(stats.served_listed, report.listed_words);
    EXPECT_EQ(stats.served_reused, report.reused_words);
    // The deterministic fault-free workload must tally identically no
    // matter how sessions shard across workers, or which transport
    // answered it.
    EXPECT_EQ(stats.served_listed, expected.listed_words)
        << workers << " workers";
    EXPECT_EQ(stats.served_reused, expected.reused_words)
        << workers << " workers";
  }
}

// ---------------------------------------------------------------------------
// ChaosClient plan (name matches the CI thread-sanitizer suite filter)

class ChaosServeTest : public ::testing::Test {
 protected:
  Fixture fx_;
  std::shared_ptr<const CompiledSnapshot> snapshot_ =
      std::make_shared<const CompiledSnapshot>(fx_.build());

  [[nodiscard]] static ServerConfig chaos_server_config() {
    ServerConfig config;
    config.workers = 2;
    config.max_queue = 4;  // small on purpose: floods must overflow it
    config.deadline_ms = 10'000;
    config.stall_timeout_ms = 50;  // bounds the stall clients' wait
    return config;
  }

  void reconcile_exactly(const ServerStats& stats, const ChaosLedger& ledger) {
    // The ledger laws: every injected fault accounted, category by
    // category, with totals matching exactly — not approximately.
    EXPECT_EQ(stats.rejected_torn, ledger.torn_sent);
    EXPECT_EQ(stats.rejected_garbage, ledger.garbage_sent);
    EXPECT_EQ(stats.rejected_oversized, ledger.oversized_sent);
    EXPECT_EQ(stats.clients_evicted, ledger.stalls);
    EXPECT_EQ(stats.submitted_valid, ledger.valid_sent);
    EXPECT_EQ(stats.served + stats.shed_total(), ledger.valid_sent);
    EXPECT_EQ(ledger.ok_received + ledger.shed_received, ledger.valid_sent);
    EXPECT_TRUE(stats.reconciles());
  }
};

TEST_F(ChaosServeTest, PlanCoversEveryBehaviorDeterministically) {
  for (int i = 0; i < kChaosBehaviorCount; ++i) {
    EXPECT_EQ(chaos_behavior_for(1, i), static_cast<ChaosBehavior>(i));
  }
  // The seeded tail is a pure function of (seed, index).
  for (int i = kChaosBehaviorCount; i < 32; ++i) {
    EXPECT_EQ(chaos_behavior_for(7, i), chaos_behavior_for(7, i));
  }
}

TEST_F(ChaosServeTest, LedgerReconcilesExactlyAtEveryClientCount) {
  for (const int clients : {6, 12, 24}) {
    LookupEngine engine;
    engine.publish(snapshot_);
    LookupServer server(engine, chaos_server_config());

    ChaosConfig config;
    config.seed = 0xc4a05;
    config.clients = clients;
    config.batches_per_client = 16;
    config.batch_size = 8;
    const ChaosLedger ledger = run_chaos_clients(server, *snapshot_, config);
    server.drain();

    // The first six clients cycle through all behaviors, so each fault
    // class is genuinely present at every tested count.
    EXPECT_GE(ledger.torn_sent, 1u) << clients << " clients";
    EXPECT_GE(ledger.garbage_sent, 1u) << clients << " clients";
    EXPECT_GE(ledger.oversized_sent, 1u) << clients << " clients";
    EXPECT_GE(ledger.stalls, 1u) << clients << " clients";
    EXPECT_GT(ledger.valid_sent, 0u) << clients << " clients";
    reconcile_exactly(server.stats(), ledger);
  }
}

TEST_F(ChaosServeTest, PublishStormDuringSoakKeepsReadersProgressing) {
  LookupEngine engine;
  engine.publish(snapshot_);
  LookupServer server(engine, chaos_server_config());

  const blocklist::SnapshotStore empty_store;
  auto alternate = std::make_shared<const CompiledSnapshot>(
      SnapshotBuilder().with_store(empty_store).build());

  // A publish storm while the chaos plan runs: each publish waits out the
  // epoch readers, so this exercises swap + synchronize under real
  // concurrent query traffic (the TSan target for the epoch protocol).
  std::atomic<bool> stop{false};
  std::thread storm([&] {
    for (int i = 0; !stop.load() && i < 400; ++i) {
      engine.publish(i % 2 == 0 ? alternate : snapshot_);
    }
  });

  ChaosConfig config;
  config.seed = 0x570a1;
  config.clients = 12;
  config.batches_per_client = 16;
  config.batch_size = 8;
  const ChaosLedger ledger = run_chaos_clients(server, *snapshot_, config);
  stop.store(true);
  storm.join();
  server.drain();

  // Readers made progress under the storm (no livelock) and the ledger
  // still reconciles exactly; which snapshot answered each query is
  // timing-dependent, the accounting is not.
  EXPECT_GT(ledger.ok_received, 0u);
  reconcile_exactly(server.stats(), ledger);
  EXPECT_NE(engine.snapshot(), nullptr);
}

}  // namespace
}  // namespace reuse::serve
