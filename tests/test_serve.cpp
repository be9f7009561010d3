// The compiled serving snapshot: build semantics, byte determinism,
// round-trip framing, and hostile-file rejection of the snapshot and its
// delta; and the load generator over the in-process engine and a test
// transport.
#include "serve/snapshot.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "netbase/mem.h"
#include "netbase/thread_pool.h"
#include "serve/client.h"
#include "serve/lookup.h"

namespace reuse::serve {
namespace {

net::Ipv4Address addr(const char* text) {
  return *net::Ipv4Address::parse(text);
}

net::Ipv4Prefix prefix(const char* text) {
  return *net::Ipv4Prefix::parse(text);
}

/// A small hand-built world with every verdict class represented:
/// listed-only, listed+NATed, listed+dynamic, NATed-but-unlisted, and a
/// dynamic /24 with no entries at all.
struct Fixture {
  blocklist::SnapshotStore store;
  std::unordered_set<net::Ipv4Address> nated;
  net::PrefixSet dynamic;
  std::vector<blocklist::BlocklistInfo> catalogue;

  Fixture() {
    store.record(1, addr("1.0.0.1"), 0);  // listed only
    store.record(1, addr("2.0.0.1"), 0);  // listed + NATed
    store.record(2, addr("2.0.0.1"), 1);
    store.record(2, addr("3.0.0.1"), 0);  // listed + dynamic /24
    nated.insert(addr("2.0.0.1"));
    nated.insert(addr("9.0.0.9"));  // NATed, never listed
    dynamic.insert(prefix("3.0.0.0/24"));
    dynamic.insert(prefix("7.0.0.0/23"));  // no entries; context only
    catalogue.push_back({1, "list-1", "m", blocklist::ListCategory::kReputation,
                         0.1, 5.0, false});
    catalogue.push_back({2, "list-2", "m", blocklist::ListCategory::kReputation,
                         0.1, 5.0, false});
  }

  [[nodiscard]] CompiledSnapshot build(net::ThreadPool* pool = nullptr) const {
    return SnapshotBuilder()
        .with_store(store)
        .with_nated(nated)
        .with_dynamic(dynamic)
        .with_catalogue(catalogue)
        .with_source_fingerprint(0xabcdef01ULL)
        .build(pool);
  }
};

std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

/// A serve artifact kind: the fixture's instance saved to a path, and its
/// own loader's verdict on a path (with the diagnostic in `*error`).
struct ArtifactKind {
  const char* name;
  std::function<bool(const std::string&)> save;
  std::function<bool(const std::string&, std::string*)> load;
};

/// The compiled snapshot and the delta that builds it from an empty one.
std::vector<ArtifactKind> artifact_kinds(const Fixture& fx) {
  return {
      {"snapshot",
       [&fx](const std::string& path) { return fx.build().save(path); },
       [](const std::string& path, std::string* error) {
         return CompiledSnapshot::load(path, error).has_value();
       }},
      {"delta",
       [&fx](const std::string& path) {
         return SnapshotBuilder::diff(SnapshotBuilder().build(), fx.build())
             .save(path);
       },
       [](const std::string& path, std::string* error) {
         return SnapshotDelta::load(path, error).has_value();
       }},
  };
}

class ServeArtifact : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::string("test_serve_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".bin";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST(ServeSnapshot, VerdictSemantics) {
  const Fixture fx;
  const CompiledSnapshot snapshot = fx.build();
  // Entries: 3 distinct listed addresses + 1 NATed-unlisted.
  EXPECT_EQ(snapshot.entry_count(), 4u);
  // /24s with dynamic context: 3.0.0.0/24 plus both halves of 7.0.0.0/23.
  EXPECT_EQ(snapshot.dynamic24_count(), 3u);

  const Verdict listed_only = snapshot.verdict(addr("1.0.0.1"));
  EXPECT_TRUE(listed_only.listed());
  EXPECT_FALSE(listed_only.reused());
  EXPECT_FALSE(listed_only.greylist());

  const Verdict listed_nated = snapshot.verdict(addr("2.0.0.1"));
  EXPECT_TRUE(listed_nated.listed());
  EXPECT_TRUE(listed_nated.nated());
  EXPECT_FALSE(listed_nated.dynamic());
  EXPECT_TRUE(listed_nated.greylist());

  const Verdict listed_dynamic = snapshot.verdict(addr("3.0.0.1"));
  EXPECT_TRUE(listed_dynamic.listed());
  EXPECT_FALSE(listed_dynamic.nated());
  EXPECT_TRUE(listed_dynamic.dynamic());
  EXPECT_TRUE(listed_dynamic.greylist());

  const Verdict nated_unlisted = snapshot.verdict(addr("9.0.0.9"));
  EXPECT_FALSE(nated_unlisted.listed());
  EXPECT_TRUE(nated_unlisted.nated());
  EXPECT_FALSE(nated_unlisted.greylist());

  // Dynamic context reaches addresses with no entry at all — including a
  // /23 pool expanded to both covered /24s.
  EXPECT_TRUE(snapshot.verdict(addr("7.0.0.200")).dynamic());
  EXPECT_TRUE(snapshot.verdict(addr("7.0.1.7")).dynamic());
  EXPECT_FALSE(snapshot.verdict(addr("7.0.2.7")).dynamic());
  // Same /24 as a listed entry, different host: dynamic context, no listing.
  const Verdict neighbour = snapshot.verdict(addr("3.0.0.99"));
  EXPECT_FALSE(neighbour.listed());
  EXPECT_TRUE(neighbour.dynamic());

  const Verdict clean = snapshot.verdict(addr("200.1.2.3"));
  EXPECT_EQ(clean.bits, 0u);
}

TEST(ServeSnapshot, TopListBitmapRanksByAddressCount) {
  const Fixture fx;
  const CompiledSnapshot snapshot = fx.build();
  // list 1 and list 2 both hold 2 distinct addresses; the tie breaks toward
  // the smaller id, so bit 0 = list 1, bit 1 = list 2.
  ASSERT_EQ(snapshot.top_lists().size(), 2u);
  EXPECT_EQ(snapshot.top_lists()[0], 1u);
  EXPECT_EQ(snapshot.top_lists()[1], 2u);
  EXPECT_EQ(snapshot.verdict(addr("1.0.0.1")).list_bitmap(), 0b01u);
  EXPECT_EQ(snapshot.verdict(addr("2.0.0.1")).list_bitmap(), 0b11u);
  EXPECT_EQ(snapshot.verdict(addr("3.0.0.1")).list_bitmap(), 0b10u);
  EXPECT_EQ(snapshot.verdict(addr("9.0.0.9")).list_bitmap(), 0u);
}

TEST(ServeSnapshot, BatchMatchesPointQueries) {
  const Fixture fx;
  const CompiledSnapshot snapshot = fx.build();
  const std::vector<net::Ipv4Address> queries{
      addr("1.0.0.1"), addr("2.0.0.1"), addr("3.0.0.99"), addr("200.1.2.3"),
      addr("9.0.0.9")};
  std::vector<Verdict> batch(queries.size());
  snapshot.verdict_batch(queries, batch);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batch[i], snapshot.verdict(queries[i])) << "query " << i;
  }
}

TEST(ServeSnapshot, EmptyInputsProduceServableEmptySnapshot) {
  const blocklist::SnapshotStore store;
  const CompiledSnapshot snapshot =
      SnapshotBuilder().with_store(store).build();
  EXPECT_EQ(snapshot.entry_count(), 0u);
  EXPECT_EQ(snapshot.bucket_count(), 0u);
  EXPECT_EQ(snapshot.verdict(addr("1.2.3.4")).bits, 0u);
  EXPECT_TRUE(snapshot.entries_matching(kVerdictListed).empty());
}

TEST(ServeSnapshot, EntriesMatchingFiltersByMask) {
  const Fixture fx;
  const CompiledSnapshot snapshot = fx.build();
  const auto listed = snapshot.entries_matching(kVerdictListed);
  EXPECT_EQ(listed.size(), 3u);
  const auto nated = snapshot.entries_matching(kVerdictNated);
  EXPECT_EQ(nated.size(), 2u);
  const auto greylist =
      snapshot.entries_matching(kVerdictListed | kVerdictNated);
  ASSERT_EQ(greylist.size(), 1u);
  EXPECT_EQ(greylist[0], addr("2.0.0.1"));
  // Results come back sorted (they index a sorted array).
  EXPECT_TRUE(std::is_sorted(listed.begin(), listed.end()));
}

TEST_F(ServeArtifact, ParallelBuildIsByteIdenticalToSerial) {
  const Fixture fx;
  const CompiledSnapshot serial = fx.build(nullptr);
  net::ThreadPool pool(8);
  const CompiledSnapshot parallel = fx.build(&pool);
  EXPECT_EQ(serial.fingerprint(), parallel.fingerprint());

  ASSERT_TRUE(serial.save(path_));
  const std::string serial_bytes = file_bytes(path_);
  ASSERT_TRUE(parallel.save(path_));
  EXPECT_EQ(serial_bytes, file_bytes(path_));
  EXPECT_FALSE(serial_bytes.empty());
}

TEST_F(ServeArtifact, RoundTripPreservesEveryVerdict) {
  const Fixture fx;
  const CompiledSnapshot original = fx.build();
  ASSERT_TRUE(original.save(path_));
  const auto loaded = CompiledSnapshot::load(path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->fingerprint(), original.fingerprint());
  EXPECT_EQ(loaded->source_fingerprint(), 0xabcdef01ULL);
  EXPECT_EQ(loaded->entry_count(), original.entry_count());
  EXPECT_EQ(loaded->top_lists(), original.top_lists());
  for (const char* text : {"1.0.0.1", "2.0.0.1", "3.0.0.1", "3.0.0.99",
                           "9.0.0.9", "7.0.1.7", "200.1.2.3"}) {
    EXPECT_EQ(loaded->verdict(addr(text)), original.verdict(addr(text)))
        << text;
  }
}

TEST_F(ServeArtifact, RejectsMissingTruncatedAndCorruptFiles) {
  EXPECT_FALSE(CompiledSnapshot::load(path_).has_value());  // missing

  const Fixture fx;
  ASSERT_TRUE(fx.build().save(path_));
  const std::string good = file_bytes(path_);
  ASSERT_GT(good.size(), 64u);

  auto write_variant = [&](const std::string& bytes) {
    std::ofstream os(path_, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  // Truncation at several depths: inside the header and inside the payload.
  for (const std::size_t keep :
       {std::size_t{8}, std::size_t{40}, good.size() / 2, good.size() - 1}) {
    write_variant(good.substr(0, keep));
    EXPECT_FALSE(CompiledSnapshot::load(path_).has_value())
        << "truncated to " << keep;
  }
  // Trailing garbage after a valid image.
  write_variant(good + "x");
  EXPECT_FALSE(CompiledSnapshot::load(path_).has_value());
  // A bit flip anywhere in the payload breaks the checksum; in the header,
  // the magic/version/size checks.
  for (const std::size_t at :
       {std::size_t{0}, std::size_t{9}, std::size_t{48}, good.size() - 3}) {
    std::string bad = good;
    bad[at] = static_cast<char>(bad[at] ^ 0x20);
    write_variant(bad);
    EXPECT_FALSE(CompiledSnapshot::load(path_).has_value())
        << "bit flip at " << at;
  }
  // And the pristine bytes still load (the harness itself is sound).
  write_variant(good);
  EXPECT_TRUE(CompiledSnapshot::load(path_).has_value());
}

TEST(ServeEngine, RejectsNullPublishWithClearError) {
  LookupEngine engine;
  // "Serve nothing" is expressed with an *empty* snapshot; a null must
  // never reach the read path where it would look like "before first
  // publish" and silently answer all-clear.
  EXPECT_THROW(engine.publish(nullptr), std::invalid_argument);
  // The engine is untouched by the rejected call.
  EXPECT_EQ(engine.snapshot(), nullptr);

  const Fixture fx;
  engine.publish(std::make_shared<const CompiledSnapshot>(fx.build()));
  EXPECT_THROW(engine.publish(nullptr), std::invalid_argument);
  // Still serving what the last valid publish installed.
  EXPECT_TRUE(engine.verdict(addr("1.0.0.1")).listed());
}

TEST_F(ServeArtifact, RejectionMatrixYieldsDistinctDiagnostics) {
  const Fixture fx;
  for (const ArtifactKind& kind : artifact_kinds(fx)) {
    SCOPED_TRACE(kind.name);
    ASSERT_TRUE(kind.save(path_));
    const std::string good = file_bytes(path_);

    auto diagnose = [&](const std::string& at) {
      std::string error;
      EXPECT_FALSE(kind.load(at, &error));
      return error;
    };
    auto write_variant = [&](const std::string& bytes) {
      std::ofstream os(path_, std::ios::binary | std::ios::trunc);
      os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    };

    // Each failure mode must fail closed with its *own* message, so an
    // operator staring at a failed reload knows which one hit.
    const std::string missing = diagnose(path_ + ".nope");
    EXPECT_NE(missing.find("does not exist"), std::string::npos) << missing;

    const std::string directory = diagnose(".");
    EXPECT_NE(directory.find("not a regular file"), std::string::npos)
        << directory;

    write_variant("");  // a crashed writer's just-created tmp file
    const std::string zero = diagnose(path_);
    EXPECT_NE(zero.find("zero-length"), std::string::npos) << zero;

    write_variant(good.substr(0, 12));  // died inside the header
    const std::string header = diagnose(path_);
    EXPECT_NE(header.find("header"), std::string::npos) << header;

    write_variant(good.substr(0, good.size() / 2));  // died inside the payload
    const std::string payload = diagnose(path_);
    EXPECT_NE(payload.find("truncated payload"), std::string::npos) << payload;

    // Bit 30 of the payload size: declares 1 GiB more than the file holds,
    // and must be refused before anything is sized by it.
    std::string oversized = good;
    oversized[23] = static_cast<char>(oversized[23] ^ 0x40);
    write_variant(oversized);
    const std::uint64_t peak_before = net::peak_rss_bytes();
    const std::string declared = diagnose(path_);
    EXPECT_LT(net::peak_rss_bytes() - peak_before, std::uint64_t{64} << 20);
    EXPECT_NE(declared.find("truncated payload"), std::string::npos)
        << declared;

    write_variant(good + "x");
    const std::string trailing = diagnose(path_);
    EXPECT_NE(trailing.find("trailing bytes"), std::string::npos) << trailing;

    std::string flipped = good;
    const std::size_t last = good.size() - 3;
    flipped[last] = static_cast<char>(flipped[last] ^ 0x20);
    write_variant(flipped);
    const std::string checksum = diagnose(path_);
    EXPECT_NE(checksum.find("checksum mismatch"), std::string::npos)
        << checksum;

    std::string bad_magic = good;
    bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0x20);
    write_variant(bad_magic);
    const std::string magic = diagnose(path_);
    EXPECT_NE(magic.find("bad magic"), std::string::npos) << magic;

    // All eight diagnostics are pairwise distinct — no two modes collapse.
    const std::vector<std::string> all{missing, directory, zero,     header,
                                       payload, trailing,  checksum, magic};
    for (std::size_t i = 0; i < all.size(); ++i) {
      for (std::size_t j = i + 1; j < all.size(); ++j) {
        EXPECT_NE(all[i], all[j]) << "modes " << i << " and " << j;
      }
    }

    // And the pristine bytes still load, with no error text written.
    write_variant(good);
    std::string error = "untouched";
    EXPECT_TRUE(kind.load(path_, &error));
    EXPECT_EQ(error, "untouched");
  }
}

TEST(ServeEngine, PublishSwapsAnswersAtomically) {
  const Fixture fx;
  LookupEngine engine;
  EXPECT_EQ(engine.snapshot(), nullptr);

  auto first = std::make_shared<const CompiledSnapshot>(fx.build());
  engine.publish(first);
  EXPECT_TRUE(engine.verdict(addr("1.0.0.1")).listed());

  // Swap to an empty snapshot: the old answers must vanish entirely.
  const blocklist::SnapshotStore empty_store;
  auto empty = std::make_shared<const CompiledSnapshot>(
      SnapshotBuilder().with_store(empty_store).build());
  engine.publish(empty);
  EXPECT_FALSE(engine.verdict(addr("1.0.0.1")).listed());
  EXPECT_EQ(engine.snapshot()->entry_count(), 0u);
}

TEST(ServeWorkload, TalliesAreDeterministicAcrossThreadCounts) {
  const Fixture fx;
  auto snapshot = std::make_shared<const CompiledSnapshot>(fx.build());
  LookupEngine engine;
  engine.publish(snapshot);

  LoadConfig config;
  config.seed = 42;
  config.queries = 20'000;
  config.batch_size = 32;

  std::vector<LoadReport> reports;
  for (const int clients : {1, 2, 4}) {
    config.clients = clients;
    reports.push_back(run_load(engine, *snapshot, config));
  }
  const LoadReport& serial = reports.front();
  EXPECT_EQ(serial.submitted, 625u);  // 20'000 queries in batches of 32
  EXPECT_GT(serial.listed_words, 0u);
  EXPECT_GT(serial.reused_words, 0u);
  for (const LoadReport& report : reports) {
    EXPECT_EQ(report.submitted, serial.submitted);
    EXPECT_EQ(report.ok, report.submitted);
    EXPECT_EQ(report.shed, 0u);
    // Batch k's content is a pure function of (seed, k), so the verdict
    // tallies cannot depend on how batches landed on client threads.
    EXPECT_EQ(report.listed_words, serial.listed_words);
    EXPECT_EQ(report.reused_words, serial.reused_words);
    EXPECT_GT(report.throughput_qps, 0.0);
    EXPECT_GE(report.p99_nanos, report.p50_nanos);
    EXPECT_GE(report.max_nanos, report.p99_nanos);
    // Unpaced, a request's schedule is its send: the generator is never
    // late.
    EXPECT_EQ(report.send_late_p99_nanos, 0u);
    for (const std::uint64_t nanos : report.latency_nanos) {
      EXPECT_NE(nanos, LoadReport::kUnanswered);
    }
  }
}

TEST(ServeWorkload, MidRunSwapToEquivalentSnapshotKeepsTallies) {
  const Fixture fx;
  auto snapshot = std::make_shared<const CompiledSnapshot>(fx.build());
  const std::string good_path = "test_serve_reload_good.bin";
  const std::string corrupt_path = "test_serve_reload_corrupt.bin";
  const std::string delta_path = "test_serve_reload_delta.bin";
  ASSERT_TRUE(snapshot->save(good_path));
  const std::string bytes = file_bytes(good_path);
  std::ofstream(corrupt_path, std::ios::binary)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  ASSERT_TRUE(SnapshotBuilder::diff(*snapshot, *snapshot).save(delta_path));

  LookupEngine engine;
  engine.publish(snapshot);
  LoadConfig config;
  config.seed = 42;
  config.clients = 2;
  config.queries = 20'000;
  config.batch_size = 32;
  const LoadReport baseline = run_load(engine, *snapshot, config);

  // The reload sequence reuse_lookupd runs: a truncated copy (rejected,
  // last-good keeps serving), the artifact, then an identity delta. The
  // paced run lasts ~60 ms, so the reloads land among live queries.
  config.target_qps = 20'000 / 0.06;
  std::thread reloader([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::string error;
    EXPECT_FALSE(engine.reload(corrupt_path, &error));
    EXPECT_TRUE(engine.reload(good_path, &error)) << error;
    EXPECT_TRUE(engine.reload(delta_path, &error)) << error;
  });
  const LoadReport reloaded = run_load(engine, *snapshot, config);
  reloader.join();

  EXPECT_EQ(engine.reload_failures(), 1u);
  EXPECT_EQ(engine.reloads(), 2u);
  EXPECT_EQ(engine.snapshot()->fingerprint(), snapshot->fingerprint());
  // Every reloaded snapshot answers identically, so the deterministic
  // tallies survive reloads under traffic.
  EXPECT_EQ(reloaded.ok, baseline.ok);
  EXPECT_EQ(reloaded.listed_words, baseline.listed_words);
  EXPECT_EQ(reloaded.reused_words, baseline.reused_words);
  for (const std::string& path : {good_path, corrupt_path, delta_path}) {
    std::remove(path.c_str());
  }
}

/// A transport double: answers in send order, each as soon as it is sent,
/// except request `held`, whose answer — and so every answer behind it —
/// is held back for `hold`.
class StallingSession final : public LoadSession {
 public:
  StallingSession(std::uint64_t held, Clock::duration hold,
                  Clock::time_point& first_send, Clock::time_point& stall_end)
      : held_(held), hold_(hold), first_send_(first_send),
        stall_end_(stall_end) {}

  bool send_batch(std::uint64_t request_id,
                  std::span<const std::uint32_t> addresses) override {
    const Clock::time_point now = Clock::now();
    if (request_id == 0) first_send_ = now;
    Clock::time_point ready = now;
    if (request_id == held_) ready = stall_end_ = now + hold_;
    pending_.push_back({request_id, addresses.size(), ready});
    return true;
  }

  std::optional<ResponseFrame> read_response(
      Clock::time_point deadline) override {
    if (pending_.empty() || pending_.front().ready > deadline) {
      if (pending_.empty() && deadline == Clock::time_point::max()) {
        return std::nullopt;
      }
      std::this_thread::sleep_until(deadline);
      return std::nullopt;
    }
    const Pending next = pending_.front();
    pending_.pop_front();
    std::this_thread::sleep_until(next.ready);
    ResponseFrame answer;
    answer.request_id = next.id;
    answer.verdicts.assign(next.count, 0);
    return answer;
  }

  void shutdown_write() override {}

 private:
  struct Pending {
    std::uint64_t id;
    std::size_t count;
    Clock::time_point ready;
  };
  const std::uint64_t held_;
  const Clock::duration hold_;
  Clock::time_point& first_send_;
  Clock::time_point& stall_end_;
  std::deque<Pending> pending_;
};

TEST(ServeWorkload, LatencyIsTimedFromTheScheduledSend) {
  using namespace std::chrono_literals;
  const Fixture fx;
  const CompiledSnapshot snapshot = fx.build();
  LoadConfig config;
  config.clients = 1;
  config.batch_size = 1;
  config.queries = 120;
  config.target_qps = 1000.0;  // one request per millisecond
  config.max_in_flight = 4;
  constexpr std::uint64_t kHeld = 10;

  LoadSession::Clock::time_point first_send;
  LoadSession::Clock::time_point stall_end;
  const LoadReport report = run_load(
      [&] {
        return std::make_unique<StallingSession>(kHeld, 50ms, first_send,
                                                 stall_end);
      },
      snapshot, config);
  ASSERT_EQ(report.submitted, 120u);
  ASSERT_EQ(report.ok, 120u);

  const auto nanos = [](LoadSession::Clock::duration d) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
  };
  EXPECT_GE(report.latency_nanos[kHeld], nanos(50ms));
  // Request k was scheduled at start + k ms, and start was no later than
  // request 0's send. Every request scheduled inside the stall waited for
  // its end, whenever the full window let it go out; a send-time stamp
  // would charge these requests almost nothing.
  const std::uint64_t tolerance = nanos(2ms);
  int inside = 0;
  for (std::uint64_t id = kHeld + 1; id < config.queries; ++id) {
    const auto scheduled_by = first_send + id * 1ms;
    if (scheduled_by >= stall_end) break;
    ++inside;
    EXPECT_GE(report.latency_nanos[id] + tolerance,
              nanos(stall_end - scheduled_by))
        << "request " << id;
    // Past the window's last free slot the client itself was held until
    // the stall ended, and its send lateness shows the hold.
    if (id >= kHeld + config.max_in_flight) {
      EXPECT_GE(report.send_late_nanos[id] + tolerance,
                nanos(stall_end - scheduled_by))
          << "request " << id;
    }
  }
  EXPECT_GE(inside, 40);
  EXPECT_GT(report.send_late_p99_nanos, 0u);
}

}  // namespace
}  // namespace reuse::serve
