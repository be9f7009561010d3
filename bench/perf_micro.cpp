// Microbenchmarks for the performance-sensitive building blocks
// (google-benchmark). These back the engineering claims in DESIGN.md:
// longest-prefix match and the DHT routing path are the hot loops when the
// analysis joins millions of addresses, and the census survey pings every
// sampled address on the whole probe schedule.
#include <benchmark/benchmark.h>

#include <sstream>

#include "blocklist/catalogue.h"
#include "blocklist/ecosystem.h"
#include "blocklist/store.h"
#include "census/census.h"
#include "dht/node_id.h"
#include "dht/routing_table.h"
#include "internet/world.h"
#include "netbase/interval_set.h"
#include "netbase/kneedle.h"
#include "netbase/prefix_trie.h"
#include "netbase/rng.h"
#include "netbase/stats.h"
#include "netbase/thread_pool.h"

namespace {

using namespace reuse;

void BM_PrefixTrieInsert(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  net::Rng rng(1);
  std::vector<net::Ipv4Prefix> prefixes;
  prefixes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    prefixes.emplace_back(net::Ipv4Address(static_cast<std::uint32_t>(rng())),
                          24);
  }
  for (auto _ : state) {
    net::PrefixTrie<std::uint32_t> trie;
    for (std::size_t i = 0; i < count; ++i) {
      trie.insert(prefixes[i], static_cast<std::uint32_t>(i));
    }
    benchmark::DoNotOptimize(trie.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_PrefixTrieInsert)->Arg(1000)->Arg(100000);

void BM_PrefixTrieLookup(benchmark::State& state) {
  net::Rng rng(2);
  net::PrefixTrie<std::uint32_t> trie;
  for (std::uint32_t i = 0; i < 100000; ++i) {
    trie.insert(net::Ipv4Prefix(net::Ipv4Address(static_cast<std::uint32_t>(rng())), 24), i);
  }
  std::vector<net::Ipv4Address> probes;
  for (int i = 0; i < 1024; ++i) {
    probes.emplace_back(static_cast<std::uint32_t>(rng()));
  }
  std::size_t index = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.lookup_ptr(probes[index++ & 1023]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PrefixTrieLookup);

void BM_RoutingTableClosest(benchmark::State& state) {
  net::Rng rng(3);
  auto random_id = [&rng] {
    std::array<std::uint32_t, 5> words{};
    for (auto& w : words) w = static_cast<std::uint32_t>(rng());
    return dht::NodeId(words);
  };
  dht::RoutingTable table(random_id());
  for (int i = 0; i < 256; ++i) {
    table.insert({net::Endpoint{net::Ipv4Address(static_cast<std::uint32_t>(i)), 1},
                  random_id()});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.closest(random_id(), 8));
  }
}
BENCHMARK(BM_RoutingTableClosest);

void BM_NodeIdDerive(benchmark::State& state) {
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dht::NodeId::derive(0x0A000001, nonce++));
  }
}
BENCHMARK(BM_NodeIdDerive);

void BM_IntervalSetInsert(benchmark::State& state) {
  net::Rng rng(4);
  std::vector<std::pair<std::int64_t, std::int64_t>> spans;
  for (int i = 0; i < 4096; ++i) {
    const auto begin = static_cast<std::int64_t>(rng.uniform(100000));
    spans.emplace_back(begin, begin + 1 + static_cast<std::int64_t>(rng.uniform(50)));
  }
  for (auto _ : state) {
    net::IntervalSet set;
    for (const auto& [begin, end] : spans) set.insert(begin, end);
    benchmark::DoNotOptimize(set.measure());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_IntervalSetInsert);

void BM_Kneedle(benchmark::State& state) {
  std::vector<double> curve;
  for (int i = 0; i < 10000; ++i) {
    curve.push_back(1000.0 / (1.0 + i * 0.01));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::find_knee(curve));
  }
}
BENCHMARK(BM_Kneedle);

// The two cache-restore strategies for the blocklist presence store. The
// cache loader used to replay every listed day through record(); it now
// inserts whole intervals through record_span(). Synthetic listings mirror
// the bench-scale store: a few multi-week presence intervals per listing.
std::vector<std::pair<std::int64_t, std::int64_t>> listing_spans(
    net::Rng& rng) {
  std::vector<std::pair<std::int64_t, std::int64_t>> spans;
  std::int64_t day = static_cast<std::int64_t>(rng.uniform(10));
  const std::size_t intervals = 1 + rng.uniform(3);
  for (std::size_t i = 0; i < intervals; ++i) {
    const auto length = 3 + static_cast<std::int64_t>(rng.uniform(28));
    spans.emplace_back(day, day + length);
    day += length + 2 + static_cast<std::int64_t>(rng.uniform(10));
  }
  return spans;
}

void BM_StoreRestorePerDay(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  net::Rng rng(9);
  std::int64_t listed_days = 0;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> listings;
  for (std::size_t i = 0; i < count; ++i) {
    listings.push_back(listing_spans(rng));
    for (const auto& [begin, end] : listings.back()) listed_days += end - begin;
  }
  for (auto _ : state) {
    blocklist::SnapshotStore store;
    for (std::size_t i = 0; i < count; ++i) {
      const net::Ipv4Address address(static_cast<std::uint32_t>(i));
      for (const auto& [begin, end] : listings[i]) {
        for (std::int64_t day = begin; day < end; ++day) {
          store.record(1, address, day);
        }
      }
    }
    benchmark::DoNotOptimize(store.listing_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          listed_days);
}
BENCHMARK(BM_StoreRestorePerDay)->Arg(10000);

void BM_StoreRestoreSpan(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  net::Rng rng(9);
  std::int64_t listed_days = 0;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> listings;
  for (std::size_t i = 0; i < count; ++i) {
    listings.push_back(listing_spans(rng));
    for (const auto& [begin, end] : listings.back()) listed_days += end - begin;
  }
  for (auto _ : state) {
    blocklist::SnapshotStore store;
    for (std::size_t i = 0; i < count; ++i) {
      const net::Ipv4Address address(static_cast<std::uint32_t>(i));
      for (const auto& [begin, end] : listings[i]) {
        store.record_span(1, address, begin, end);
      }
    }
    benchmark::DoNotOptimize(store.listing_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          listed_days);
}
BENCHMARK(BM_StoreRestoreSpan)->Arg(10000);

void BM_IntDistributionCdfSweep(benchmark::State& state) {
  // One fraction_at_most() query per x value, as the Figure 8 chart does.
  net::Rng rng(10);
  net::IntDistribution distribution;
  for (int i = 0; i < 100000; ++i) {
    distribution.add(2 + static_cast<std::int64_t>(rng.pareto(2.0, 1.7)));
  }
  for (auto _ : state) {
    double sum = 0.0;
    for (std::int64_t v = 1; v <= distribution.max_value(); ++v) {
      sum += distribution.fraction_at_most(v);
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_IntDistributionCdfSweep);

void BM_EmpiricalCdfBuild(benchmark::State& state) {
  net::Rng rng(5);
  std::vector<double> samples;
  for (int i = 0; i < 100000; ++i) samples.push_back(rng.exponential(9.0));
  for (auto _ : state) {
    net::EmpiricalCdf cdf{std::vector<double>(samples)};
    benchmark::DoNotOptimize(cdf.median());
  }
}
BENCHMARK(BM_EmpiricalCdfBuild);

void BM_RngDistributions(benchmark::State& state) {
  net::Rng rng(6);
  double sink = 0;
  for (auto _ : state) {
    sink += rng.exponential(2.0) + rng.pareto(2.0, 1.5) +
            static_cast<double>(rng.poisson(5.0));
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RngDistributions);

std::vector<inet::AbuseEvent> synthetic_abuse_events(std::size_t count) {
  net::Rng rng(8);
  std::vector<inet::AbuseEvent> events;
  events.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    inet::AbuseEvent event;
    event.time_seconds = static_cast<std::int64_t>(i) * 10;
    event.source = net::Ipv4Address(static_cast<std::uint32_t>(rng.uniform(1 << 20)));
    event.category = static_cast<inet::AbuseCategory>(rng.uniform(5));
    events.push_back(event);
  }
  return events;
}

void BM_EcosystemThroughput(benchmark::State& state) {
  // Event-processing rate of the blocklist ecosystem (events/second).
  const auto catalogue = blocklist::build_catalogue(7);
  const auto events = synthetic_abuse_events(50000);
  blocklist::EcosystemConfig config;
  config.periods = {{net::SimTime(0), net::SimTime(10 * 86400)}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        blocklist::simulate_ecosystem(catalogue, events, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 50000);
}
BENCHMARK(BM_EcosystemThroughput);

void BM_EcosystemThroughputParallel(benchmark::State& state) {
  // Per-feed parallel evolution at a given pool size; Arg(1) is the serial
  // baseline (no pool). Throughput is effective events/second across feeds.
  const auto jobs = static_cast<std::size_t>(state.range(0));
  const auto catalogue = blocklist::build_catalogue(7);
  const auto events = synthetic_abuse_events(50000);
  blocklist::EcosystemConfig config;
  config.periods = {{net::SimTime(0), net::SimTime(10 * 86400)}};
  net::ThreadPool pool(jobs);
  net::ThreadPool* handle = jobs > 1 ? &pool : nullptr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(blocklist::simulate_ecosystem(
        catalogue, events, config, nullptr, handle));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 50000);
}
BENCHMARK(BM_EcosystemThroughputParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(static_cast<int>(reuse::net::ThreadPool::hardware_jobs()));

void BM_CensusSurvey(benchmark::State& state) {
  // Probes per second of the ICMP census: the default 14-day, 2-hour survey
  // of a quarter of a test-scale world's /24s, serial.
  const inet::World world(inet::test_world_config(7));
  const census::CensusConfig config;
  std::uint64_t probes = 0;
  for (auto _ : state) {
    const census::CensusResult result = census::run_census(world, config);
    probes += result.probes_sent;
    benchmark::DoNotOptimize(result.responses);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(probes));
}
BENCHMARK(BM_CensusSurvey)->Unit(benchmark::kMillisecond);

void BM_ParallelForOverhead(benchmark::State& state) {
  // Dispatch + join cost of parallel_for against a trivial body, at 1, 10
  // and 100k items: the crossover where fan-out starts paying for itself.
  const auto count = static_cast<std::size_t>(state.range(0));
  const auto jobs = static_cast<std::size_t>(state.range(1));
  net::ThreadPool pool(jobs);
  std::vector<std::uint64_t> sink(count, 0);
  for (auto _ : state) {
    pool.parallel_for(count, [&](std::size_t i) { sink[i] += i; });
    benchmark::DoNotOptimize(sink.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_ParallelForOverhead)
    ->Args({1, 1})
    ->Args({10, 1})
    ->Args({100000, 1})
    ->Args({1, 4})
    ->Args({10, 4})
    ->Args({100000, 4});

void BM_ParallelForSerialBaseline(benchmark::State& state) {
  // The same trivial body as BM_ParallelForOverhead run as a plain loop —
  // the zero-overhead reference line.
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> sink(count, 0);
  for (auto _ : state) {
    for (std::size_t i = 0; i < count; ++i) sink[i] += i;
    benchmark::DoNotOptimize(sink.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_ParallelForSerialBaseline)->Arg(1)->Arg(10)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
