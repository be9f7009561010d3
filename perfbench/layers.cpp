// Per-layer counters and the in-process lookup-layer probe.
#include <memory>

#include "serve/client.h"
#include "serve/frame.h"
#include "serve/lookup.h"
#include "workloads.h"

namespace perfbench {

using namespace reuse;

namespace {

double ratio(std::uint64_t num, std::uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

constexpr std::uint64_t kProbeSalt = 0x7065726670726f62ULL;
constexpr int kProbeBatches = 2000;

}  // namespace

analysis::ScenarioConfig shaped_config(std::uint64_t seed, std::size_t ases,
                                       std::size_t probes, bool census,
                                       int period_days) {
  analysis::ScenarioConfig config;
  config.seed = seed;
  config.world = inet::test_world_config(seed);
  config.world.as_count = ases;
  config.fleet.probe_count = probes;
  config.crawl_days = 1;
  config.run_census = census;
  config.jobs = 1;
  if (period_days > 0) {
    config.ecosystem.periods = {net::TimeWindow{
        net::SimTime(0),
        net::SimTime(static_cast<std::int64_t>(period_days) * 86400)}};
    config.horizon_days = period_days + 1;
  }
  config.finalize();
  return config;
}

std::int64_t span_end_seconds(const analysis::ScenarioConfig& config) {
  std::int64_t end = 0;
  for (const net::TimeWindow& period : config.ecosystem.periods) {
    end = std::max(end, period.end.seconds());
  }
  return end;
}

std::map<std::string, double> product_counters(
    const blocklist::EcosystemResult& ecosystem,
    const analysis::CrawlOutput* crawl, const atlas::AtlasFleet& fleet,
    const dynadetect::PipelineResult& pipeline,
    const census::CensusResult* census) {
  const blocklist::EcosystemStats& eco = ecosystem.stats;
  std::map<std::string, double> out = {
      {"blocklist.events_seen", static_cast<double>(eco.events_seen)},
      {"blocklist.pickup_ratio", ratio(eco.events_picked_up, eco.events_seen)},
      {"blocklist.listings",
       static_cast<double>(ecosystem.store.listing_count())},
      {"blocklist.store_mb",
       static_cast<double>(ecosystem.store.memory_bytes()) / (1 << 20)},
      {"atlas.records",
       static_cast<double>(fleet.compressed_log().record_count())},
      {"atlas.runs", static_cast<double>(fleet.compressed_log().run_count())},
      {"dynadetect.qualifying_probes",
       static_cast<double>(pipeline.qualifying_probes.size())},
  };
  if (crawl != nullptr) {
    const crawler::CrawlStats& cs = crawl->stats;
    out["crawler.messages"] =
        static_cast<double>(cs.get_nodes_sent + cs.pings_sent);
    out["crawler.ping_reply_ratio"] = ratio(cs.ping_responses, cs.pings_sent);
    out["crawler.nated"] = static_cast<double>(crawl->nated.size());
  }
  if (census != nullptr) {
    out["census.probes_sent"] = static_cast<double>(census->probes_sent);
    out["census.response_ratio"] =
        ratio(census->responses, census->probes_sent);
  }
  return out;
}

void probe_lookup_layer(const serve::CompiledSnapshot& snapshot,
                        std::uint64_t seed, Samples& samples) {
  serve::LookupEngine engine;
  engine.publish(std::make_shared<const serve::CompiledSnapshot>(snapshot));
  const serve::SamplePools pools = serve::sample_pools(snapshot);
  net::Rng rng = net::substream(seed, kProbeSalt, 0);
  std::vector<std::uint32_t> words(64);
  std::vector<net::Ipv4Address> queries(64);
  std::vector<serve::Verdict> verdicts(64);
  std::vector<std::uint32_t> verdict_words(64);
  std::vector<double> batch_us, encode_us, decode_us;
  serve::ResponseDecoder decoder;
  for (int b = 0; b < kProbeBatches; ++b) {
    serve::fill_batch(rng, pools, 0.4, 0.3, words);
    for (std::size_t i = 0; i < words.size(); ++i) {
      queries[i] = net::Ipv4Address(words[i]);
    }
    auto t0 = Clock::now();
    engine.verdict_batch(queries, verdicts);
    auto t1 = Clock::now();
    const std::string request =
        serve::encode_request(static_cast<std::uint64_t>(b), words);
    auto t2 = Clock::now();
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      verdict_words[i] = verdicts[i].bits;
    }
    const std::string response = serve::encode_response(
        static_cast<std::uint64_t>(b), serve::ResponseStatus::kOk,
        verdict_words);
    auto t3 = Clock::now();
    decoder.feed(response);
    const std::optional<serve::ResponseFrame> frame = decoder.next();
    auto t4 = Clock::now();
    (void)request;
    (void)frame;
    using us = std::chrono::duration<double, std::micro>;
    batch_us.push_back(us(t1 - t0).count());
    encode_us.push_back(us(t2 - t1).count());
    decode_us.push_back(us(t4 - t3).count());
  }
  samples.add("serve.engine_batch_us", median(batch_us));
  samples.add("serve.engine_batch_p99_us", quantile(batch_us, 0.99));
  samples.add("serve.encode_us", median(encode_us));
  samples.add("serve.decode_us", median(decode_us));
}

}  // namespace perfbench
