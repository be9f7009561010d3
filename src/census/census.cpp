#include "census/census.h"

#include <algorithm>

#include "netbase/rng.h"
#include "netbase/thread_pool.h"

namespace reuse::census {

namespace {

/// Core metric fold over one address's probe row (0 = silent,
/// 1 = responded). `uptimes` is a buffer the caller reuses across rows.
AddressMetrics metrics_from_row(const std::uint8_t* row, std::size_t slots,
                                net::Duration interval,
                                std::vector<std::int64_t>& uptimes) {
  AddressMetrics metrics;
  metrics.probes = static_cast<std::uint32_t>(slots);
  uptimes.clear();
  std::int64_t run = 0;
  bool previous = false;
  for (std::size_t i = 0; i < slots; ++i) {
    const bool up = row[i] != 0;
    if (up) {
      ++metrics.responses;
      run += interval.count();
    }
    if (i > 0 && up != previous) ++metrics.transitions;
    if (!up && run > 0) {
      uptimes.push_back(run);
      run = 0;
    }
    previous = up;
  }
  if (run > 0) uptimes.push_back(run);
  if (!uptimes.empty()) {
    const auto median = uptimes.begin() + uptimes.size() / 2;
    std::nth_element(uptimes.begin(), median, uptimes.end());
    metrics.median_uptime_seconds = *median;
  }
  return metrics;
}

}  // namespace

AddressMetrics metrics_from_sequence(const std::vector<bool>& responses,
                                     net::Duration interval) {
  const std::vector<std::uint8_t> row(responses.begin(), responses.end());
  std::vector<std::int64_t> uptimes;
  return metrics_from_row(row.data(), row.size(), interval, uptimes);
}

bool is_dynamic_block(const BlockMetrics& metrics, const DynamicBlockRule& rule) {
  return metrics.responsive_addresses >= rule.min_responsive &&
         metrics.mean_availability >= rule.min_availability &&
         metrics.mean_availability <= rule.max_availability &&
         metrics.mean_volatility >= rule.min_volatility &&
         metrics.mean_volatility <= rule.max_volatility &&
         metrics.median_uptime_seconds <= rule.max_median_uptime.count();
}

namespace {

/// The probe times every address is pinged at, in the forms the ping
/// model's evaluators take. Built once per census and shared by all blocks.
struct Schedule {
  std::vector<std::int64_t> seconds;
  std::vector<std::uint64_t> hours;  ///< seconds / 3600
  std::vector<double> days;          ///< seconds / 86400.0
};

Schedule make_schedule(const CensusConfig& config) {
  Schedule schedule;
  const std::int64_t end = config.window.end.seconds();
  for (std::int64_t t = config.window.begin.seconds(); t < end;
       t += config.probe_interval.count()) {
    schedule.seconds.push_back(t);
    schedule.hours.push_back(static_cast<std::uint64_t>(t / 3600));
    schedule.days.push_back(static_cast<double>(t) / 86400.0);
  }
  return schedule;
}

/// Writes whether `ping` answers at each probe of the schedule into `row`.
void fill_row(const inet::AddressPing& ping, const Schedule& schedule,
              std::uint8_t* row) {
  const std::size_t slots = schedule.seconds.size();
  switch (ping.kind()) {
    case inet::AddressPing::Kind::kSilent:
      std::fill(row, row + slots, 0);
      return;
    case inet::AddressPing::Kind::kAlwaysUp:
      std::fill(row, row + slots, 1);
      return;
    case inet::AddressPing::Kind::kHourly:
      for (std::size_t s = 0; s < slots; ++s) {
        row[s] = ping.hourly_at(schedule.hours[s]) ? 1 : 0;
      }
      return;
    case inet::AddressPing::Kind::kDiurnal:
      for (std::size_t s = 0; s < slots; ++s) {
        row[s] = ping.diurnal_at(schedule.days[s]) ? 1 : 0;
      }
      return;
    case inet::AddressPing::Kind::kLease: {
      // The two lease draws change only when the lease slot does.
      std::uint64_t lease = 0;
      bool up = false;
      for (std::size_t s = 0; s < slots; ++s) {
        const std::uint64_t slot = ping.lease_slot(schedule.seconds[s]);
        if (s == 0 || slot != lease) {
          lease = slot;
          up = ping.leased_at(slot);
        }
        row[s] = up ? 1 : 0;
      }
      return;
    }
  }
}

/// Survey of one sampled /24: the aggregate metrics plus the raw probe
/// counters that fold into the result totals. Pure function of
/// (model, config, block), so blocks survey in parallel and merge in
/// sample order.
struct BlockOutcome {
  BlockMetrics metrics;
  std::uint64_t probes_sent = 0;
  std::uint64_t responses = 0;
  bool responsive = false;
  bool dynamic_block = false;
};

BlockOutcome survey_block(const inet::PingModel& model,
                          const Schedule& schedule, const CensusConfig& config,
                          const DynamicBlockRule& rule,
                          net::Ipv4Prefix block) {
  const std::size_t slots = schedule.seconds.size();
  BlockOutcome out;
  BlockMetrics& aggregate = out.metrics;
  aggregate.block = block;
  double availability_sum = 0.0;
  double volatility_sum = 0.0;
  // One row and one uptime buffer, reused by every address of the block.
  std::vector<std::uint8_t> row(slots);
  std::vector<std::int64_t> uptimes;
  std::vector<std::int64_t> block_uptimes;
  for (std::uint64_t offset = 0; offset < block.size(); ++offset) {
    out.probes_sent += slots;
    const inet::AddressPing ping = model.resolve(block.address_at(offset));
    // A silent address answers no probe: nothing to fill or fold.
    if (ping.kind() == inet::AddressPing::Kind::kSilent) continue;
    fill_row(ping, schedule, row.data());
    const AddressMetrics metrics =
        metrics_from_row(row.data(), slots, config.probe_interval, uptimes);
    out.responses += metrics.responses;
    if (metrics.responses == 0) continue;
    ++aggregate.responsive_addresses;
    availability_sum += metrics.availability();
    volatility_sum += metrics.volatility();
    block_uptimes.push_back(metrics.median_uptime_seconds);
  }
  if (aggregate.responsive_addresses == 0) return out;
  out.responsive = true;
  aggregate.mean_availability =
      availability_sum / aggregate.responsive_addresses;
  aggregate.mean_volatility = volatility_sum / aggregate.responsive_addresses;
  const auto median = block_uptimes.begin() + block_uptimes.size() / 2;
  std::nth_element(block_uptimes.begin(), median, block_uptimes.end());
  aggregate.median_uptime_seconds = *median;
  out.dynamic_block = is_dynamic_block(aggregate, rule);
  return out;
}

}  // namespace

CensusResult run_census(const inet::World& world, const CensusConfig& config,
                        const DynamicBlockRule& rule, net::ThreadPool* pool) {
  CensusResult result;
  net::Rng rng(config.seed);
  const inet::PingModel model(world, config.seed ^ 0x9137ULL);
  const Schedule schedule = make_schedule(config);

  // Collect every assigned /24, then sample. The sampling draw stays on the
  // serial prologue's generator: the chosen set is independent of pool size.
  std::vector<net::Ipv4Prefix> all_blocks;
  for (const inet::AsInfo& as_info : world.ases()) {
    all_blocks.insert(all_blocks.end(), as_info.prefixes.begin(),
                      as_info.prefixes.end());
  }
  const auto sample_size = static_cast<std::size_t>(
      static_cast<double>(all_blocks.size()) * config.block_sample_fraction);
  const std::vector<std::size_t> chosen =
      rng.sample_indices(all_blocks.size(), sample_size);
  result.blocks_surveyed = chosen.size();

  std::vector<BlockOutcome> outcomes(chosen.size());
  net::for_each_index(pool, chosen.size(), [&](std::size_t i) {
    outcomes[i] =
        survey_block(model, schedule, config, rule, all_blocks[chosen[i]]);
  });

  // Merge in sample order — identical block/insert order to a serial run.
  for (const BlockOutcome& out : outcomes) {
    result.probes_sent += out.probes_sent;
    result.responses += out.responses;
    if (!out.responsive) continue;
    if (out.dynamic_block) result.dynamic_blocks.insert(out.metrics.block);
    result.blocks.push_back(out.metrics);
  }
  return result;
}

}  // namespace reuse::census
