#include "blocklist/catalogue.h"

#include <algorithm>
#include <cmath>

#include "netbase/rng.h"

namespace reuse::blocklist {
namespace {

using enum ListCategory;

// Table 2, as published, with category/size assignments from the maintainers'
// public descriptions (badips = per-service abuse trackers, abuse.ch =
// malware C2 feeds, nixspam/stopforumspam = spam traps, etc.).
const std::vector<MaintainerRow> kTable2 = {
    {"Bad IPs", 44, kReputation, 2.0, false},
    {"Bambenek", 22, kMalware, 0.6, false},
    {"Abuse.ch", 10, kMalware, 0.8, true},
    {"Normshield", 9, kReputation, 0.7, false},
    {"Blocklist.de", 9, kBruteforce, 1.2, true},
    {"Malware bytes", 9, kMalware, 0.8, false},
    {"Project Honeypot", 4, kReputation, 0.9, true},
    {"CoinBlockerLists", 4, kMalware, 0.4, false},
    {"NoThink", 3, kScan, 0.5, false},
    {"Emerging threats", 2, kDdos, 1.0, false},
    {"ImproWare", 2, kSpam, 0.6, false},
    {"Botvrij.EU", 2, kMalware, 0.4, false},
    {"IP Finder", 1, kReputation, 0.5, false},
    {"Cleantalk", 1, kSpam, 1.2, true},
    {"Sblam!", 1, kSpam, 0.8, false},
    {"Nixspam", 1, kSpam, 3.0, true},
    {"Blocklist Project", 1, kReputation, 0.6, false},
    {"BruteforceBlocker", 1, kBruteforce, 0.7, false},
    {"Cruzit", 1, kReputation, 0.6, false},
    {"Haley", 1, kBruteforce, 0.6, false},
    {"Botscout", 1, kSpam, 0.8, false},
    {"My IP", 1, kReputation, 0.5, false},
    {"Taichung", 1, kScan, 0.6, false},
    {"Cisco Talos", 1, kReputation, 1.0, true},
    {"Alienvault", 1, kReputation, 2.6, false},
    {"Binary Defense", 1, kReputation, 0.8, false},
    {"GreenSnow", 1, kBruteforce, 0.9, false},
    {"Snort Labs", 1, kReputation, 0.7, false},
    {"GPF Comics", 1, kScan, 0.4, false},
    {"Turris", 1, kScan, 0.6, false},
    {"CINSscore", 1, kReputation, 0.9, false},
    {"Nullsecure", 1, kScan, 0.4, false},
    {"DYN", 1, kMalware, 0.5, false},
    {"Malware domain list", 1, kMalware, 0.5, false},
    {"Malc0de", 1, kMalware, 0.4, false},
    {"URLVir", 1, kMalware, 0.4, false},
    {"Threatcrowd", 1, kReputation, 0.6, false},
    {"CyberCrime", 1, kMalware, 0.5, false},
    {"IBM X-Force", 1, kReputation, 1.0, false},
    {"VXVault", 1, kMalware, 0.4, false},
    {"Stopforumspam", 1, kSpam, 3.2, true},
};

// Bad IPs runs one sub-list per monitored service; spread its 44 lists over
// the service categories it actually tracks.
constexpr ListCategory kBadIpsRotation[] = {kBruteforce, kSpam, kScan,
                                            kDdos, kReputation};

// Per-category retention: spam/scan feeds expire fast, malware feeds hold
// entries long, reputation in between. Means in days.
double removal_mean_for(ListCategory category) {
  switch (category) {
    case kSpam: return 2.2;
    case kBruteforce: return 3.4;
    case kScan: return 2.2;
    case kDdos: return 3.8;
    case kReputation: return 4.5;
    case kMalware: return 7.5;
  }
  return 6.0;
}

}  // namespace

const std::vector<MaintainerRow>& table2_rows() { return kTable2; }

std::vector<BlocklistInfo> build_catalogue(std::uint64_t seed) {
  net::Rng rng(seed);
  std::vector<BlocklistInfo> catalogue;
  ListId next_id = 1;
  for (const MaintainerRow& row : kTable2) {
    for (int i = 0; i < row.list_count; ++i) {
      BlocklistInfo info;
      info.id = next_id++;
      info.maintainer = row.maintainer;
      info.name = std::string(row.maintainer);
      std::replace(info.name.begin(), info.name.end(), ' ', '-');
      if (row.list_count > 1) {
        info.name.append("-").append(std::to_string(i + 1));
      }
      info.category = row.maintainer == std::string_view("Bad IPs")
                          ? kBadIpsRotation[static_cast<std::size_t>(i) %
                                            std::size(kBadIpsRotation)]
                          : row.primary_category;
      // Sub-lists of one maintainer split its sensor coverage.
      const double divisor = row.list_count > 1
                                 ? std::sqrt(static_cast<double>(row.list_count))
                                 : 1.0;
      info.pickup_rate = std::min(
          0.9, 0.0010 * row.size_factor / divisor *
                   std::exp(rng.normal(0.0, 0.35)));
      info.removal_mean_days =
          removal_mean_for(info.category) * std::exp(rng.normal(0.0, 0.25));
      info.used_by_operators = row.used_by_operators;
      catalogue.push_back(std::move(info));
    }
  }
  return catalogue;
}

}  // namespace reuse::blocklist
