// greylist_audit — split a blocklist into block/greylist using a
// reused-address list (the operator workflow of §6).
//
//   greylist_audit --blocklist feed.txt --reused reused.txt
//                  [--block-out block.txt] [--grey-out greylist.txt]
//
// The reused list accepts both bare addresses (NATed) and CIDR prefixes
// (dynamic pools) in standard blocklist text format.
#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/manifest.h"
#include "blocklist/parse.h"
#include "netbase/flags.h"
#include "netbase/prefix_trie.h"
#include "netbase/stats.h"

namespace {

std::string read_file(const std::string& path, bool& ok) {
  std::ifstream is(path);
  if (!is) {
    ok = false;
    return {};
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  ok = true;
  return buffer.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace reuse;
  net::FlagParser flags;
  flags.define("blocklist", "the feed to audit (one IP/CIDR per line)");
  flags.define("reused", "the reused-address list (IPs and/or CIDRs)");
  flags.define("block-out", "file for entries safe to hard-block");
  flags.define("grey-out", "file for entries to greylist instead");
  flags.define("metrics-out",
               "write the run manifest (metrics snapshot + tool name) to "
               "this file");
  flags.define("metrics-format",
               "encoding for --metrics-out: json (run manifest) or "
               "prometheus (metrics text exposition)",
               "json");
  flags.define_bool("help", "show this help");

  if (!flags.parse(argc, argv) || flags.get_bool("help") ||
      !flags.has("blocklist") || !flags.has("reused")) {
    std::cerr << flags.usage(
        "greylist_audit",
        "divert reused-address listings to a greylist (IMC'20 §6)");
    if (!flags.error().empty()) std::cerr << "\nerror: " << flags.error() << '\n';
    return flags.get_bool("help") ? 0 : 2;
  }

  const std::optional<net::MetricsFormat> metrics_format =
      net::parse_metrics_format(flags.get("metrics-format"));
  if (!metrics_format) {
    std::cerr << "error: --metrics-format must be \"json\" or "
                 "\"prometheus\", got \""
              << flags.get("metrics-format") << "\"\n";
    return 2;
  }

  bool ok = true;
  const std::string feed_text = read_file(flags.get("blocklist"), ok);
  if (!ok) {
    std::cerr << "error: cannot open " << flags.get("blocklist") << '\n';
    return 1;
  }
  const std::string reused_text = read_file(flags.get("reused"), ok);
  if (!ok) {
    std::cerr << "error: cannot open " << flags.get("reused") << '\n';
    return 1;
  }

  const blocklist::ParsedList feed = blocklist::parse_list_text(feed_text);
  const blocklist::ParsedList reused = blocklist::parse_list_text(reused_text);

  net::PrefixSet reused_set;
  for (const net::Ipv4Address address : reused.addresses) {
    reused_set.insert(net::Ipv4Prefix(address, 32));
  }
  for (const net::Ipv4Prefix& prefix : reused.prefixes) {
    reused_set.insert(prefix);
  }

  std::vector<net::Ipv4Address> block;
  std::vector<net::Ipv4Address> grey;
  for (const net::Ipv4Address address : feed.addresses) {
    (reused_set.contains_address(address) ? grey : block).push_back(address);
  }

  std::cerr << "feed entries: " << feed.addresses.size() << " (skipped "
            << feed.skipped_lines << " lines)\n"
            << "reused knowledge: " << reused_set.size() << " entries\n"
            << "-> hard-block " << block.size() << ", greylist "
            << grey.size() << " ("
            << net::percent(feed.addresses.empty()
                                ? 0.0
                                : static_cast<double>(grey.size()) /
                                      static_cast<double>(feed.addresses.size()))
            << " of the feed)\n";

  auto write_out = [&](const std::string& flag, const char* title,
                       const std::vector<net::Ipv4Address>& addresses) {
    if (!flags.has(flag)) return true;
    std::ostringstream os;
    blocklist::write_list(os, title, addresses);
    if (const auto error =
            analysis::write_report_file(flags.get(flag), os.str())) {
      std::cerr << "error: " << *error << '\n';
      return false;
    }
    return true;
  };
  if (!write_out("block-out", "hard-block entries", block)) return 1;
  if (!write_out("grey-out", "greylist entries (reused addresses)", grey)) return 1;

  if (flags.has("metrics-out")) {
    analysis::RunManifestInfo manifest;
    manifest.tool = "greylist_audit";
    if (const auto error = analysis::write_run_manifest(
            flags.get("metrics-out"), manifest, *metrics_format)) {
      std::cerr << "error: " << *error << '\n';
      return 1;
    }
    std::cerr << "run manifest written to " << flags.get("metrics-out") << '\n';
  }
  return 0;
}
