// reuse_lookupd — compile a reuse-aware serving snapshot and query it at
// traffic rates (the serving side of the paper's §6 mitigation).
//
// Default flow: run the scenario (cache-aware, --jobs-aware), compile its
// blocklist/NAT/dynamic products into the binary snapshot artifact, save
// it under --out-dir, reload it from disk (proving the round-trip), then
// drive it with the seeded load generator (serve/client.h) and write a
// bench JSON with throughput and latency percentiles.
//
//   reuse_lookupd [--seed N] [--ases N] [--crawl-days N] [--probes N]
//                 [--jobs N] [--cache [--cache-file PATH]] [--out-dir DIR]
//                 [--snapshot-out PATH] [--snapshot-in PATH]
//                 [--queries N] [--batch N] [--clients N] [--qps N]
//                 [--workload-seed N] [--bench-out PATH]
//                 [--query IP] [--metrics-out FILE]
//                 [--metrics-format {json,prometheus}]
//                 [--serve] [--threads N] [--deadline-ms N]
//                 [--queue-depth N] [--chaos-clients N]
//
// --snapshot-in skips the simulation and serves an existing artifact;
// --query answers one address and exits instead of running the load.
//
// The load runs --clients client threads in process against the lookup
// engine (BENCH_lookup.json), or with --serve through the concurrent front
// end: LookupServer with --threads workers, bounded queues and explicit
// SHED backpressure, plus an optional chaos-client plan injecting protocol
// faults alongside (BENCH_lookupd.json). Both modes send the same batches
// and write the same JSON schema, so the socket's cost is one subtraction.
// Latency is timed from each request's scheduled send (--qps paces it).
// Every run also reloads as its traffic starts — a deliberately truncated
// copy of the artifact (must fail, last-good keeps serving), the artifact
// itself, then an identity snapshot delta — and exits 1 unless the ledger
// reconciles exactly: served + shed + rejected == submitted.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "analysis/cache.h"
#include "analysis/manifest.h"
#include "analysis/scenario.h"
#include "netbase/flags.h"
#include "netbase/json.h"
#include "serve/client.h"
#include "serve/lookup.h"
#include "serve/server.h"
#include "serve/snapshot.h"

int main(int argc, char** argv) {
  using namespace reuse;
  net::FlagParser flags;
  flags.define("seed", "master seed for the producing scenario", "7");
  flags.define("ases", "autonomous systems in the synthetic Internet", "300");
  flags.define("crawl-days", "simulated crawl length", "3");
  flags.define("probes", "Atlas-style probes", "2000");
  flags.define("jobs",
               "worker threads for the scenario and the snapshot compile "
               "(0 = all hardware threads); artifact bytes are identical "
               "for every value",
               "1");
  flags.define_bool("cache",
                    "reuse the on-disk scenario cache (fingerprint-keyed "
                    "file, honours $REUSE_CACHE_DIR)");
  flags.define("cache-file", "explicit cache file path (implies --cache)");
  flags.define("out-dir", "directory for the compiled snapshot artifact", ".");
  flags.define("snapshot-out",
               "explicit artifact path (default <out-dir>/reuse_snapshot.bin)");
  flags.define("snapshot-in",
               "serve an existing artifact instead of simulating");
  flags.define("queries",
               "total queries to send, in whole batches across all clients",
               "1000000");
  flags.define("batch", "addresses per query batch", "64");
  flags.define("threads",
               "server worker threads for --serve (0 = all hardware threads)",
               "1");
  flags.define("qps",
               "offered load in queries/second across all clients; each "
               "client sends its batches on a fixed schedule and latency is "
               "timed from the scheduled send (0 = unpaced)",
               "0");
  flags.define("workload-seed", "seed for the synthetic query mix", "1");
  flags.define("bench-out",
               "benchmark JSON output path (default BENCH_lookup.json, "
               "BENCH_lookupd.json with --serve)");
  flags.define("query", "answer one dotted-quad address and exit");
  flags.define_bool("serve",
                    "drive the snapshot through the concurrent front end "
                    "(sharded workers, bounded queues, SHED backpressure) "
                    "instead of the in-process engine");
  flags.define("clients", "concurrent load-generator client threads", "8");
  flags.define("deadline-ms",
               "queued requests older than this are shed (--serve)", "1000");
  flags.define("queue-depth",
               "pending frames a session may queue before SHED (--serve)",
               "64");
  flags.define("chaos-clients",
               "seeded fault-injecting clients to run alongside the load "
               "(0 = none); their ledger must reconcile exactly", "0");
  flags.define("metrics-out",
               "write the run manifest (snapshot fingerprint + metrics "
               "snapshot) to this file");
  flags.define("metrics-format",
               "encoding for --metrics-out: json (run manifest) or "
               "prometheus (metrics text exposition)",
               "json");
  flags.define_bool("help", "show this help");

  if (!flags.parse(argc, argv) || flags.get_bool("help")) {
    std::cerr << flags.usage("reuse_lookupd",
                             "compile a reuse-aware blocklist snapshot and "
                             "serve it to a synthetic query workload");
    if (!flags.error().empty()) std::cerr << "\nerror: " << flags.error() << '\n';
    return flags.get_bool("help") ? 0 : 2;
  }

  const std::optional<int> jobs = net::parse_jobs(flags.get("jobs"));
  if (!jobs) {
    std::cerr << "error: --jobs must be a non-negative integer (0 = all "
                 "hardware threads), got \"" << flags.get("jobs") << "\"\n";
    return 2;
  }
  const std::optional<int> threads = net::parse_jobs(flags.get("threads"));
  if (!threads) {
    std::cerr << "error: --threads must be a non-negative integer (0 = all "
                 "hardware threads), got \"" << flags.get("threads") << "\"\n";
    return 2;
  }
  const std::optional<net::MetricsFormat> metrics_format =
      net::parse_metrics_format(flags.get("metrics-format"));
  if (!metrics_format) {
    std::cerr << "error: --metrics-format must be \"json\" or "
                 "\"prometheus\", got \""
              << flags.get("metrics-format") << "\"\n";
    return 2;
  }
  // Serving knobs are validated parse_jobs-style: garbage or out-of-range
  // text exits 2 with a diagnostic, never becomes a salvaged number.
  const auto bounded_flag = [&](const std::string& name, std::int64_t low,
                                std::int64_t high) -> std::optional<std::int64_t> {
    const auto value = net::parse_bounded_int(flags.get(name), low, high);
    if (!value) {
      std::cerr << "error: --" << name << " must be an integer in [" << low
                << ", " << high << "], got \"" << flags.get(name) << "\"\n";
    }
    return value;
  };
  const auto clients = bounded_flag("clients", 1, 4096);
  if (!clients) return 2;
  const auto deadline_ms = bounded_flag("deadline-ms", 1, 3'600'000);
  if (!deadline_ms) return 2;
  const auto queue_depth = bounded_flag("queue-depth", 1, 1 << 20);
  if (!queue_depth) return 2;
  const auto chaos_clients = bounded_flag("chaos-clients", 0, 4096);
  if (!chaos_clients) return 2;
  const bool serve_mode = flags.get_bool("serve");
  if (serve_mode && flags.has("query")) {
    std::cerr << "error: --serve and --query are mutually exclusive\n";
    return 2;
  }
  if (!serve_mode && *chaos_clients > 0) {
    std::cerr << "error: --chaos-clients needs --serve (chaos clients speak "
                 "the wire protocol)\n";
    return 2;
  }
  // Validate the query address before any simulation or artifact load:
  // garbage exits 2 immediately, with the offending text echoed back.
  std::optional<net::Ipv4Address> query_address;
  if (flags.has("query")) {
    query_address = net::Ipv4Address::parse(flags.get("query"));
    if (!query_address) {
      std::cerr << "error: --query expects a dotted-quad IPv4 address, got \""
                << flags.get("query") << "\"\n";
      return 2;
    }
  }

  analysis::RunManifestInfo manifest;
  manifest.tool = "reuse_lookupd";
  analysis::ScenarioConfig config;
  std::string snapshot_path;
  std::shared_ptr<const serve::CompiledSnapshot> snapshot;

  if (flags.has("snapshot-in")) {
    snapshot_path = flags.get("snapshot-in");
    std::string load_error;
    auto loaded = serve::CompiledSnapshot::load(snapshot_path, &load_error);
    if (!loaded) {
      std::cerr << "error: " << load_error << '\n';
      return 1;
    }
    snapshot =
        std::make_shared<const serve::CompiledSnapshot>(*std::move(loaded));
  } else {
    config.seed = static_cast<std::uint64_t>(flags.get_int("seed").value_or(7));
    config.world = inet::test_world_config(config.seed);
    config.world.as_count =
        static_cast<std::size_t>(flags.get_int("ases").value_or(300));
    config.crawl_days =
        static_cast<int>(flags.get_int("crawl-days").value_or(3));
    config.fleet.probe_count =
        static_cast<std::size_t>(flags.get_int("probes").value_or(2000));
    config.run_census = false;  // the serving artifact never needs the census
    config.jobs = *jobs;
    config.finalize();
    manifest.config = &config;

    const bool use_cache = flags.get_bool("cache") || flags.has("cache-file");
    if (use_cache) {
      const std::string cache_path = flags.has("cache-file")
                                         ? flags.get("cache-file")
                                         : analysis::default_cache_path(config);
      if (const auto error = analysis::preflight_cache_path(cache_path)) {
        std::cerr << "error: " << *error << '\n';
        return 1;
      }
    }

    std::cerr << "simulating (seed " << config.seed << ", "
              << config.world.as_count << " ASes)...\n";
    const analysis::Scenario s =
        use_cache
            ? analysis::run_scenario_cached(config, flags.get("cache-file"))
            : analysis::run_scenario(config);
    if (use_cache) {
      manifest.cache_hit = s.cache_hit;
      std::cerr << (s.cache_hit ? "loaded crawl+ecosystem from cache\n"
                                : "simulated fresh and wrote cache\n");
    }

    const std::filesystem::path out_dir(flags.get("out-dir"));
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    snapshot_path = flags.has("snapshot-out")
                        ? flags.get("snapshot-out")
                        : (out_dir / "reuse_snapshot.bin").string();

    const std::unique_ptr<net::ThreadPool> pool =
        analysis::make_scenario_pool(config.jobs);
    const serve::CompiledSnapshot built =
        serve::SnapshotBuilder()
            .with_store(s.ecosystem.store)
            .with_nated(s.crawl.nated_set)
            .with_dynamic(s.pipeline.dynamic_prefixes)
            .with_catalogue(s.catalogue)
            .with_source_fingerprint(analysis::config_fingerprint(config))
            .build(pool.get());
    if (!built.save(snapshot_path)) {
      std::cerr << "error: cannot write snapshot artifact " << snapshot_path
                << '\n';
      return 1;
    }
    std::cerr << "compiled snapshot: " << built.entry_count() << " entries, "
              << built.bucket_count() << " /24 buckets, "
              << built.dynamic24_count() << " dynamic /24s, fingerprint "
              << built.fingerprint_hex() << " -> " << snapshot_path << '\n';

    // Serve what an operator would load, not what we happen to hold in
    // memory: reload the artifact so the round-trip is proven on every run.
    auto reloaded = serve::CompiledSnapshot::load(snapshot_path);
    if (!reloaded || reloaded->fingerprint() != built.fingerprint()) {
      std::cerr << "error: snapshot artifact failed reload verification\n";
      return 1;
    }
    snapshot =
        std::make_shared<const serve::CompiledSnapshot>(*std::move(reloaded));
  }
  manifest.snapshot_fingerprint = snapshot->fingerprint_hex();

  serve::LookupEngine engine;
  engine.publish(snapshot);

  if (flags.has("query")) {
    const net::Ipv4Address& address = *query_address;
    const serve::Verdict verdict = engine.verdict(address);
    std::cout << address.to_string() << ": listed="
              << (verdict.listed() ? "yes" : "no")
              << " nated=" << (verdict.nated() ? "yes" : "no")
              << " dynamic_slash24=" << (verdict.dynamic() ? "yes" : "no")
              << " advice="
              << (verdict.greylist()
                      ? "greylist"
                      : (verdict.listed() ? "block" : "allow"))
              << '\n';
  } else {
    serve::LoadConfig load_config;
    load_config.seed = static_cast<std::uint64_t>(
        flags.get_int("workload-seed").value_or(1));
    load_config.clients = static_cast<int>(*clients);
    load_config.queries =
        static_cast<std::uint64_t>(flags.get_int("queries").value_or(1000000));
    load_config.batch_size =
        static_cast<std::size_t>(flags.get_int("batch").value_or(64));
    load_config.target_qps = flags.get_double("qps").value_or(0.0);

    serve::ServerConfig server_config;
    server_config.workers =
        *threads == 0 ? static_cast<int>(net::ThreadPool::hardware_jobs())
                      : *threads;
    server_config.max_queue = static_cast<std::size_t>(*queue_depth);
    server_config.deadline_ms = static_cast<int>(*deadline_ms);
    server_config.stall_timeout_ms = 250;  // bounds the chaos stall clients
    std::optional<serve::LookupServer> server;
    if (serve_mode) server.emplace(engine, server_config);

    // Reload beside the traffic, starting with it: a deliberately corrupted
    // copy first (the failure must leave the last-good snapshot serving),
    // then the real artifact, then a snapshot *delta* applied onto the live
    // snapshot. The delta is an identity diff — same verdicts, so the
    // deterministic tallies are undisturbed — but the apply path
    // (fingerprint gate, merge, re-seal, epoch publish) runs for real.
    const std::string corrupt_path = snapshot_path + ".corrupt";
    const std::string delta_path = snapshot_path + ".delta";
    {
      std::ifstream in(snapshot_path, std::ios::binary);
      std::ostringstream bytes;
      bytes << in.rdbuf();
      const std::string artifact = bytes.str();
      std::ofstream out(corrupt_path, std::ios::binary | std::ios::trunc);
      // A mid-write artifact: the header promises more payload than exists.
      out.write(artifact.data(),
                static_cast<std::streamsize>(artifact.size() / 2));
    }
    const bool delta_saved =
        serve::SnapshotBuilder::diff(*snapshot, *snapshot).save(delta_path);
    std::uint64_t reload_attempts_failed = 0;
    bool delta_applied = false;
    std::thread reloader([&] {
      const auto reload = [&](const std::string& path, std::string* why) {
        return server ? server->reload(path, why) : engine.reload(path, why);
      };
      std::string why;
      if (!reload(corrupt_path, &why)) {
        ++reload_attempts_failed;
        std::cerr << "reload of corrupted copy rejected (last-good kept): "
                  << why << '\n';
      }
      if (!reload(snapshot_path, &why)) {
        std::cerr << "error: reload of good artifact failed: " << why << '\n';
      }
      if (delta_saved) {
        delta_applied = reload(delta_path, &why);
        if (!delta_applied) {
          std::cerr << "error: delta reload failed: " << why << '\n';
        }
      }
    });

    std::cerr << (server ? "serving: " : "driving the engine in process: ")
              << load_config.clients << " clients, " << load_config.queries
              << " queries in batches of " << load_config.batch_size;
    if (server) {
      std::cerr << ", " << server_config.workers << " workers, queue depth "
                << server_config.max_queue << ", deadline "
                << server_config.deadline_ms << " ms, " << *chaos_clients
                << " chaos clients";
    }
    std::cerr << "...\n";
    serve::ChaosLedger chaos;
    std::thread chaos_thread;
    if (*chaos_clients > 0) {
      chaos_thread = std::thread([&] {
        serve::ChaosConfig chaos_config;
        chaos_config.seed = load_config.seed;
        chaos_config.clients = static_cast<int>(*chaos_clients);
        chaos = serve::run_chaos_clients(*server, *snapshot, chaos_config);
      });
    }
    const serve::LoadReport load =
        server ? serve::run_load(*server, *snapshot, load_config)
               : serve::run_load(engine, *snapshot, load_config);
    if (chaos_thread.joinable()) chaos_thread.join();
    reloader.join();
    std::error_code cleanup_ec;
    std::filesystem::remove(corrupt_path, cleanup_ec);
    std::filesystem::remove(delta_path, cleanup_ec);

    // In process, the load generator's own tallies are the whole ledger.
    serve::ServerStats stats;
    if (server) {
      server->drain();
      stats = server->stats();
    } else {
      stats.submitted_valid = load.submitted;
      stats.served = load.ok;
      stats.shed_overload = load.shed;
      stats.served_listed = load.listed_words;
      stats.served_reused = load.reused_words;
    }
    // The no-silent-drops law, cross-checked server- and client-side:
    // every frame the clients put on the wire is served, shed, or
    // rejected, and the chaos injection ledger matches the rejection
    // ledger category by category.
    bool reconciled = stats.reconciles();
    reconciled &= stats.served + stats.shed_total() ==
                  load.submitted + chaos.valid_sent;
    reconciled &= stats.rejected_torn == chaos.torn_sent;
    reconciled &= stats.rejected_garbage == chaos.garbage_sent;
    reconciled &= stats.rejected_oversized == chaos.oversized_sent;
    reconciled &= stats.clients_evicted == chaos.stalls;
    reconciled &= engine.reloads() >= 1;
    reconciled &= engine.reload_failures() == reload_attempts_failed &&
                  reload_attempts_failed == 1;
    reconciled &= delta_applied;

    net::JsonWriter json;
    json.begin_object();
    analysis::write_run_header(json, "reuse_lookupd", manifest.config);
    json.field("transport", server ? "socket" : "engine")
        .field("workload_seed", load_config.seed)
        .field("clients", load_config.clients)
        .field("batch", load_config.batch_size)
        .field("queries", load.submitted * load_config.batch_size)
        .field("target_qps", load_config.target_qps)
        .field("max_in_flight", load_config.max_in_flight);
    if (server) {
      json.key("server").begin_object()
          .field("workers", server_config.workers)
          .field("queue_depth", server_config.max_queue)
          .field("deadline_ms", server_config.deadline_ms)
          .field("chaos_clients", *chaos_clients)
          .end();
    } else {
      json.field("server", nullptr);
    }
    const std::string text =
        json.field("submitted", stats.submitted_total())
            .field("served", stats.served)
            .field("shed", stats.shed_total())
            .field("rejected", stats.rejected_total())
            .field("evicted", stats.clients_evicted)
            .field("served_listed", stats.served_listed)
            .field("served_reused", stats.served_reused)
            .field("reloads", engine.reloads())
            .field("reload_failures", engine.reload_failures())
            .field("delta_applied", delta_applied)
            .field("wall_seconds", load.wall_seconds)
            .field("throughput_qps", load.throughput_qps)
            .field("p50_nanos", load.p50_nanos)
            .field("p99_nanos", load.p99_nanos)
            .field("p999_nanos", load.p999_nanos)
            .field("max_nanos", load.max_nanos)
            .field("send_late_p50_nanos", load.send_late_p50_nanos)
            .field("send_late_p99_nanos", load.send_late_p99_nanos)
            .key("snapshot").begin_object()
            .field("entries", snapshot->entry_count())
            .field("buckets", snapshot->bucket_count())
            .field("dynamic24", snapshot->dynamic24_count())
            .field("top_lists", snapshot->top_lists().size())
            .field("fingerprint", snapshot->fingerprint_hex())
            .field("source_fingerprint",
                   net::hex16(snapshot->source_fingerprint()))
            .end()
            .field("reconciled", reconciled)
            .end()
            .str();

    const std::string bench_path =
        flags.has("bench-out")
            ? flags.get("bench-out")
            : (server ? "BENCH_lookupd.json" : "BENCH_lookup.json");
    if (const auto error = analysis::write_report_file(bench_path, text)) {
      std::cerr << "error: " << *error << '\n';
      return 1;
    }
    std::cout << text;
    if (!reconciled) {
      std::cerr << "error: serving ledger failed to reconcile (see "
                << bench_path << ")\n";
      return 1;
    }
    std::cerr << "wrote " << bench_path << " ("
              << static_cast<std::uint64_t>(load.throughput_qps)
              << " verdicts/s, p50 " << load.p50_nanos << " ns, p99 "
              << load.p99_nanos << " ns, " << stats.shed_total() << " shed, "
              << stats.rejected_total() << " rejected)\n";
  }

  if (flags.has("metrics-out")) {
    if (const auto error = analysis::write_run_manifest(
            flags.get("metrics-out"), manifest, *metrics_format)) {
      std::cerr << "error: " << *error << '\n';
      return 1;
    }
    std::cerr << "run manifest written to " << flags.get("metrics-out")
              << '\n';
  }
  return 0;
}
