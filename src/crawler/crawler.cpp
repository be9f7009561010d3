#include "crawler/crawler.h"

#include <algorithm>
#include <array>

namespace reuse::crawler {

Crawler::Crawler(dht::DhtNetwork::DhtTransport& transport,
                 sim::EventQueue& events, net::Endpoint bootstrap,
                 CrawlerConfig config)
    : transport_(transport),
      events_(events),
      bootstrap_(bootstrap),
      config_(std::move(config)),
      rng_(config_.seed),
      retry_rng_(config_.seed ^ 0x8e774aULL) {}

void Crawler::start(net::TimeWindow window) {
  window_ = window;
  events_.schedule_at(window.begin, [this] {
    running_ = true;
    // Seed discovery from the bootstrap node (always allowed, regardless of
    // restriction — it is the crawler's front door).
    get_nodes_queue_.push_back(
        PendingGetNodes{bootstrap_, config_.get_nodes_per_endpoint});
    seen_endpoints_.insert(bootstrap_);
    schedule_reping();
    events_.schedule_after(config_.bootstrap_retry_initial, [this] {
      bootstrap_watchdog(config_.bootstrap_retry_initial);
    });
    // Last: the tick reads the pending events to decide how far ahead its
    // successor may go, so the re-ping and the watchdog must be queued.
    dispatch_tick();
  });
  events_.schedule_at(window.end, [this] { running_ = false; });
}

void Crawler::bootstrap_watchdog(net::Duration delay) {
  if (!running_) return;
  // Any get_nodes response ever means discovery is (or was) alive; the
  // watchdog retires and the hourly re-seed takes over from here.
  if (stats_.get_nodes_responses > 0) return;
  if (bootstrap_attempts_ >= config_.bootstrap_max_retries) return;
  ++bootstrap_attempts_;
  ++stats_.bootstrap_retries;
  // The front door overrides its own cooldown: a dark bootstrap would
  // otherwise keep the retry parked for 20 minutes per attempt.
  next_contact_ok_.erase(bootstrap_.address);
  get_nodes_queue_.push_front(
      PendingGetNodes{bootstrap_, config_.get_nodes_per_endpoint});
  const std::int64_t base = delay.count() * 2;
  const net::Duration next(
      base + static_cast<std::int64_t>(retry_rng_.uniform(
                 static_cast<std::uint64_t>(base / 4 + 1))));
  events_.schedule_after(next, [this, next] { bootstrap_watchdog(next); });
}

bool Crawler::allowed(net::Ipv4Address address) const {
  if (address == bootstrap_.address) return true;
  if (config_.partition_count > 1 &&
      std::hash<net::Ipv4Address>{}(address) % config_.partition_count !=
          config_.partition_index) {
    return false;
  }
  if (!config_.restricted) return true;
  return config_.restrict_to.contains_address(address);
}

bool Crawler::cooled_down(net::Ipv4Address address) const {
  const auto it = next_contact_ok_.find(address);
  return it == next_contact_ok_.end() || events_.now() >= it->second;
}

void Crawler::touch(net::Ipv4Address address) {
  next_contact_ok_[address] = events_.now() + config_.ip_cooldown;
}

void Crawler::dispatch_tick() {
  if (!running_) return;
  std::size_t budget = config_.messages_per_second;

  // Verification first: pings are the crawler's purpose; discovery fills the
  // remaining budget.
  std::size_t requeued = 0;
  while (budget > 0 && requeued < verify_queue_.size()) {
    const net::Ipv4Address address = verify_queue_.front();
    verify_queue_.pop_front();
    if (!cooled_down(address)) {
      // Not contactable yet: rotate to the back and remember we cycled.
      verify_queue_.push_back(address);
      ++requeued;
      continue;
    }
    queued_for_verify_.erase(address);
    const std::size_t ports = evidence_[address].ports.size();
    if (ports > budget) {  // cannot burst this IP within the budget; retry
      verify_queue_.push_front(address);
      queued_for_verify_.insert(address);
      break;
    }
    begin_verification(address);
    budget -= ports;
  }

  // A cooling entry rotates to the back and still spends one unit of budget.
  // The repeat check stops the loop only on a one-entry queue or when the
  // next entry has the endpoint just rotated (the watchdog queued the
  // bootstrap again beside its own cooling entry); an all-cooling queue of
  // N >= 2 distinct neighbours cycles through the whole budget. Where that
  // spin leaves the queue decides which endpoint is contacted first once
  // one cools down, so it is calibrated behaviour: stopping after one pass
  // would move every crawl product.
  std::size_t cooling_run = 0;  // consecutive cooling rotations
  while (budget > 0 && !get_nodes_queue_.empty()) {
    if (cooling_run == get_nodes_queue_.size()) {
      // A full lap without a send or a repeat: the rest of the budget only
      // rotates, so apply it at once.
      rotate_cooling_discovery(budget, 1);
      break;
    }
    PendingGetNodes pending = get_nodes_queue_.front();
    get_nodes_queue_.pop_front();
    if (!cooled_down(pending.endpoint.address)) {
      get_nodes_queue_.push_back(pending);
      ++cooling_run;
      if (--budget == 0) break;
      if (get_nodes_queue_.front().endpoint == pending.endpoint) break;
      continue;
    }
    cooling_run = 0;
    send_get_nodes(pending.endpoint);
    touch(pending.endpoint.address);
    --budget;
    if (--pending.remaining_queries > 0) {
      get_nodes_queue_.push_back(pending);
    }
  }

  schedule_next_tick();
}

void Crawler::schedule_next_tick() {
  // Until another event runs or a queued address cools down, every tick
  // finds both queues cooling and only rotates discovery; apply those
  // rotations now and wake at the first tick that can differ. Nothing else
  // runs in between, and a tick scheduled now still fires after every event
  // already queued for its second, as the one-second chain's would.
  const net::SimTime next = events_.now() + net::Duration::seconds(1);
  net::SimTime wake = events_.next_time().value_or(next);
  // Lowers `wake` to when `address` may be contacted again; true once no
  // tick is left to skip.
  const auto lower_wake = [&](net::Ipv4Address address) {
    const auto it = next_contact_ok_.find(address);
    wake = it == next_contact_ok_.end() ? next : std::min(wake, it->second);
    return wake <= next;
  };
  if (wake <= next ||
      std::any_of(verify_queue_.begin(), verify_queue_.end(), lower_wake) ||
      std::any_of(get_nodes_queue_.begin(), get_nodes_queue_.end(),
                  [&](const PendingGetNodes& pending) {
                    return lower_wake(pending.endpoint.address);
                  })) {
    events_.schedule_at(next, [this] { dispatch_tick(); });
    return;
  }
  rotate_cooling_discovery(config_.messages_per_second, (wake - next).count());
  events_.schedule_at(wake, [this] { dispatch_tick(); });
}

void Crawler::rotate_cooling_discovery(std::size_t budget,
                                       std::int64_t ticks) {
  // The discovery loop over a queue with no contactable entry: each step
  // rotates one entry and spends one unit of budget, and the tick stops once
  // the budget is gone or entry i and entry (i + 1) mod n share an endpoint.
  const std::size_t n = get_nodes_queue_.size();
  if (n == 0) return;
  const auto repeats = [&](std::size_t i) {
    return get_nodes_queue_[i % n].endpoint ==
           get_nodes_queue_[(i + 1) % n].endpoint;
  };
  std::size_t shift = 0;
  std::size_t first = 0;
  while (first < n && !repeats(first)) ++first;
  if (first == n) {
    // No repeat anywhere: every tick rotates by its whole budget.
    shift = static_cast<std::size_t>(ticks) % n * (budget % n) % n;
  } else {
    for (std::int64_t t = 0; t < ticks; ++t) {
      std::size_t until = 0;  // steps from `shift` to the next repeat
      while (!repeats(shift + until)) ++until;
      shift = (shift + std::min(budget, until + 1)) % n;
    }
  }
  std::rotate(get_nodes_queue_.begin(),
              get_nodes_queue_.begin() + static_cast<std::ptrdiff_t>(shift),
              get_nodes_queue_.end());
}

void Crawler::send_get_nodes(const net::Endpoint& endpoint) {
  ++stats_.get_nodes_sent;
  // Random target per query: different corners of the peer's routing table.
  std::array<std::uint32_t, 5> words{};
  for (auto& w : words) w = static_cast<std::uint32_t>(rng_());
  transport_.send_request(
      net::Endpoint{}, endpoint, dht::GetNodesRequest{dht::NodeId(words)},
      [this](const net::Endpoint& from, const dht::DhtResponse& response) {
        on_get_nodes_response(from, response);
      });
}

void Crawler::on_get_nodes_response(const net::Endpoint& from,
                                    const dht::DhtResponse& response) {
  if (stats_.get_nodes_responses == 0 && stats_.bootstrap_retries > 0 &&
      !bootstrap_recovered_) {
    bootstrap_recovered_ = true;
    ++stats_.bootstrap_recoveries;
  }
  ++stats_.get_nodes_responses;
  node_ids_seen_.insert(response.responder_id);
  learn_endpoint(from);
  for (const dht::NodeContact& contact : response.neighbors) {
    if (!allowed(contact.endpoint.address)) {
      ++stats_.endpoints_skipped_restricted;
      continue;
    }
    if (seen_endpoints_.insert(contact.endpoint).second) {
      ++stats_.endpoints_discovered;
      get_nodes_queue_.push_back(
          PendingGetNodes{contact.endpoint, config_.get_nodes_per_endpoint});
      learn_endpoint(contact.endpoint);
    }
  }
}

void Crawler::learn_endpoint(const net::Endpoint& endpoint) {
  // The bootstrap node is infrastructure, not a measured BitTorrent user.
  if (endpoint.address == bootstrap_.address) return;
  if (!allowed(endpoint.address)) return;
  IpEvidence& evidence = evidence_[endpoint.address];
  if (evidence.ports.empty()) evidence.first_seen = events_.now();
  evidence.last_seen = events_.now();
  evidence.ports.insert(endpoint.port);
  // Two ports on one IP: either a NAT or a stale entry — verification will
  // tell them apart.
  if (evidence.ports.size() >= 2 &&
      !queued_for_verify_.contains(endpoint.address) &&
      !open_rounds_.contains(endpoint.address)) {
    verify_queue_.push_back(endpoint.address);
    queued_for_verify_.insert(endpoint.address);
  }
}

void Crawler::begin_verification(net::Ipv4Address address) {
  IpEvidence& evidence = evidence_[address];
  open_rounds_.emplace(address, VerificationRound{});
  ++stats_.verification_rounds;
  ++evidence.verification_rounds;
  for (const std::uint16_t port : evidence.ports) {
    ++stats_.pings_sent;
    transport_.send_request(
        net::Endpoint{}, net::Endpoint{address, port}, dht::BtPingRequest{},
        [this, address](const net::Endpoint& from,
                        const dht::DhtResponse& response) {
          ++stats_.ping_responses;
          node_ids_seen_.insert(response.responder_id);
          const auto it = open_rounds_.find(address);
          if (it == open_rounds_.end()) return;  // reply after round closed
          it->second.responding_ports.insert(from.port);
          it->second.responding_ids.insert(response.responder_id);
        });
  }
  touch(address);
  events_.schedule_after(config_.verification_window,
                         [this, address] { close_verification(address); });
}

void Crawler::close_verification(net::Ipv4Address address) {
  const auto it = open_rounds_.find(address);
  if (it == open_rounds_.end()) return;
  // Concurrent users are counted conservatively: a user answers on one port
  // with one node_id, so the lower bound is the smaller of the two distinct
  // counts (two replies sharing a node_id are one client double-mapped; two
  // replies sharing a port cannot happen within a round).
  const std::size_t concurrent = std::min(it->second.responding_ports.size(),
                                          it->second.responding_ids.size());
  const bool got_replies = !it->second.responding_ports.empty();
  IpEvidence& evidence = evidence_[address];
  evidence.max_concurrent_users =
      std::max(evidence.max_concurrent_users, concurrent);
  open_rounds_.erase(it);

  if (got_replies) {
    if (const auto retried = verify_retries_.find(address);
        retried != verify_retries_.end()) {
      ++stats_.verification_recoveries;
      verify_retries_.erase(retried);
    }
    return;
  }
  // Every known port went silent at once on an address that answered
  // before — an outage pattern, not proof the clients left. Re-queue the
  // round (bounded); the cooldown spaces the retry out naturally.
  if (!running_) return;
  std::uint32_t& retries = verify_retries_[address];
  if (retries >= config_.verification_retry_limit) return;
  ++retries;
  ++stats_.verification_retries;
  if (!queued_for_verify_.contains(address) &&
      !open_rounds_.contains(address)) {
    verify_queue_.push_back(address);
    queued_for_verify_.insert(address);
  }
}

void Crawler::schedule_reping() {
  if (!running_) return;
  events_.schedule_after(config_.reping_interval, [this] {
    if (!running_) return;
    for (const auto& [address, evidence] : evidence_) {
      if (evidence.ports.size() >= 2 && !queued_for_verify_.contains(address) &&
          !open_rounds_.contains(address)) {
        verify_queue_.push_back(address);
        queued_for_verify_.insert(address);
      }
    }
    // Discovery ran dry (every endpoint queried, or the bootstrap replies
    // were all lost): re-seed from the bootstrap, as a continuously running
    // crawler would.
    if (get_nodes_queue_.empty()) {
      get_nodes_queue_.push_back(
          PendingGetNodes{bootstrap_, config_.get_nodes_per_endpoint});
    }
    schedule_reping();
  });
}

std::vector<std::pair<net::Ipv4Address, std::size_t>> Crawler::nated() const {
  std::vector<std::pair<net::Ipv4Address, std::size_t>> out;
  for (const auto& [address, evidence] : evidence_) {
    if (evidence.is_nated()) {
      out.emplace_back(address, evidence.max_concurrent_users);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace reuse::crawler
