#include "src/piazza/fault.h"

#include <algorithm>

#include "src/common/hash.h"

namespace revere::piazza {

const char* FaultModeToString(FaultMode mode) {
  switch (mode) {
    case FaultMode::kHealthy:
      return "healthy";
    case FaultMode::kDown:
      return "down";
    case FaultMode::kFlaky:
      return "flaky";
    case FaultMode::kSlow:
      return "slow";
  }
  return "unknown";
}

void FaultInjector::SetDown(const std::string& peer) {
  std::lock_guard<std::mutex> lock(mu_);
  faults_[peer] = PeerFault{FaultMode::kDown, 0.0, 0.0};
}

void FaultInjector::SetFlaky(const std::string& peer,
                             double failure_probability) {
  std::lock_guard<std::mutex> lock(mu_);
  faults_[peer] =
      PeerFault{FaultMode::kFlaky, std::clamp(failure_probability, 0.0, 1.0),
                0.0};
}

void FaultInjector::SetSlow(const std::string& peer, double extra_latency_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  faults_[peer] =
      PeerFault{FaultMode::kSlow, 0.0, std::max(0.0, extra_latency_ms)};
}

void FaultInjector::Restore(const std::string& peer) {
  std::lock_guard<std::mutex> lock(mu_);
  faults_.erase(peer);
}

void FaultInjector::RestoreAll() {
  std::lock_guard<std::mutex> lock(mu_);
  faults_.clear();
}

PeerFault FaultInjector::GetFault(const std::string& peer) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = faults_.find(peer);
  return it == faults_.end() ? PeerFault{} : it->second;
}

std::vector<std::string> FaultInjector::FaultyPeers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(faults_.size());
  for (const auto& [peer, fault] : faults_) {
    if (fault.mode != FaultMode::kHealthy) out.push_back(peer);
  }
  return out;
}

size_t FaultInjector::contacts_attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return contacts_attempted_;
}

size_t FaultInjector::contacts_to(const std::string& peer) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = per_peer_contacts_.find(peer);
  return it == per_peer_contacts_.end() ? 0 : it->second;
}

ContactOutcome FaultInjector::Contact(const std::string& peer,
                                      double base_round_trip_ms,
                                      double deadline_ms) {
  // One lock for the whole attempt: the accounting, the fault lookup,
  // and the RNG draw must be atomic so concurrent server workers see a
  // consistent injector (each contact is one indivisible draw).
  std::lock_guard<std::mutex> lock(mu_);
  ++contacts_attempted_;
  ++per_peer_contacts_[peer];
  // A failed contact is only *detected* once the caller stops waiting:
  // after the per-contact deadline when one is set, else after the time
  // a healthy round trip would have taken.
  double failure_cost = deadline_ms > 0.0 ? deadline_ms : base_round_trip_ms;
  auto fault_it = faults_.find(peer);
  PeerFault fault = fault_it == faults_.end() ? PeerFault{} : fault_it->second;
  switch (fault.mode) {
    case FaultMode::kDown:
      return {Status::Unavailable("peer '" + peer + "' is down"),
              failure_cost};
    case FaultMode::kFlaky:
      if (rng_.Bernoulli(fault.failure_probability)) {
        return {Status::Unavailable("peer '" + peer + "' dropped the contact"),
                failure_cost};
      }
      break;
    case FaultMode::kSlow: {
      double total = base_round_trip_ms + fault.extra_latency_ms;
      if (deadline_ms > 0.0 && total > deadline_ms) {
        return {Status::DeadlineExceeded(
                    "peer '" + peer + "' answered too slowly (" +
                    std::to_string(total) + "ms > " +
                    std::to_string(deadline_ms) + "ms deadline)"),
                deadline_ms};
      }
      return {Status::Ok(), total};
    }
    case FaultMode::kHealthy:
      break;
  }
  if (deadline_ms > 0.0 && base_round_trip_ms > deadline_ms) {
    return {Status::DeadlineExceeded("peer '" + peer +
                                     "' cannot answer within the deadline"),
            deadline_ms};
  }
  return {Status::Ok(), base_round_trip_ms};
}

void FaultInjector::InjectFraction(const std::vector<std::string>& peers,
                                   double fraction, const PeerFault& fault) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t count = static_cast<size_t>(
      fraction * static_cast<double>(peers.size()) + 0.5);
  count = std::min(count, peers.size());
  std::vector<std::string> pool = peers;
  rng_.Shuffle(&pool);
  for (size_t i = 0; i < count; ++i) faults_[pool[i]] = fault;
}

double RetryPolicy::BackoffMs(const std::string& peer, int attempt) const {
  double backoff =
      base_backoff_ms * static_cast<double>(uint64_t{1} << (attempt - 1));
  if (jitter <= 0.0) return backoff;
  // Stateless seeded jitter: hash (seed, peer, attempt) to a uniform
  // u in [0, 1) and shave off up to `jitter` of the wait. Different
  // peers and attempts decorrelate; equal inputs replay identically.
  uint64_t h = Fnv1a64(peer, jitter_seed ^ 0x9e3779b97f4a7c15ULL);
  h ^= static_cast<uint64_t>(attempt) * 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return backoff * (1.0 - std::clamp(jitter, 0.0, 1.0) * u);
}

}  // namespace revere::piazza
