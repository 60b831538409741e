#include "src/piazza/breaker.h"

#include <algorithm>

namespace revere::piazza {

bool PeerBreaker::WindowTripped() const {
  if (ring_count_ < options_.min_samples) return false;
  return static_cast<double>(ring_failures_) >=
         options_.open_failure_ratio * static_cast<double>(ring_count_);
}

bool PeerBreaker::Allow() {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kHalfOpen:
      // One probe at a time: concurrent contacts while the probe is in
      // flight are suppressed, so a dead peer sees exactly one contact
      // per probe cadence even under a fan-out burst.
      if (probe_in_flight_) {
        ++total_skips_;
        return false;
      }
      probe_in_flight_ = true;
      ++total_probes_;
      return true;
    case State::kOpen:
      ++total_skips_;
      if (++skips_since_probe_ >= options_.probe_after_skips) {
        skips_since_probe_ = 0;
        state_ = State::kHalfOpen;
        // This contact becomes the probe: admit it instead of skipping.
        // (The skip above is kept in the count — the *next* caller
        // would have been suppressed either way; keeping the counter
        // monotone with admissions simplifies the accounting.)
        --total_skips_;
        probe_in_flight_ = true;
        ++total_probes_;
        return true;
      }
      return false;
  }
  return true;
}

void PeerBreaker::RecordSuccess() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ != State::kClosed) {
    // Probe succeeded (or an in-flight contact admitted before the
    // breaker opened came back fine): the peer is back. Forget the
    // failure history — a recovered peer starts with a clean window.
    state_ = State::kClosed;
    probe_in_flight_ = false;
    std::fill(ring_.begin(), ring_.end(), false);
    ring_next_ = 0;
    ring_count_ = 0;
    ring_failures_ = 0;
    skips_since_probe_ = 0;
    return;
  }
  if (ring_.size() < options_.window) ring_.resize(options_.window, false);
  if (ring_count_ == options_.window && ring_[ring_next_]) --ring_failures_;
  ring_[ring_next_] = false;
  ring_next_ = (ring_next_ + 1) % options_.window;
  ring_count_ = std::min(ring_count_ + 1, options_.window);
}

void PeerBreaker::RecordFailure() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == State::kHalfOpen) {
    // Probe failed: back to open, restart the cadence.
    state_ = State::kOpen;
    probe_in_flight_ = false;
    skips_since_probe_ = 0;
    return;
  }
  if (ring_.size() < options_.window) ring_.resize(options_.window, false);
  if (ring_count_ == options_.window && ring_[ring_next_]) --ring_failures_;
  ring_[ring_next_] = true;
  ++ring_failures_;
  ring_next_ = (ring_next_ + 1) % options_.window;
  ring_count_ = std::min(ring_count_ + 1, options_.window);
  if (state_ == State::kClosed && WindowTripped()) {
    state_ = State::kOpen;
    skips_since_probe_ = 0;
    ++total_opens_;
  }
}

PeerBreaker::State PeerBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

size_t PeerBreaker::skips() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_skips_;
}

size_t PeerBreaker::opens() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_opens_;
}

size_t PeerBreaker::probes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_probes_;
}

PeerBreaker* BreakerSet::Get(const std::string& peer) {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = breakers_.find(peer);
    if (it != breakers_.end()) return it->second.get();
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto [it, inserted] =
      breakers_.try_emplace(peer, std::make_unique<PeerBreaker>(options_));
  return it->second.get();
}

std::map<std::string, PeerBreaker::State> BreakerSet::States() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::map<std::string, PeerBreaker::State> out;
  for (const auto& [peer, breaker] : breakers_) {
    out[peer] = breaker->state();
  }
  return out;
}

size_t BreakerSet::total_skips() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  size_t total = 0;
  for (const auto& [peer, breaker] : breakers_) total += breaker->skips();
  return total;
}

std::vector<std::string> BreakerSet::OpenPeers() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [peer, breaker] : breakers_) {
    if (breaker->state() != PeerBreaker::State::kClosed) out.push_back(peer);
  }
  return out;
}

RetryBudget::RetryBudget(double capacity, double refill_per_success)
    : capacity_(std::max(0.0, capacity)),
      refill_per_success_(std::max(0.0, refill_per_success)),
      tokens_(capacity_) {}

bool RetryBudget::TryAcquire() {
  std::lock_guard<std::mutex> lock(mu_);
  if (tokens_ < 1.0) {
    ++denied_;
    return false;
  }
  tokens_ -= 1.0;
  return true;
}

void RetryBudget::RecordSuccess() {
  std::lock_guard<std::mutex> lock(mu_);
  tokens_ = std::min(capacity_, tokens_ + refill_per_success_);
}

double RetryBudget::tokens() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tokens_;
}

size_t RetryBudget::denied() const {
  std::lock_guard<std::mutex> lock(mu_);
  return denied_;
}

}  // namespace revere::piazza
