#ifndef REVERE_PIAZZA_BREAKER_H_
#define REVERE_PIAZZA_BREAKER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

namespace revere::piazza {

/// Per-peer circuit breakers for the serving front end (ISSUE 6).
///
/// The failure mode this prevents: a dead peer in the fault-tolerant
/// answer path (PR 1) is re-contacted — with full retries and backoff —
/// by *every* query whose reformulation touches it, so one dead peer
/// taxes the whole stream forever. A breaker watches the rolling
/// success/failure window that the existing retry path already
/// produces, opens after enough failures, and then *skips* contacts to
/// that peer outright (the caller drops the rewriting with the same
/// completeness accounting as an unreachable peer). While open, every
/// `probe_after_skips`-th contact is let through as a half-open probe;
/// one probe success closes the breaker again.
///
/// The state machine (DESIGN.md §3.6):
///
///          failures/window >= open_failure_ratio
///   CLOSED ────────────────────────────────────────► OPEN
///     ▲                                               │ skip contacts;
///     │ probe succeeds                                │ every Nth skip
///     │                                               ▼ admits a probe
///     └────────────────────────────────────────── HALF-OPEN
///                     probe fails: back to OPEN, skip counter reset
///
/// Probing is *count-based*, not time-based: an open breaker admits a
/// probe every `probe_after_skips` suppressed contacts. Count-based
/// cadence keeps the whole subsystem deterministic under the simulated
/// clock (there is no real wall clock anywhere in the fault model) and
/// self-scales: the hotter the traffic into a dead peer, the sooner it
/// is re-probed.
struct BreakerOptions {
  /// Rolling outcome window size per peer.
  size_t window = 16;
  /// Never open before this many outcomes are in the window (a single
  /// flake on a cold peer must not blackhole it).
  size_t min_samples = 4;
  /// Open when failures/window_size >= this ratio.
  double open_failure_ratio = 0.5;
  /// While open, admit one half-open probe after this many skips.
  size_t probe_after_skips = 8;
};

/// One peer's breaker. Internally synchronized: server workers share it.
class PeerBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  explicit PeerBreaker(const BreakerOptions& options) : options_(options) {}

  /// True when a contact may proceed (closed, or the half-open probe).
  /// False counts one suppressed contact toward the probe cadence.
  /// Every Allow()==true MUST be followed by exactly one
  /// RecordSuccess/RecordFailure per contact attempt.
  bool Allow();

  /// Feeds one contact outcome from the retry path.
  void RecordSuccess();
  void RecordFailure();

  State state() const;
  /// Contacts suppressed while open (monotone).
  size_t skips() const;
  /// Closed -> open transitions (monotone).
  size_t opens() const;
  /// Half-open probes admitted (monotone).
  size_t probes() const;

 private:
  /// Returns true when the window says "open" (call with mu_ held).
  bool WindowTripped() const;

  const BreakerOptions options_;
  mutable std::mutex mu_;
  State state_ = State::kClosed;
  /// Rolling window ring: outcome bits for the last `window` contacts.
  std::vector<bool> ring_;
  size_t ring_next_ = 0;
  size_t ring_count_ = 0;
  size_t ring_failures_ = 0;
  size_t skips_since_probe_ = 0;
  bool probe_in_flight_ = false;
  size_t total_skips_ = 0;
  size_t total_opens_ = 0;
  size_t total_probes_ = 0;
};

/// The per-network collection of breakers, created on first contact per
/// peer. Handed to Answer* through NetworkCostModel::breakers; nullptr
/// (the default everywhere) means no breaking — bit-identical legacy
/// behavior.
class BreakerSet {
 public:
  explicit BreakerSet(const BreakerOptions& options = {})
      : options_(options) {}
  BreakerSet(const BreakerSet&) = delete;
  BreakerSet& operator=(const BreakerSet&) = delete;

  /// The breaker for `peer`, created closed on first use. The pointer
  /// is stable for the set's lifetime.
  PeerBreaker* Get(const std::string& peer);

  /// Peer -> state snapshot, for SLO reports and tests.
  std::map<std::string, PeerBreaker::State> States() const;
  /// Sum of per-peer suppressed contacts.
  size_t total_skips() const;
  /// Peers currently not closed (open or half-open), sorted.
  std::vector<std::string> OpenPeers() const;

  const BreakerOptions& options() const { return options_; }

 private:
  const BreakerOptions options_;
  mutable std::shared_mutex mu_;
  std::map<std::string, std::unique_ptr<PeerBreaker>> breakers_;
};

/// A process-wide valve on retry amplification (ISSUE 6): under
/// overload, first attempts keep flowing but *retries* — which multiply
/// offered load exactly when the network is least able to absorb it —
/// draw from a shared token budget. Each successful contact refills a
/// fraction of a token, so a healthy network retries freely while a
/// melting one degrades to single attempts. Same shape as gRPC's retry
/// throttling.
class RetryBudget {
 public:
  /// `capacity` tokens to start (and as the refill ceiling); each
  /// successful contact adds `refill_per_success` tokens.
  explicit RetryBudget(double capacity = 64.0,
                       double refill_per_success = 0.1);

  /// Takes one retry token; false (nothing consumed) when the budget
  /// is exhausted — the caller must skip the retry.
  bool TryAcquire();
  /// Credits one successful contact.
  void RecordSuccess();

  double tokens() const;
  /// Retries denied so far (monotone).
  size_t denied() const;

 private:
  const double capacity_;
  const double refill_per_success_;
  mutable std::mutex mu_;
  double tokens_;
  size_t denied_ = 0;
};

}  // namespace revere::piazza

#endif  // REVERE_PIAZZA_BREAKER_H_
