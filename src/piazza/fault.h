#ifndef REVERE_PIAZZA_FAULT_H_
#define REVERE_PIAZZA_FAULT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"

namespace revere::piazza {

/// How an unhealthy peer misbehaves. The paper's PDMS vision (§3.1.2)
/// is a decentralized network where "peers can join and leave at will";
/// this models the three observable shapes of leaving.
enum class FaultMode {
  kHealthy,
  /// Permanently unreachable: every contact fails until Restore().
  kDown,
  /// Transiently unreachable: each contact independently fails with
  /// `failure_probability` (a retry may succeed).
  kFlaky,
  /// Reachable but adds `extra_latency_ms` per contact, which trips the
  /// caller's per-contact deadline when one is set.
  kSlow,
};

/// "healthy", "down", "flaky", or "slow".
const char* FaultModeToString(FaultMode mode);

/// The fault currently injected at one peer.
struct PeerFault {
  FaultMode mode = FaultMode::kHealthy;
  /// kFlaky: per-contact failure probability in [0, 1].
  double failure_probability = 0.0;
  /// kSlow: added round-trip latency, simulated milliseconds.
  double extra_latency_ms = 0.0;
};

/// Outcome of one simulated contact attempt against a peer.
struct ContactOutcome {
  /// Ok, Unavailable (down / dropped contact), or DeadlineExceeded
  /// (slow peer past the per-contact deadline). Error messages name the
  /// peer so failures are diagnosable from the Status alone.
  Status status;
  /// Simulated time the attempt consumed — a full round trip on
  /// success, the deadline on a timed-out failure.
  double elapsed_ms = 0.0;
};

/// Deterministic peer-failure simulator. All randomness flows from the
/// seeded common/rng generator and all time is simulated (charged to
/// the caller's NetworkCostModel accounting), so a run with a given
/// seed is byte-identical — failures included — across machines.
///
/// The injector is *external* to PdmsNetwork: the network stays a pure
/// catalog of peers/mappings/data, and an experiment overlays whatever
/// fault pattern it wants without mutating shared state.
///
/// Thread safety (ISSUE 6): all members are internally synchronized so
/// RevereServer workers can share one injector. Determinism holds for
/// any *sequential* caller sequence (the seeded RNG draw order is the
/// contact order); concurrent contacts interleave their draws in
/// scheduler order, which is exactly the nondeterminism a multi-worker
/// server has anyway — the replay oracles all drive contacts from one
/// thread.
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed) : rng_(seed) {}

  /// Marks `peer` permanently down.
  void SetDown(const std::string& peer);
  /// Marks `peer` flaky with the given per-contact failure probability.
  void SetFlaky(const std::string& peer, double failure_probability);
  /// Marks `peer` slow, adding `extra_latency_ms` per contact.
  void SetSlow(const std::string& peer, double extra_latency_ms);
  /// Heals `peer`.
  void Restore(const std::string& peer);
  /// Heals every peer (keeps the RNG stream position).
  void RestoreAll();

  /// Current fault at `peer` (kHealthy when none injected).
  PeerFault GetFault(const std::string& peer) const;
  /// Peers currently carrying a non-healthy fault, sorted.
  std::vector<std::string> FaultyPeers() const;

  /// Simulates one contact attempt. A healthy contact consumes
  /// `base_round_trip_ms`; a slow one consumes that plus its extra
  /// latency. When `deadline_ms` > 0 it is a per-contact timeout: a
  /// down or dropped contact is detected after the full deadline, and a
  /// slow contact that would exceed it fails with DeadlineExceeded.
  /// With no deadline, failures are detected after one round trip.
  ContactOutcome Contact(const std::string& peer, double base_round_trip_ms,
                         double deadline_ms = 0.0);/// Injects `fault` at exactly round(fraction * peers.size()) peers,
  /// chosen uniformly without replacement — a deterministic failure
  /// *count* for monotone sweep experiments.
  void InjectFraction(const std::vector<std::string>& peers, double fraction,
                      const PeerFault& fault);

  /// Total contact attempts simulated (includes retries).
  size_t contacts_attempted() const;

  /// Contact attempts aimed at one specific peer — the denominator of
  /// the circuit-breaker acceptance check ("open breakers cut contact
  /// attempts to dead peers by >= 90%").
  size_t contacts_to(const std::string& peer) const;

 private:
  mutable std::mutex mu_;
  Rng rng_;
  std::map<std::string, PeerFault> faults_;
  std::map<std::string, size_t> per_peer_contacts_;
  size_t contacts_attempted_ = 0;
};

/// Retry knobs for one peer contact, ReformulationOptions-style.
/// All times are simulated milliseconds.
struct RetryPolicy {
  /// Total attempts per peer contact (1 = no retry).
  int max_attempts = 1;
  /// Backoff before the k-th retry is base_backoff_ms * 2^(k-1)
  /// (exponential; see `jitter` — the default configuration stays
  /// deterministic and jitter-free, so replays are bit-identical).
  double base_backoff_ms = 1.0;
  /// Per-contact timeout; 0 disables deadline enforcement.
  double deadline_ms = 0.0;
  /// Backoff jitter (ISSUE 6 bugfix): fraction in [0, 1] of each
  /// backoff wait that is randomly shaved off, so retries against a
  /// recovering peer de-synchronize instead of stampeding it in lock
  /// step. The draw is a stateless hash of (jitter_seed, peer, attempt)
  /// — deterministic per (seed, peer, attempt) on any machine, with no
  /// RNG stream to perturb — so the fault-replay oracle stays exact
  /// even with jitter on. 0 (the default) reproduces the legacy
  /// bit-identical backoff schedule.
  double jitter = 0.0;
  /// Seed for the jitter hash; vary it to decorrelate callers.
  uint64_t jitter_seed = 0;

  /// The backoff wait before retry attempt `attempt` (1-based) of a
  /// contact against `peer`, jitter applied.
  double BackoffMs(const std::string& peer, int attempt) const;
};

/// What Answer() does when a peer stays unreachable after retries.
enum class FailurePolicy {
  /// Propagate kUnavailable / kDeadlineExceeded: no answer is better
  /// than a silently incomplete one.
  kFailFast,
  /// Skip rewritings touching dead peers and return the partial answer;
  /// the CompletenessReport says exactly what was lost.
  kBestEffort,
};

/// Degradation accounting for one Answer() call: which peers could not
/// be reached, how much of the reformulation was dropped because of
/// them, and what the fault handling cost in retries and backoff.
struct CompletenessReport {
  /// Rewritings the reformulator produced (the denominator).
  size_t rewritings_total = 0;
  /// Rewritings dropped because some peer they touch was unreachable
  /// or their evaluation failed (includes the breaker- and
  /// deadline-attributed drops below).
  size_t rewritings_skipped = 0;
  /// Of the skipped rewritings, how many were dropped because the
  /// caller's end-to-end deadline expired before they could run —
  /// "degrade to best-effort partial answers", ISSUE 6.
  size_t rewritings_deadline_skipped = 0;
  /// Individual contact attempts that failed (includes failed retries).
  size_t contacts_failed = 0;
  /// Contacts never attempted because the peer's circuit breaker was
  /// open — load the breaker kept off a known-dead peer.
  size_t breaker_skips = 0;
  /// Retry attempts made (beyond each contact's first attempt).
  size_t retries_attempted = 0;
  /// Retries foregone because the global RetryBudget was exhausted —
  /// the anti-retry-storm valve engaging.
  size_t retries_denied = 0;
  /// Simulated time spent waiting in exponential backoff.
  double backoff_ms = 0.0;
  /// Peers that stayed unreachable after retries.
  std::set<std::string> unreachable_peers;

  /// True when no rewriting was lost to peer failures, evaluation
  /// failures or deadlines.
  bool complete() const { return rewritings_skipped == 0; }
};

}  // namespace revere::piazza

#endif  // REVERE_PIAZZA_FAULT_H_
