// The 2013–2018 issuance timeline behind Fig. 1.
//
// Each CA follows a phase schedule calibrated to the paper's observations:
// DigiCert logging steadily from early 2015, Comodo/GlobalSign/StartCom in
// irregular bursts, Symantec at moderate volume, and Let's Encrypt
// switching on in March 2018 at >2M precertificates/day — with all big CAs
// jumping as the Chrome enforcement deadline (2018-04-18) approached.
//
// All volumes are scaled by `TimelineOptions::scale`: the simulator runs at
// a configurable fraction of real-world volume, and the analyses report
// shares and shapes, which are scale-invariant.
//
// A run issues each certificate in three steps (the CA side is in ca.hpp):
//   1. draw      — serial: per CA and day, the CA's forked RNG picks the
//                  day's count and each certificate's time, and the CA
//                  assigns the serial;
//   2. prepare   — parallel (a par::TaskGroup over a fixed-size batch of
//                  draws): build and sign the precertificate, encode and
//                  hash its log entry once, sign each log's speculative SCT;
//   3. integrate — serial, in draw order: each log's capacity check,
//                  dedup, Merkle append, entry and subscribers. An
//                  overloaded log discards its speculative SCT.
// Steps 2 and 3 overlap: while batch k+1 prepares on the pool, the caller
// integrates batch k, then waits. Preparing reads only the CA's and the
// logs' keys and configs; integrating writes only the logs' trees, entries
// and capacity counters. At one thread the group runs the preparation
// inline, before the integration.
// Determinism contract: draws and integration are serial and in one fixed
// order, and preparation is a pure function of (request, time, serial), so
// every log's entries, roots and overload counts are byte-identical at
// every thread count. No final certificates are built: the analyses read
// only the logs. The sim.timeline.{draw,prepare,integrate}_us histograms
// split each run's wall time: prepare_us is the caller's exposed wait on
// preparation (launch plus wait), not its CPU time, and the three add up
// to the run.
#pragma once

#include <string>
#include <vector>

#include "ctwatch/sim/ecosystem.hpp"

namespace ctwatch::sim {

/// A constant-rate (with optional burstiness) issuance phase of one CA.
struct IssuancePhase {
  std::string start;        ///< "YYYY-MM-DD", inclusive
  std::string end;          ///< exclusive
  double certs_per_day;     ///< real-world volume before scaling
  bool bursty = false;      ///< if set, the CA logs in irregular batches
};

struct CaTimeline {
  std::string ca;
  std::vector<IssuancePhase> phases;
};

/// The calibrated standard schedule (see file comment).
const std::vector<CaTimeline>& standard_timeline();

struct TimelineOptions {
  std::string start = "2013-01-01";
  std::string end = "2018-05-01";
  /// Fraction of real-world volume to simulate.
  double scale = 1.0 / 2000.0;
};

/// Result of running the timeline: per-(day, CA, log) counts, which is all
/// the Fig. 1 analyses need, are queried straight from the logs.
struct TimelineStats {
  std::uint64_t issued = 0;             ///< certificates issued (with CT)
  std::uint64_t log_submissions = 0;    ///< pre-chain submissions attempted
  std::uint64_t overloaded = 0;         ///< submissions rejected for load
};

/// Drives the CA issuance schedule against an ecosystem's logs.
class TimelineSimulator {
 public:
  TimelineSimulator(Ecosystem& ecosystem, TimelineOptions options);

  /// Runs the whole schedule. Idempotence is not attempted: run once.
  TimelineStats run();

 private:
  Ecosystem* ecosystem_;
  TimelineOptions options_;
};

}  // namespace ctwatch::sim
