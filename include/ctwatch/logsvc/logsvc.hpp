// ctwatch::logsvc — umbrella header.
//
// The concurrent, batched CT log service layer: a bounded submission
// queue with fail-fast backpressure, a sequencer thread sealing batches
// under a merge delay into signed tree heads, a snapshot-based read path
// for proofs and range reads, a lossy streaming fanout, and a resilient
// K-of-N multi-log submission client (circuit breakers, hedging,
// backoff). See service.hpp for the architecture sketch and DESIGN.md
// for rationale.
#pragma once

#include "ctwatch/logsvc/fanout.hpp"
#include "ctwatch/logsvc/multilog.hpp"
#include "ctwatch/logsvc/queue.hpp"
#include "ctwatch/logsvc/service.hpp"
