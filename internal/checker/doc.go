// Package checker implements the hierarchical sharded checker tree: the
// paper's §2.1 centralized checker P0, generalized from one flat process
// into a two-tier tree of R regional aggregators under one root so that
// detection state and per-report work scale with the network instead of
// funneling O(p) state and O(p·strobes) serial evaluation through a
// single process.
//
// Topology and placement. Sensors are partitioned contiguously into R
// regions (the same proportional map the sharded engine uses for its
// spatial partition, so "one aggregator per shard region" is the natural
// deployment). Each regional aggregator owns the per-process admission
// state (seq/epoch discipline), the latest sensed values, and — when
// race-aware — the per-sender strobe-vector reconstructions for its
// region only. The root owns only the predicate's clause states and the
// detection/occurrence log.
//
// Clause decomposition. The predicate is flattened at its top-level
// conjunction into clauses (predicate.Compile, the compile step the
// ground-truth oracle shares). A clause whose comparison sides linearize
// into ±1-coefficient sums of per-process variables (plus sum()
// aggregates and constants) is maintained incrementally: each applied
// report adjusts the owning region's partial and the clause totals in
// O(coefficients-of-that-variable), and the root's verdict is a
// zero-false-clause counter — O(1) per report, independent of p.
// Clauses that do not linearize (products, ratios, avg/min/max,
// disjunctions, opaque functions) are kept whole and re-evaluated
// against the distributed view only when a variable they read changes.
// Incremental maintenance is exact for the integer-valued sensor
// readings this system carries (0/1 occupancy toggles and small counts
// are exact in float64, as are their ±1-weighted sums); the race-probe
// machinery never trusts incremental restores at all — probes evaluate
// functionally against pending deltas and restore saved values verbatim.
//
// Batched upward sync. Detection itself rides the immediate delta
// channel: every admitted report updates clause state at once, which is
// what keeps the tree's detection output byte-identical to the flat
// checker's at every fan-out (the flat checker is the R=1 fast path and
// the differential oracle). What the tree batches is the upward state
// sync: each aggregator coalesces superseded per-process values into a
// pending set and periodically flushes one batch — delta-coded
// (proc, val, sent) strobe-stamp triples (clock.AppendStampBatch) plus
// value metadata for boundary-relevant processes only (those read by
// clauses that span regions) — which the root decodes to advance its
// consolidated watermarks. The codec is load-bearing: watermarks advance
// only through encode→decode, and the wire bytes are the tree's
// bandwidth cost model.
//
// Bounded memory. An aggregator's state is O(region) for values and
// admission, O(1) histogram/pending bounded at 256 entries (a full pending
// set forces a flush), and the race-aware reconstructions — the only
// O(region·p) component — are allocated lazily and only when race
// detection is on, mirroring the flat checker's memory gate. Aggregator
// crash/recovery resets the regional state wholesale (values, stamps,
// admission, partials) under a bumped regional epoch, so a rejoined
// aggregator can never merge pre-crash regional state into its fresh
// view.
package checker
