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
// region only. The root owns only the predicate's evaluator and the
// detection/occurrence log.
//
// Clause decomposition. The root's verdict is predicate.Incremental, the
// evaluator the ground-truth oracle drives: the predicate is flattened at
// its top-level conjunction into clauses, and a clause whose comparison
// sides linearize into ±1-coefficient sums of per-process variables (plus
// sum() aggregates and constants) is maintained incrementally — each
// applied report sets its key, adjusting the clause sums in
// O(coefficients-of-that-variable), and the verdict is a
// zero-false-clause counter: O(1) per report, independent of p. Clauses
// that do not linearize (products, ratios, avg/min/max, disjunctions) are
// re-evaluated when a variable they read changes, a FuncCond on every
// report. A running sum is trusted only while every value folded into it
// is an exact integer (0/1 occupancy toggles and small counts are); the
// first fractional reading demotes its clause to AST evaluation for the
// rest of the run, so the verdict never depends on the order reports
// arrive in. The race probe sets, evaluates and restores keys through the
// same evaluator; under that rule the restore is exact.
//
// Batched upward sync. Detection itself rides the immediate delta
// channel: every admitted report updates clause state at once, which is
// what keeps the tree's detection output byte-identical to the flat
// reference checker's at every fan-out. Every strobe-clock detection in
// production runs on the tree, one region (R = 1) included; the flat
// core.StrobeChecker is the tests' differential oracle. What the tree
// batches is the upward state
// sync: each aggregator coalesces superseded per-process values into a
// pending set and periodically flushes one batch — delta-coded
// (proc, val, sent) strobe-stamp triples (clock.AppendStampBatch) plus
// value metadata for boundary-relevant processes only (those read by
// clauses that span regions, derived from the clauses the evaluator
// compiled) — which the root decodes for its regional epoch fence. The
// round trip is the codec's self-check in production (a batch that does
// not decode to its own bytes panics), and the wire bytes are the tree's
// bandwidth cost model.
// The round trip runs in batch and byte buffers the tree reuses, so a
// warm report, flush included, allocates nothing.
//
// Bounded memory. An aggregator's state is O(region) for values (a
// columnar predicate.View, one region-sized column per name) and
// admission, a 4-byte dense pending index per process into a pending
// list bounded at 256 entries (a full pending set forces a flush), and
// the race-aware stamps, last changes and reconstructions — stamps and
// reconstructions the only O(region·p) components — allocated only when
// race detection is on, the reconstructions lazily. A kept stamp is the
// tree's own copy, so the tree holds nothing a delivered report points
// to. Aggregator crash/recovery resets the regional state wholesale
// (values, stamps, admission) and zeroes the region's keys in the
// evaluator under a bumped regional epoch, so a rejoined aggregator can
// never merge pre-crash regional state into its fresh view.
package checker
