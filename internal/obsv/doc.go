// Package obsv records congest engine trace events — per-round ledger
// snapshots, phase boundaries, protocol lifecycle events — into bounded
// in-memory structures that can be snapshotted concurrently (e.g. by an
// HTTP endpoint) while a trial is running.
//
// # Invariants
//
// Passive. A Recorder only ever copies data out of the callbacks it
// receives; nothing it stores feeds back into engine or protocol
// decisions. Seeded runs are byte-identical with a recorder attached or
// not — this is the engine's observer contract
// (congest.Observer) and the recorder's side of the bargain.
//
// Engine-ordered. All congest.Observer callbacks arrive on the engine
// goroutine at engine barriers, already in deterministic order. The recorder's mutex exists only so Snapshot can
// be called from other goroutines (the --obs-listen HTTP server); it never
// orders engine events.
//
// Bounded. Memory does not grow with run length:
//   - Round samples live in a ring of at most maxRoundSamples entries with
//     an adaptive stride: when the ring fills, every other sample is
//     dropped and the sampling stride doubles, so the whole run stays
//     covered at a resolution that halves as the run doubles.
//   - Trace events (phase and repair boundaries) live in a fixed-size ring
//     that overwrites the oldest entry; Snapshot reports how many were
//     dropped.
//   - Per-phase aggregates are append-only but capped at maxPhaseAggs; the
//     paper's phase budget is O(c·log n), far below the cap.
//   - Session and repair statistics are scalar aggregates; named counters
//     are one map entry per distinct name.
//
// Snapshot-consistent. Snapshot deep-copies everything under the lock, so
// readers never observe a torn state and never alias recorder-owned
// memory.
package obsv
