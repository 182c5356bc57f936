// Package congest is the communications substrate: a message-level
// simulator of the CONGEST model the paper runs in.
//
// A Network holds one NodeState per processor. Processors exchange
// Messages only along existing links; every message is counted (count and
// bits) and must fit the O(log(n+u)) budget — with the model word fixed at
// w = 64 bits, a message is at most a constant number of words.
//
// Protocol logic comes in three forms:
//
//   - handlers: per-message automaton steps registered by Kind. A handler
//     may read/write only the local state of the receiving node and send
//     further messages. This is where broadcast-and-echo, leader election,
//     probes etc. live (package tree and friends).
//
//   - continuation drivers (Task wrapping a StepDriver): the sequential
//     program an initiating node runs — FindMin's narrowing loop, one
//     repair — as an explicit state machine stepped by the engine with no
//     goroutine, no channels and no parked stack. All per-fragment and
//     per-repair work runs this way; Fanout is the one per-phase fan-out
//     helper (one driver per fragment per Borůvka phase — a million at
//     1M nodes).
//
//   - controllers (Proc): a build's phase loop, written as an ordinary Go
//     function that parks on Await, spawns the phase's tasks and joins
//     them. Controllers are goroutines scheduled cooperatively with the
//     tasks on one run queue: at any instant either the engine or exactly
//     one driver executes, so runs are deterministic for a fixed seed and
//     free of data races by construction.
//
// Two schedulers implement the paper's two timing models: the synchronous
// scheduler delivers in lockstep rounds (messages sent in round r arrive
// in round r+1); the asynchronous scheduler delivers tick groups — all
// messages sharing the earliest pending virtual time, extracted in bounded
// windows from a calendar queue — with seeded pseudo-random delays and
// per-link FIFO order. Emissions landing inside the open window are routed
// to their exact reference position, so windowed async
// delivery is byte-identical to a one-event-at-a-time replay.
//
// # Invariants
//
// Zero-alloc hot paths. Steady-state message delivery allocates nothing:
// message kinds are interned to small integer KindIDs (dispatch via
// slice, counters via array), Message structs are recycled through free
// lists, each node's neighbour index is the sorted Edges slice itself
// (binary search, no side map), and the async scheduler is a bucketed
// calendar queue instead of a global binary heap. Drivers are pooled:
// Task objects and Proc goroutines+channels recycle within one Run
// (WaitTasks/WaitAll release; Run teardown drains), Fanout reuses its
// drivers across phases, and tagged task names format lazily.
// testing.AllocsPerRun gates in this package pin all of it.
//
// Session slot recycling. A SessionID packs a recycled slot index with a
// monotonically increasing creation serial; the slot indexes the engine's
// flat session table and the serial is the slot's generation stamp, so a
// stale ID can never alias a reused slot. A session's result is consumed
// exactly once (completion hands it straight to a parked waiter, or a
// later Await/Step pops it), which is what lets the slot recycle
// immediately. Serials are what deterministic derived randomness hashes
// (tree.Protocol.NodeRand): they never depend on recycling order.
//
// Determinism. For a fixed seed, every run is byte-identical in all
// observables — delivery order, driver scheduling, session serials,
// derived random draws, every counter. Delivery is single-threaded: the
// engine goroutine hands each batch's messages to their handlers in batch
// order, and spawns and completions append to one run queue drained in
// order. Sessions and engine randomness (NewSession, Rand) are
// driver-side only; handlers draw deterministic per-node randomness
// instead, so no draw depends on delivery interleaving.
package congest
