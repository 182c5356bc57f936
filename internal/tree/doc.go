// Package tree implements the distributed primitives every algorithm in
// the paper is built from, as message-level automata over the marked
// (tree) edges of a congest.Network:
//
//   - broadcast-and-echo (paper §1, [13]): the root broadcasts a message
//     down its tree; echoes aggregate values from the leaves back up.
//     All of TestOut, HP-TestOut, FindMin and FindAny are one or more of
//     these with different local-compute/aggregate functions.
//
//   - leader election by median finding (paper §3.3, ideas of [18]):
//     leaves start echoes; tokens converge to one median or two adjacent
//     medians (higher ID wins). On a fragment that is not a tree (the
//     Build-ST cycle case, §4.2) the nodes on the cycle never finish and
//     detect this on timeout — modelled as engine quiescence.
//
// One Protocol instance is attached to a network and registers the message
// kinds once; sessions keep concurrent executions independent.
//
// # Invariants
//
// Zero-alloc steady state. A warm Protocol performs whole
// broadcast-and-echoes and election waves without allocating: per-node
// automaton states (beState) recycle through one free list,
// session→spec bindings live in a slot-indexed table keyed by the
// engine's recycled session slots (validated by the full packed ID, so a
// recycled slot never aliases), election receipts are bitmasks over each
// node's sorted edge slice in a reusable buffer, and single-word echoes
// travel unboxed (Spec.LocalU/CombineU over Message.U).
//
// Spec table ownership. Drivers write spec-table entries between rounds;
// a handler only reads them, and only the root node's handler clears a
// session's entry.
//
// Derived randomness. Node-local random choices (NodeRand) are seeded by
// the session's creation serial, never the packed ID or any engine
// state, so draws are identical across slot-recycling orders.
//
// Tree discipline. A broadcast-and-echo must run on a marked subgraph
// that is a tree: a second broadcast arriving at a node in the same
// session panics (a cycle), and Build-ST handles cycles via elections,
// never via broadcast-and-echo.
package tree
