// Wave safety
//
// The queue guarantees that the repairs of one wave cannot observe each
// other, so running them concurrently on one engine Run produces a valid
// forest — the same invariant each repair restores in isolation.
//
// The claims discipline: before a wave runs, component labels are computed
// once by union-find over the marked edges (the wave-start forest). A
// delete of a marked edge claims the component containing it; an insert
// (and its weight-change analogue) claims both endpoints' components; a
// weight increase on a marked edge claims its component. Claims are
// exclusive — a second repair needing a claimed label defers to a later
// wave.
//
// Each event's topology mutation (DeleteLink, InsertLink, SetRawWeight,
// unmark) is applied at admission, before the wave's engine Run starts, so
// every repair in the wave executes against one fixed post-admission
// topology. During the Run, a repair only traverses marked edges of its
// claimed components (FindMin/FindAny surveys, path-max and swap
// broadcast-and-echoes all walk the tree from an endpoint of the repaired
// edge), and the marks it produces are staged, not applied: a delete's
// replacement edge reconnects the two claimed halves of its own
// component, an insert's mark joins its two claimed components. Staged
// marks therefore land entirely inside claimed territory, and no two
// repairs share a claim — so no repair can see another's traversal or
// staged marks. One ApplyStaged at wave end commits them all, and the next
// wave's labels are recomputed from the result.
//
// Inline admissions (delete of an unmarked edge, no-op weight changes) may
// touch unclaimed components, but they only add or remove NON-tree edges
// or reweight edges in no-op directions before the Run starts; a
// concurrent repair's search then sees the post-admission candidate edge
// set, which equals the final topology, and its optimality check
// (minimum cut edge, path-max comparison) is exactly the forest invariant
// with respect to those final weights.
//
// Ordering: events on the same unordered node pair must apply in list
// order (the compiler emits heal inserts for earlier partition deletes).
// During a wave scan, any event that is not admitted marks its edge
// blocked, and later same-edge events defer; admitted events serialize
// same-edge successors automatically, because the mutated pair's
// components are claimed.
//
// Determinism: admission order is scan order; backoff delays are a pure
// hash of (seed, event index, retry count); wave drivers are spawned as
// continuation tasks in admission order on one deterministic engine Run.
// Reports are therefore byte-identical for a fixed seed, and a failure
// minimizes to (seed, plan prefix).
package admit
