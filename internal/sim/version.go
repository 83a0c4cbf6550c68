package sim

// ModelVersion identifies the semantics of Result: the timing model, the
// energy model, and the meaning of every counter. Persisted results (the
// lab's on-disk store) are stamped with it, so bumping this constant
// invalidates every stored entry at once. Bump it whenever a change makes
// previously computed results non-comparable — a new energy coefficient, a
// fixed counter, a pipeline behavior change — even if the Result struct
// itself is unchanged.
//
// Version 3 corresponds to PR 3's energy accounting (replay-issued
// instructions no longer double-count register reads). Version 4
// corresponds to the pluggable frontend: lab.Job cache keys grew
// predictor/prefetcher segments and Result grew frontend observables, so
// entries stored under version 3 keys must never satisfy version 4
// lookups. Version 5 drops the Flywheel core's sampled-mode divergence
// storm breaker: exact results are unchanged, but some sampled Flywheel
// cells move, so version 4 sampled entries must not be served.
const ModelVersion = 5
