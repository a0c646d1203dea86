// Package repro is the root of the reproduction of "Computing Optimal
// Repairs for Functional Dependencies" (Livshits, Kimelfeld, Roy,
// PODS 2018).
//
// Layout:
//
//	fdrepair/              public API (start here)
//	internal/schema        relation schemas, bitset attribute sets
//	internal/fd            FDs: closures, simplifications, classification,
//	                       keys/normal forms, Armstrong derivations
//	internal/table         weighted identified tables, distances, conflicts,
//	                       CSV I/O, repair diffs
//	internal/graph         bipartite matching, weighted vertex cover
//	internal/srepair       OptSRepair, OSRSucceeds, exact + 2-approx
//	internal/urepair       U-repair planner, transfers, approximations,
//	                       restricted & mixed variants
//	internal/mpd           most probable database (Theorem 3.10)
//	internal/reduction     fact-wise reductions and hardness gadgets
//	internal/enumerate     subset-repair enumeration + chain counting
//	internal/priority      prioritized repairing (Staworko et al.)
//	internal/denial        binary denial constraints
//	internal/cfd           conditional FDs (pattern tableaux)
//	internal/cqa           consistent query answering over repairs
//	internal/workload      synthetic tables, graphs, formulas, catalogue
//	internal/experiments   the paper-reproduction harness (E1–E12)
//	internal/cli           testable CLI implementation
//	cmd/fdrepair           repair/classify/count/gen/entails CLI
//	cmd/paperbench         regenerate every paper table and figure
//	examples/              runnable walk-throughs of the public API
//
// # Performance architecture
//
// The table core is dictionary-encoded (internal/table/encoding.go):
// every attribute-set projection is lazily interned into dense int32
// codes. A column is a single-attribute projection, numbered by its
// value dictionary; a multi-attribute projection folds its lowest
// attribute onto the projection of the others, numbering the (rest
// code, column code) pairs as one uint64 key. Equal codes ⇔ equal
// projections, so GroupBy, SatisfiesFD, Violations and
// ConflictPairs compare fixed-width integers instead of building
// length-prefixed string keys per row. The encoding is cached on the
// table, invalidated by mutation, and built under a mutex so concurrent
// readers are safe. Bulk loads go through table.AppendRows, which grows
// the row store once and invalidates the encoding once per batch —
// workload generation at 10⁵+ rows is batched this way.
//
// The repair algorithms recurse over zero-copy views
// (internal/table/view.go): a view is the backing table plus a
// row-index slice, grouped and weighed against the shared encoding.
// OptSRepair precomputes the (data-independent) simplification chain
// once, recurses over views, and materializes only the final repair.
//
// Execution is organized around per-solve contexts (internal/solve,
// surfaced publicly as fdrepair.Solver with functional options). Each
// Solver owns a worker budget (WithParallelism) executed by a
// work-stealing task scheduler: the algorithm's natural tree of
// independent subproblems — OptSRepair blocks at every recursion
// depth, marriage-matching connected components, U-repair planner
// components — becomes explicit tasks on per-worker bounded deques,
// popped LIFO by their producer (depth-first, data still hot) and
// stolen FIFO by idle workers (breadth-first, the largest pending
// subtree). A parent awaiting its blocks never parks while work is
// pending anywhere: it helps execute queued tasks — its own or stolen
// ones from any recursion level — so nested recursion cannot deadlock
// on the budget and cannot idle a worker the way a try-acquire pool
// does (a worker acquired high in the tree used to park in the join
// while the subtree below it, finding the pool saturated, ran
// serially). Helper goroutines spawn per free worker slot while tasks
// are queued and exit when the deques drain, so an idle Solver holds
// no goroutines. Block results are joined in deterministic index
// order, so results are byte-identical to the serial engine at every
// worker count.
//
// Each Solver also owns scratch arenas in two tiers — a private
// lock-free shard per scheduler worker (hot buffers stay in the
// executing worker's cache even when tasks are stolen) over sync.Pool
// overflow (group-by buffers, block result slices, marriage edge
// lists, matcher CSR/potential/distance arrays and heap storage,
// recycled across recursion levels, components and sequential solves,
// grown to what the work asks for and converging on high-water sizes);
// cooperative cancellation (WithContext — checked at task dispatch,
// recursion and component boundaries, every few augmenting phases
// inside the sparse matching loop, and inside the exponential
// vertex-cover search, so a deadline-exceeded solve returns the
// context error promptly without touching the input table); and an
// optional SolveStats record (WithStats — recursion nodes, tasks
// inline/executed/stolen, matcher path dispatches, U-repair planner
// decisions per component, arena reuse). Nothing on the solve hot path
// reads package-level pool state, so any number of Solvers with
// different settings run concurrently.
//
// # Request scopes and batching
//
// Solver state is split along lifetimes. Solver-lifetime state — the
// worker budget and scheduler, the scratch arenas, the aggregate stats
// sink — persists across solves; that persistence is the point of a
// long-lived Solver (arena buffers converge on high-water sizes, the
// scheduler holds the budget). Per-request state — the request's
// cancellation snapshot and deadline, an optional per-request stats
// record — lives in a solve scope (internal/solve.Scope) that every
// request gets afresh. Pooled buffers grown by big solves are reused
// by small ones, which costs nothing; fresh scratch is sized at what
// the current solve asks for, never at the largest table the Solver
// has seen.
//
// On top of scopes sits the batch/stream entry point for many-table
// traffic: Solver.SolveBatch runs a slice of (FDSet, Table, Algorithm)
// requests as tasks on the solver's one work-stealing scheduler —
// request-level tasks interleave with the block-level tasks their own
// recursions spawn, so a mixed-size batch saturates the budget without
// over-subscribing it — and returns index-ordered, per-request results:
// each request carries its own error (one expired deadline, hard FD
// set or cancelled context never poisons its siblings), its own
// deadline (WithRequestTimeout or Request.Context) and its own
// SolveStats slice, while results remain byte-identical to solo solves
// at any worker count. Solver.NewStream is the queue form: Submit
// enqueues requests as they arrive (in-flight work bounded by the
// worker budget, natural backpressure past it), Results delivers each
// outcome as it completes, tagged with its submission index. The CLI's
// batch subcommand and the SolveBatch cases in paperbench -benchjson
// ride this path.
//
// # Resident sessions and incremental repair
//
// For tables that mutate between solves, fdrepair.Session binds one
// Solver, one table and one FD set into a resident handle that keeps
// the expensive intermediate state of a repair alive across calls:
// the table's dictionary-encoding snapshot, the FD set's simplification
// chain, the top-step block partition, and every block's previous
// repair. Mutations route through Session.AppendRows and
// Session.SetCells, which extend the live encoding in place —
// appends intern and bucket only the new rows; cell updates re-code
// only the touched rows, and only in the projections whose attribute
// sets intersect the touched attributes — and record a dirty row set
// instead of invalidating the encoding wholesale.
//
// Session.Repair then exploits the block decomposition: the first
// simplification step of the chain is data-independent, so the table
// partitions into blocks (common-lhs groups, consensus groups, or
// marriage (X1, X2) groups) that are solved independently. A block
// containing no dirty row and unchanged membership has, provably, the
// same optimal repair as last time — non-dirty rows never change
// equality class, and blocks are keyed by their smallest row index —
// so only dirty blocks are re-solved (as tasks on the Solver's
// work-stealing scheduler, under a fresh per-request solve.Scope) and
// clean blocks splice their cached result in. The root combine —
// union, heaviest block, or marriage matching — then runs over the mix
// of cached and fresh block repairs in block order. It is the same
// combine function every node of a cold solve's recursion calls, so
// the output is byte-identical to a from-scratch solve at any worker
// count (pinned by a differential test suite running randomized
// mutation scripts at workers 1/2/4/8 under -race). When more than 30%
// of the rows are dirty, when the FD set changes (SetFDs), or on the
// first call, the session falls back to a full solve and repopulates
// the cache. WithImpactRecording makes every Repair also produce an
// Impact report — violations per FD and cells changed per block,
// before vs after — surfaced by the CLI's verify subcommand.
//
// MarriageRep (Subroutine 3) runs on a sparse matching engine
// (internal/graph.SparseMatcher): the marriage graph has exactly one
// edge per observed (X1, X2) block, so its combine emits that edge list
// directly and the engine decomposes it into connected components
// (solved independently, and in parallel on the same worker budget as
// the repair blocks), dispatching each to a fast path — singleton edges
// and one-sided stars by a max scan, tiny components to the dense
// Hungarian solver (its padded matrix and working arrays pooled on the
// solve arena) — or to a sparse Jonker–Volgenant solver: shortest
// augmenting paths with potentials over CSR adjacency lists and a
// Dijkstra on a 4-ary heap over pooled storage, with a private
// zero-weight slack column per row so maximum-weight partial matching
// reduces to an assignment that is perfect on the smaller side. Cost is
// O(V·E·log V) on the real edge set instead of the O(size³) the padded
// dense matrix costs, which turns the matching-dominated marriage
// workloads from cubic in the distinct-value counts into near-linear in
// the block count. The dense Hungarian remains as the differential
// oracle (and the small-component fast path); GreedyMatching is the
// ablation baseline over the same edge-list type.
//
// The bench baseline for this architecture is BENCH_srepair.json,
// written with per-solve stats (recursion nodes, matcher dispatches,
// arena reuse) attached to each repair case by
//
//	go run ./cmd/paperbench -benchjson BENCH_srepair.json
//
// and the same case table runs under go test, one case or class at a
// time, next to the root package's size sweeps:
//
//	go test -run '^$' -bench 'Cases/(Fig1|Table1)' -benchmem ./cmd/paperbench
//	go test -run '^$' -bench 'Scaling' -benchmem .
//
// `paperbench -list` is the experiment index (E1–E11), and `paperbench
// all` prints each experiment's paper-vs-measured report.
package repro
