// Package fdrepair is the public API of the library: computing optimal
// and approximate repairs of an inconsistent single-relation database
// under functional dependencies, after Livshits, Kimelfeld and Roy,
// "Computing Optimal Repairs for Functional Dependencies" (PODS 2018).
//
// The package exposes the underlying machinery through type aliases and
// a small set of high-level entry points:
//
//	sc := fdrepair.MustSchema("Office", "facility", "room", "floor", "city")
//	ds := fdrepair.MustFDs(sc, "facility -> city", "facility room -> floor")
//	t := fdrepair.NewTable(sc)
//	t.MustInsert(1, fdrepair.Tuple{"HQ", "322", "3", "Paris"}, 2)
//	...
//	info := fdrepair.Classify(ds)            // dichotomy (Theorem 3.4)
//	s, cost, _ := fdrepair.OptimalSRepair(ds, t)  // Algorithm 1
//	u, _ := fdrepair.OptimalURepair(ds, t)        // Section 4 planner
//	m, _ := fdrepair.MostProbableDatabase(ds, pt) // Theorem 3.10
//
// Deletion repairs: OptimalSRepair runs the paper's polynomial
// algorithm OptSRepair and succeeds exactly when the FD set is on the
// tractable side of the dichotomy; ExactSRepair is an exponential
// baseline for any FD set; ApproxSRepair is the polynomial
// 2-approximation of Proposition 3.3.
//
// Update repairs: OptimalURepair composes the paper's tractable cases
// (consensus elimination, attribute-disjoint decomposition, common-lhs
// sets, chains, key swaps) and falls back to the combined approximation
// of Section 4.4, reporting exactness and the guaranteed ratio.
//
// # Constraint extensions on the Solver core
//
// The Section-5 extension classes — conditional FDs (ConditionalFD,
// ExactCFDSRepair/ApproxCFDSRepair), binary denial constraints
// (DenialConstraint, ExactDenialSRepair/ApproxDenialSRepair),
// consistent query answering (CQAQuery, ConsistentAnswers) and
// prioritized repairing (PriorityRelation, PrioritizedRepair) — have
// one production implementation each, the encoded core, whether called
// as package-level functions (which run on a package-level serial
// Solver) or as Solver methods. Conflicts are found on the table's
// cached int32 projection codes (values parse once per cell, not once
// per compared pair), independent units — CFD pattern groups, denial
// join groups, conflict-graph components — fan out across the solver's
// workers, and every call honors the solver's cancellation, deadline,
// arenas and stats (the cfd_patterns, denial_predicates, cqa_certain
// and priority_levels counters). The seed string-tuple engines stay in
// internal/{cfd,denial,cqa,priority} only as differential oracles; the
// differential suites pin the encoded engines byte-identical to them at
// workers 1, 2, 4 and 8.
//
// Two of the classes change asymptotic reach rather than just constant
// factors. ConsistentAnswers factorizes the repair count over conflict
// components, so the 64-tuple enumeration bound applies per component
// instead of per table — a table of any size answers exactly as long
// as each individual component stays within the bound.
// PrioritizedRepair runs in O(n log n + |≻|) time for n tuples and
// lists no conflict edge: it checks each preference on the projection
// codes, orders the tuples by Kahn's algorithm with a min-heap on tuple
// id, finds the conflict components by union-find over lhs groups, and
// admits rows with per-FD code maps local to each component instead of
// cloning the repair and re-checking consistency per insertion. A
// Request whose priorities name an unknown tuple, relate two tuples
// that do not conflict or form a cycle fails its input check, so
// ParseRequest rejects it before any solve starts.
//
// # One algorithm table
//
// Every Algorithm is one row of a table holding its canonical name
// (String), its short alias, its input check and its run function.
// SolveBatch, Stream, the Solver methods and the package-level
// functions all dispatch through that table, and ParseAlgorithm and
// ParseRequest read it to turn text into a checked Request — the same
// vocabulary (fd, cfd, dc, project, where, prefer) the fdrepair CLI's
// -mode and flags and fdrepaird's algo= and query parameters use. The
// classes are first-class batch citizens: Request.CFDs, Request.Denial,
// Request.Query and Request.Priority select them in SolveBatch
// (AlgoCFDSRepair, AlgoDenialSRepair, AlgoCQA, AlgoPriorityRepair).
// AlgoAuto is the dichotomy as a dispatch rule: Algorithm 1, or on
// ErrNoSimplification the 2-approximation with BatchResult.Degraded
// set.
//
// # Out-of-core ingestion and memory model
//
// Tables enter the library in one of two memory regimes. Programmatic
// construction (NewTable + Insert/AppendRows) holds whatever strings
// the caller passes. CSV ingestion — ReadCSV, or any path that loads
// files or request bodies — streams through a chunked builder
// (table.IngestCSV) that never materializes the raw string form of
// the table: each cell is parsed from a reusable byte buffer, looked
// up in the per-attribute dictionary without allocating, and stored
// as an int32 code in a column chunk. Only the first occurrence of a
// distinct value allocates a string; every later occurrence shares
// it. Transient memory is O(chunk + dictionary), so peak heap while
// loading a table tracks the encoded size (int32 columns plus one
// string per distinct value), not the CSV size — the property that
// makes 10M-row inputs loadable under a GOMEMLIMIT a tuple-at-a-time
// reader cannot satisfy.
//
// Chunks grow with the input: the first holds 256 rows and each later
// one twice the previous, up to 65,536 rows. A small table therefore
// costs what its rows cost, not a full-size chunk; a table that fits
// in the first chunk keeps it as its storage, and a larger one is
// copied once into exact-size columns when ingestion ends. The
// finished table carries its dictionary encoding, so the first solve
// starts hot.
//
// # Operating fdrepaird
//
// Command fdrepaird (cmd/fdrepaird) serves this package over HTTP: one
// shared Solver, one scheduler, every request a single-element
// SolveBatch with its own scope, deadline and failure domain.
//
// Endpoints:
//
//	GET  /healthz   liveness: 200 while the process serves
//	GET  /readyz    readiness: 200 while admitting, 503 once draining
//	GET  /metrics   Prometheus text: per-request outcome and
//	                per-algorithm counters (fdrepaird_requests_total
//	                {outcome=...} and {algo=...}) and the solver's
//	                SolveStats (fdrepaird_solve_*_total)
//	POST /solve     body: the table as CSV (header row names the
//	                attributes; optional id and w columns); query:
//	                algo=<Algorithm alias or name> (default auto),
//	                timeout=<duration>, plus the ParseRequest
//	                parameters fd=, cfd=, dc=, project=/where=,
//	                prefer=; response: the repair as CSV with
//	                X-Repair-* headers (algo=cqa: the certain answers
//	                with X-Cqa-* headers); a body longer than
//	                -max-body is refused with 413
//
// Admission and quotas. A request passes three gates in order: the
// drain flag (503 + Retry-After once shutdown has begun), the
// per-tenant token bucket (-tenant-rate/-tenant-burst, keyed by the
// X-Tenant header; 429 + Retry-After when dry), and the bounded
// request queue (-queue; 429 when full). Shedding is always
// immediate — an overloaded daemon refuses fast rather than queueing
// unboundedly.
//
// Failure isolation. A panic inside one request's solve is recovered
// at the block boundary, reported as that request's 500 with the stack
// in the daemon log, and counted in fdrepaird_requests_total and
// fdrepaird_solve_panics_total; concurrent requests on the same
// scheduler are unaffected. A missed per-request deadline is a 504;
// with -approx-fallback set, an exact solve that exhausts its budget
// degrades to the 2-approximation instead (X-Repair-Degraded: true),
// as does algo=auto on an FD set that is hard for optimal S-repair.
//
// Drain semantics. On SIGTERM or SIGINT the daemon flips /readyz to
// 503, sheds new solves, lets in-flight requests finish within the
// -drain budget (http.Server.Shutdown followed by Solver.Close), then
// exits 0 on a clean quiesce and 1 when the budget expires with work
// still running.
//
// # Invariants and how they are enforced
//
// The engine's correctness under concurrency rests on a handful of
// repo-wide conventions that ordinary tests exercise but cannot pin
// mechanically. Command fdlint (cmd/fdlint, analyzers in internal/lint)
// checks them on every build; CI runs `fdlint ./...` beside gofmt, vet
// and staticcheck. One analyzer per invariant:
//
//   - fdlint/arenapair — every arena acquisition (solve.Ctx's Int32s,
//     Float64s, Int32Slices, GetScratch, ...) must be released on every
//     path to return, or explicitly handed off. A leaked buffer is not
//     a memory error — the arena just allocates a fresh one next time —
//     but it silently degrades the arena hit rate the perf snapshots
//     gate on.
//
//   - fdlint/statsatomic — solve.Stats fields are atomic counters
//     updated concurrently by worker goroutines; outside their owning
//     package they may only be read via Load/Snapshot, never written,
//     copied or dereferenced raw. Guards the concurrent stats sink the
//     scheduler and the daemon's /metrics endpoint both feed from.
//
//   - fdlint/determinism — solve-path code may not read wall-clock
//     time, use the package-global math/rand source, or feed map
//     iteration order into a slice without sorting. Repairs must be
//     byte-identical at workers ∈ {1, 2, 4, 8}; the differential suites
//     test that property, this analyzer pins the code patterns that
//     break it.
//
//   - fdlint/cancelcheck — long-running solve loops must poll Ctx.Err
//     on the every-32-phases convention the Jaccard-style matcher
//     established, and loops that dispatch ctx-threaded work must poll
//     between dispatches. Keeps cancellation latency bounded so
//     deadlines and drains observe it promptly.
//
// Findings are suppressed only with a reasoned directive on the
// offending statement (the reason is mandatory; a bare directive is
// itself a finding):
//
//	//lint:ignore fdlint/<analyzer> <why this code is exempt>
//
// See cmd/fdlint/README.md for the suppression policy.
//
// Fault injection. The FDREPAIR_FAILPOINTS environment variable arms
// the failpoints of internal/solve/failpoint inside the solve engine,
// e.g.
//
//	FDREPAIR_FAILPOINTS='panic-in-block=after:100,count:1;slow-block=sleep:2ms,every:8'
//
// Available points: panic-in-block, slow-block, alloc-spike,
// cancel-mid-recursion, each with after/every/count/sleep/bytes knobs.
// Disarmed points cost one atomic load per block dispatch; production
// binaries simply leave the variable unset.
package fdrepair
