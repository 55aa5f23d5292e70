// Package doacross is the public entry point to the preprocessed doacross
// runtime, a reproduction and extension of Saltz & Mirchandaney, "The
// Preprocessed Doacross Loop" (ICPP 1991 / ICASE Interim Report 11).
//
// A doacross loop is a loop whose cross-iteration dependencies are only
// known at run time: iterations read and write elements of a shared
// []float64 through subscripts computed from data. The runtime executes such
// a loop in three phases, exactly as in the paper: an inspector records
// which iteration writes each element, the executor runs iterations
// concurrently with per-element waits on true dependencies
// (anti-dependencies are satisfied by renaming into a fresh buffer), and a
// postprocessor restores the scratch state so the same runtime can
// immediately serve the next loop — the reuse the whole design pays for.
//
// # Usage
//
// Describe the loop with NewLoop, build a reusable Runtime with New and the
// functional options, and execute with Run:
//
//	loop, err := doacross.NewLoop(n, dataLen).
//		Writes(func(i int) []int { return a[i : i+1] }).
//		Body(func(i int, v *doacross.Values) {
//			v.Store(a[i], 2*v.Load(b[i])+float64(i))
//		}).
//		Build()
//	if err != nil { ... }
//
//	rt, err := doacross.New(dataLen,
//		doacross.WithWorkers(8),
//		doacross.WithPolicy(doacross.Dynamic),
//		doacross.WithChunk(128),
//	)
//	if err != nil { ... }
//	defer rt.Close()
//
//	report, err := rt.Run(ctx, loop, y)
//
// Run honors ctx: cancelling it (or passing a deadline) aborts the run
// between wavefront chunks and returns ctx's error without leaking workers
// or scratch state. Bodies can fail fast by returning an error (BodyErr) or
// calling Values.Fail; a panicking body is recovered into a returned error.
// After any failed run the Runtime remains fully reusable.
//
// The execution strategy is pluggable (WithExecutor): the default Doacross
// is the paper's flag-based busy-wait construct; Wavefront pre-schedules the
// inspected dependency graph into barrier-separated level sets whose
// decomposition and static schedule are cached across runs;
// WavefrontDynamic runs the same levels with dynamic within-level
// self-scheduling, absorbing heavy-tailed per-iteration costs at a claim
// per chunk; Auto inspects once and picks from the graph's shape with a
// calibrated three-way cost model. WithOnlineTuning closes Auto's loop with
// measured feedback: each completed run's executor-phase time updates a
// per-plan moving average keyed by the plan's structural fingerprint,
// back-solves the one coefficient the calibration probe cannot measure (the
// per-iteration body weight), and — with a seeded, deterministic
// epsilon-greedy exploration — escapes the lock-in where a mispriced model
// never tries the arm that would refute it. Tuning is off by default,
// freezes under explicit WithAutoCosts coefficients, and costs nothing when
// off. See the README's "Choosing an executor" and "Self-tuning Auto".
//
// The runtime is the paper's Section 2.1 design: one Runtime (scratch arrays
// plus a persistent worker pool) is meant to be built once and reused across
// many runs, the access pattern of iterative solvers. For the paper's
// Section 3.2 application — sparse triangular solves inside ILU(0)
// preconditioned Krylov methods — the package also exposes a reusable Solver
// and UseDoacrossILU, which wire both preconditioner substitutions to
// persistent doacross runtimes.
//
// # Serving many right-hand sides
//
// A solver reused across many independent right-hand sides pays the
// traversal's fixed costs — level barriers above all — once per solve. Two
// layers remove that overhead. Solver.SolveMulti (and Runtime.RunMulti under
// it, driving a Loop's BodyMulti) carries a block of up to MaxRHSBlock
// right-hand sides through one traversal, classifying each dependency once
// per element row rather than once per column. NewSolveService builds the
// request-side counterpart: a coalescing front end whose concurrent
// single-RHS Solve calls are collected by a bounded intake queue for a
// configurable window, submitted as one SolveMulti, and demultiplexed back
// to their callers — request batching in the inference-server sense.
//
// Cancellation at the service is per request, never per batch. A request's
// context is checked at three points: at enqueue (a dead request is rejected
// before queueing), when its batch is assembled (a dead request is dropped
// without being solved), and at delivery (a request cancelled while its
// batch was being solved has its answer discarded). In the last case the
// batch itself always runs to completion under a background context, so one
// caller's cancellation never aborts the solves its neighbors are riding
// in; the cancelled caller unblocks immediately with ctx.Err() and, because
// the service copied its right-hand side at enqueue, may reuse its buffers
// at once. A solver error, by contrast, fails every request of the batch.
// Close answers still-queued requests with ErrServiceClosed, and a full
// intake queue rejects new requests with ErrServiceQueueFull rather than
// blocking the caller.
//
// # In-place execution
//
// The paper's executor renames every write into a scratch buffer and copies
// the results back afterwards; the renaming exists only to satisfy
// anti-dependences (a read of an element a later iteration writes). While
// building a wavefront plan the inspector counts such declared reads. A plan
// with none — every triangular solve qualifies — runs in place under
// Wavefront and WavefrontDynamic (and whichever of them Auto picks): the body
// reads and writes y, or RunMulti's gathered block, directly, and level
// order alone gives every read its sequential value. That drops the
// per-write seed, the classify-and-wait behind every Load and the
// postprocess copy-back; Report.InPlace says which path a run took. Plans
// with anti-dependences, and every Doacross run, keep the renamed path.
// Two consequences for bodies: LoadOld (and LoadOldRow) is defined only for
// elements no iteration writes, which WithAccessCheck enforces; and an
// in-place run's Report.TrueDeps, SelfDeps and AntiOrNone are the plan's
// counts of declared reads, equal to the per-Load counts whenever the body
// Loads exactly its declared reads once each. RepairPlans keeps the count
// current. An edit that gives a previously unwritten element a writer makes
// the plan run renamed until it is next rebuilt cold; so can an edit that
// retires an element an earlier iteration reads, which is only possible in a
// plan that already runs renamed.
//
// # The doacross contract, and checking it
//
// Correctness rests on three conventions the compiler cannot enforce:
//
//   - All shared-array accesses inside a body go through Values. A body that
//     writes a captured outer variable races under every parallel executor
//     and is invisible to the inspector.
//   - The declared pattern is truthful: Writes(i) covers every Store and
//     Reads(i) every Load the body performs (over-declaring is safe — it only
//     adds conservative edges). The dynamic doacross executor discovers reads
//     itself, so an under-declared loop often works until a pre-scheduled
//     (wavefront) executor trusts the declaration and races.
//   - Lifetimes are explicit: a Runtime or Solver owns a persistent worker
//     pool, so Close it when done (a GC finalizer is the only fallback); and
//     a driver that mutates a loop's index arrays in place must call
//     RepairPlans with the edited iterations (incremental: only the dirty
//     cone of the cached plan is recomputed) or InvalidatePlans (wholesale
//     eviction) before the next run, or the schedule cache replays a plan
//     built for the old pattern.
//
// Two tools enforce the contract. The static suite in cmd/doavet (run
// directly as `doavet ./...`, or as `go vet -vettool=doavet ./...`) flags
// captured-variable writes in bodies, index-slice mutations missing a
// following RepairPlans/InvalidatePlans, runtimes, solvers and solve services that
// neither get closed nor escape, and discarded Run/Solve errors or nil
// Contexts. The run-time
// sanitizer behind WithAccessCheck(true) shadow-records each iteration's
// actual Values accesses, diffs them against the declaration and aborts the
// run with an *AccessError naming the iteration and element on the first
// mismatch — use it in tests and while bringing up a new loop; when off it
// costs one nil test per accessor.
//
// # Observability
//
// What the inspector built, and what the runtime does with it, is exposed at
// three layers. Runtime.PlanSnapshot deep-copies a loop's cached wavefront
// plan; ExportPlan and EncodePlan serialize it to the versioned JSON plan
// document (PlanDoc, schema PlanSchemaVersion — DecodePlan rejects any other
// schema number rather than guessing, so the format can evolve without
// silently misreading old files), and PlanDoc.DOT renders the DAG as
// Graphviz DOT. Both encoders are byte-deterministic: the same plan always
// yields the same bytes, so exported plans can be diffed and committed as
// golden files. The decoder is self-checking — a document whose recorded
// schedule disagrees with one rebuilt from its own level decomposition is
// rejected, never replayed. cmd/doastat is the command-line face of this
// layer.
//
// WithMetrics(sink) installs the in-process hook. The sink sees one
// RecordRun per completed Run/RunMulti call — after the executor drained,
// with the resolved executor name, wall time and error; calls rejected
// before an executor resolved (argument validation, pre-run cancellation)
// are not counted — one RecordPlan per schedule-cache transition (hit, miss,
// invalidation, in-place repair, or repair fallback, the last also counting
// an invalidation), and one RecordAccessAbort per run aborted by the access
// sanitizer. Sinks must be safe for concurrent use and must not call back
// into the runtime. NewMetricsCollector is the ready-made sink; with no sink
// installed each recording site costs a single nil test. A sink that also
// implements TuningSink additionally receives one RecordTuning per run whose
// measurement was folded into a plan's online-tuning state — the count
// always reconciles with Runtime.TuningSnapshot, whose per-plan view (arm
// observation counts, moving averages, calibrated coefficients) is the
// tuner's third observability surface alongside the Report stamps
// (TunedCosts, Explored, re-stamped predictions).
package doacross
