// Package analysis is a small, dependency-free reimplementation of the
// go/analysis driver pattern, plus the repository's invariant analyzers.
// It exists because the invariants below are load-bearing for correctness
// and cannot be expressed to go vet: they encode contracts between
// packages (clock injection, batch sharing, lock discipline, metric-key
// cardinality) that only hold if every call site cooperates.
//
// Run the suite with
//
//	go run ./cmd/scilint ./...
//
// or `make lint`. CI runs it as a required step and
// internal/analysis.TestTreeIsLintClean enforces it under `go test ./...`
// as well. Analyzer unit tests use internal/analysis/analysistest with
// `// want "rx"` fixtures under each analyzer's testdata directory.
//
// # Enforced invariants
//
// clockcheck — core packages (eventbus, flow, rangesvc, scinet, wire,
// transport, overlay) must route every time source through the injected
// internal/clock.Clock: time.Now, time.Sleep, time.After, time.Tick,
// time.NewTimer, time.NewTicker, time.Since, time.Until and time.AfterFunc
// are banned outside _test.go files. Rationale: the simulation harness and
// the deterministic tests drive these packages on a clock.Manual; one
// stray wall-clock read silently decouples a timeout from the simulated
// timeline (the FleetDispatchStats deadline bug fixed alongside this
// analyzer). cmd/ and sim entrypoints, which own the real clock, are
// exempt.
//
// batchshare — wire.NativeBatch rides the fan-out path by reference: one
// decoded batch is shared by every local subscriber. Writing through
// Events/Credit, mutating an element in place, or appending into the
// Events slice corrupts a neighbour's view (the copy-on-escape /
// copy-before-mutate contract in wire/doc.go). The only exemption, in
// every package, is a batch provably constructed fresh in the current
// function.
//
// guardedby — struct fields carrying a `// guarded by <mu>` comment may
// only be accessed while that mutex is held, checked intra-procedurally:
// Lock/RLock bring the named lock into the held set, Unlock/RUnlock drop
// it (a deferred Unlock keeps it held to function end), branch bodies
// cannot leak lock state outward, `go` closures start with nothing held,
// and *Locked-suffixed methods assume their receiver's guards. Freshly
// constructed, never-escaped locals are exempt. Rationale: the hot
// structs in eventbus, flow, scinet and rangesvc interleave locked and
// lock-free fields in one struct; the annotation makes the discipline
// machine-checked instead of tribal.
//
// gaugekey — keys written into a StatsMap render must be compile-time
// constants or flow through a bounded top-K reducer (a function marked
// `//lint:bounded`, or listed in gaugekey.BoundedHelpers). Rationale:
// StatsMap is the one metric surface and is exported on every stats probe;
// an attacker-influenced or per-entity key (publisher GUIDs, source names)
// makes it grow without bound, which is why the per-source families are
// bounded to a top-K.
//
// # Whole-program analyzers
//
// The three analyzers below run through Analyzer.RunProgram over every
// loaded package at once, propagating per-function summaries across call
// edges (internal/analysis/interproc keys functions by symbol —
// pkgpath.Recv.Name — so identities survive the per-package export-data
// universes). They report only into packages matched by the load pattern.
//
// lockorder — builds the global lock-ordering graph: an edge a → b is
// recorded whenever a Lock/RLock of b happens while a is held, including
// through call chains (each function's summary lists the locks its body
// and callees may take; function literals are excluded from summaries
// because callbacks run on their own stack later, not at the call site).
// Any cycle in the graph is a potential deadlock and is reported with one
// witness site per edge. The discipline is documented in source with
//
//	//lint:lockorder <a> < <b> <reason>
//
// assertions; a lock acquisition that contradicts a declared order is a
// hard error even when no full cycle exists yet, and an assertion naming
// locks that are never observed is flagged as a typo. The repository's
// declared order catalogue:
//
//	flow.Coalescer.sendMu < flow.Coalescer.mu
//	    doFlush extracts under mu while holding the flush serialisation
//	    lock; the reverse direction would deadlock a timer flush racing a
//	    size flush.
//	flow.Coalescer.sendMu < scinet.Fabric.mu
//	    Coalescer send callbacks run under the flush lock and take f.mu to
//	    route; calling Flush/Touch/Stop/Discard while holding f.mu would
//	    invert it. scinet releases f.mu before every flow entry point.
//	scinet.Fabric.mu < scinet.link.mu
//	    a Fabric's aggregate reads over its per-peer links (interest
//	    snapshot, tap demand, digest merges) take one link's lock at a time
//	    under f.mu; link.mu is a leaf that sends nothing, calls no flow
//	    entry point and never takes f.mu, and no code holds two at once.
//	eventbus.Subscription.mu < guid.Table.mu
//	    drops are charged to the bus's drop ledger under a
//	    subscription's lock; the ledger table's install lock is a leaf
//	    that takes nothing.
//
// leakcheck — every `go` statement in the core packages must have a
// lifecycle owner: either a sync.WaitGroup.Add precedes the launch in the
// same body, or the goroutine's body provably parks on a channel
// (receive, range, select) or calls WaitGroup.Done — searched through up
// to three call hops when the body delegates to a named function.
// Rationale: an unowned goroutine outlives its owner's Close, and the
// failure mode is a handler running against freed state (the
// Connector.Close/deliverLoop join fixed alongside this analyzer).
// Dynamic dispatch (interface method launches) cannot be proven and is
// flagged; tie the goroutine to an owner or justify with //lint:allow.
// The runtime half is internal/leak.Check, wired into the heaviest race
// suites: it snapshots goroutines at test start and fails the test if
// goroutines born during it are still alive at the end.
//
// hotpath — a function annotated
//
//	//lint:hotpath
//
// in its doc comment must be allocation-free in steady state: composite
// literals, make/new, closures, go statements, string concatenation,
// string↔[]byte conversions, fmt calls, interface boxing of non-pointer
// values, method values outside call position and appends that may grow a
// foreign slice are all flagged, and calls are followed interprocedurally
// (a call into a function whose summary may allocate is reported with the
// full chain). Exempt idioms: self-append (x = append(x, ...)), buffer
// reuse (x = append(x[:0], ...)) and the append-helper tail form (return
// append(b, ...)). Calls into other annotated functions are trusted.
// Every annotation must be backed by a testing.AllocsPerRun check in its
// package, registered in internal/analysis/hotpath's allocChecks table —
// the static analyzer bounds what the code can do, the runtime check
// proves the //lint:allow escapes were justified, and the registry test
// keeps the two in lockstep.
//
// # Suppressions
//
// A deliberate exception is written as
//
//	//lint:allow <analyzer> <reason>
//
// on the flagged line or the line immediately above. The reason is
// mandatory and must carry more than ten characters of justification — a
// bare or perfunctory allow is itself a diagnostic — and an allow that no
// longer suppresses anything is reported as unused (scoped to the
// analyzers that actually ran, so -only selections do not misfire) so
// suppressions cannot outlive the code they excused. CI publishes the
// finding and suppression counts per analyzer as the lint-stats artifact
// (`make lint-stats`), so the suppression surface is tracked over time.
// The same counts carry the reachability report (interproc.FindUnreached):
// the exported names of internal/ that only the experiments reach, and
// those nothing deployed reaches. `scilint -json` lists them; no gate.
//
// # Writing a new analyzer
//
// Implement an *analysis.Analyzer whose Run inspects Pass.Files with
// Pass.TypesInfo, report through Pass.Reportf, restrict it to the packages
// whose contract it checks via Packages, add it to cmd/scilint and the
// self-test, and give it positive and negative fixtures under
// testdata/<dir> driven by analysistest.Run. An invariant that crosses
// package boundaries implements RunProgram instead: it receives every
// loaded package with a shared interproc call-graph view, joins
// per-function summaries bottom-up, and filters reports with
// Program.InScope.
package analysis
