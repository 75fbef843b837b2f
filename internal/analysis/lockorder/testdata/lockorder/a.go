// Package lockorder fixtures: inversions direct and through calls,
// documented-order violations, defer-in-loop self-deadlock, goroutine
// boundary resets, embedded mutexes, blessed edges, assertion hygiene.
package lockorder

import "sync"

// A and B carry the documented order: A before B.
//
//lint:lockorder lockorder.A.mu < lockorder.B.mu registry feeds the index, so its lock is outermost
type A struct{ mu sync.Mutex }

// B is the inner lock of the documented pair.
type B struct{ mu sync.Mutex }

var a A
var b B

// ab follows the documented order: clean.
func ab() {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

// ba inverts it: hard error against the declared assertion.
func ba() {
	b.mu.Lock()
	a.mu.Lock() // want `violates the documented order "lockorder.A.mu" < "lockorder.B.mu"`
	a.mu.Unlock()
	b.mu.Unlock()
}

// C and D invert through call edges, with no declared order: both
// directions report as a cycle.
type C struct{ mu sync.Mutex }

// D is the partner lock of the undocumented cycle.
type D struct{ mu sync.Mutex }

var cv C
var dv D

func lockD() {
	dv.mu.Lock()
	dv.mu.Unlock()
}

func lockC() {
	cv.mu.Lock()
	cv.mu.Unlock()
}

func cThenD() {
	cv.mu.Lock()
	lockD() // want `lockorder.D.mu acquired via call to sci/internal/analysis/lockorder/testdata/lockorder.lockD while holding lockorder.C.mu`
	cv.mu.Unlock()
}

func dThenC() {
	dv.mu.Lock()
	lockC() // want `lockorder.C.mu acquired via call to sci/internal/analysis/lockorder/testdata/lockorder.lockC while holding lockorder.D.mu`
	dv.mu.Unlock()
}

// E: defer-in-loop keeps iteration N's lock held into iteration N+1 — the
// second acquisition self-deadlocks.
type E struct{ mu sync.Mutex }

var ev E

func deferInLoop(n int) {
	for i := 0; i < n; i++ {
		ev.mu.Lock() // want `already held`
		defer ev.mu.Unlock()
	}
}

// E2: the same shape with an in-loop unlock is clean.
type E2 struct{ mu sync.Mutex }

var ev2 E2

func unlockInLoop(n int) {
	for i := 0; i < n; i++ {
		ev2.mu.Lock()
		ev2.mu.Unlock()
	}
}

// C2: recursing while holding the lock reacquires it on the next frame.
type C2 struct{ mu sync.Mutex }

var cv2 C2

func recurHolding(n int) {
	if n == 0 {
		return
	}
	cv2.mu.Lock()
	recurHolding(n - 1) // want `lockorder.C2.mu acquired via call to sci/internal/analysis/lockorder/testdata/lockorder.recurHolding while holding lockorder.C2.mu`
	cv2.mu.Unlock()
}

// recurReleased recurses after releasing: clean.
func recurReleased(n int) {
	if n == 0 {
		return
	}
	cv2.mu.Lock()
	cv2.mu.Unlock()
	recurReleased(n - 1)
}

// F/G: an inversion whose minority direction is blessed by a suppression —
// the edge is removed before cycle detection, so the majority direction
// stays clean too.
type F struct{ mu sync.Mutex }

// G pairs with F for the blessed-edge case.
type G struct{ mu sync.Mutex }

var fv F
var gv G

func fg() {
	fv.mu.Lock()
	gv.mu.Lock()
	gv.mu.Unlock()
	fv.mu.Unlock()
}

func gf() {
	gv.mu.Lock()
	//lint:allow lockorder fixture: instances are disjoint by construction here
	fv.mu.Lock()
	fv.mu.Unlock()
	gv.mu.Unlock()
}

// goResets: a goroutine body starts with an empty held set — launching
// while holding A and locking B inside is not an A→B…B→A inversion source.
func goResets() {
	b.mu.Lock()
	go func() {
		a.mu.Lock() // clean: new goroutine holds nothing
		a.mu.Unlock()
	}()
	b.mu.Unlock()
}

// Emb embeds its mutex; the lock key is the embedded field.
type Emb struct{ sync.Mutex }

var emb Emb

func embThenA() {
	emb.Lock()
	a.mu.Lock() // clean: Emb.Mutex → A.mu is acyclic
	a.mu.Unlock()
	emb.Unlock()
}

// Assertion hygiene: unknown keys and malformed directives are findings.
//
//lint:lockorder lockorder.Zzz.mu < lockorder.Yyy.mu stale catalogue entry // want `lockorder assertion names locks never acquired`
//lint:lockorder broken directive // want `malformed assertion`
func hygieneAnchor() {}
