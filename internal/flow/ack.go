package flow

import (
	"sync"
	"time"

	"sci/internal/clock"
)

// AckConfig parameterises an AckCoalescer. Clock, Window, Figure and Send
// are required.
type AckConfig struct {
	// Clock schedules the deferred-report timers (injected for tests).
	Clock clock.Clock
	// Window is the minimum spacing between reports to one peer — urgent
	// (figure-moving) reports included. The figure is cumulative, so one
	// report per window carries everything the suppressed ones would have.
	Window time.Duration
	// IdleWindow is the spacing of no-news reports (defaults to Window; it
	// must be at least Window). Receivers whose reports cannot carry a
	// meaningful queue depth set it well above the sender's deepest
	// throttled flush cycle: an all-clear decays the sender's penalty, so
	// answering a relayed burst with a flood of "nothing new" frames would
	// wind the throttle down between the bursts still causing congestion.
	IdleWindow time.Duration
	// Figure returns the current cumulative credit figure for this peer
	// (attributed drops, plus downstream congestion where relevant): the
	// urgency signal. Called with the coalescer's lock held; it may take
	// its owner's locks but must never call back into the coalescer.
	Figure func() uint64
	// Send ships one standalone report covering the given number of
	// ingested frames and reports success. Called outside the coalescer's
	// lock; the callback reads the live figure itself, so a report is
	// never staler than its send instant. On failure the coalescer
	// re-notes the claimed report, so the window timer retries instead of
	// silently losing it.
	Send func(events int) bool
}

// AckCoalescer coalesces the receive-side flow-credit reports owed to one
// peer — the one state machine behind the Range Service's wire acks (one
// path per remote endpoint, shared by host and connector) and the SCINET
// fabric's overlay acks (per peer link):
//
//   - the first report to a peer leaves immediately (the leading edge
//     establishes the sender's baseline);
//   - a report whose figure moved is urgent but still rate-limited to one
//     per Window — under a sustained drop storm the reverse path carries
//     one cumulative report per window, not one frame per ingested
//     message;
//   - a no-news report waits IdleWindow (timer fallback, so an idle
//     reverse path still acks);
//   - a pending report may be claimed for piggybacking on reverse-direction
//     traffic (Take), suppressing the standalone frame entirely.
//
// Construct with NewAckCoalescer; safe for concurrent use.
type AckCoalescer struct {
	cfg AckConfig

	mu         sync.Mutex
	pending    bool
	events     int
	timer      clock.Timer
	deadline   time.Time
	last       time.Time // when the last report left (either carrier)
	lastFigure uint64
	stopped    bool
}

// NewAckCoalescer builds an AckCoalescer. IdleWindow below Window is
// raised to Window.
func NewAckCoalescer(cfg AckConfig) *AckCoalescer {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real()
	}
	if cfg.IdleWindow < cfg.Window {
		cfg.IdleWindow = cfg.Window
	}
	return &AckCoalescer{cfg: cfg}
}

// Note records that events more frames were ingested from the peer and a
// report is now owed, shipping or deferring it per the contract above.
func (a *AckCoalescer) Note(events int) {
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		return
	}
	a.pending = true
	a.events += events
	fig := a.cfg.Figure()
	now := a.cfg.Clock.Now()
	var due time.Duration
	switch {
	case a.last.IsZero():
		due = 0
	case fig != a.lastFigure:
		due = a.cfg.Window - now.Sub(a.last)
	default:
		due = a.cfg.IdleWindow - now.Sub(a.last)
	}
	if due <= 0 {
		a.mu.Unlock()
		a.Flush()
		return
	}
	a.armLocked(now, due)
	a.mu.Unlock()
}

// armLocked schedules a flush after due, shortening an already-armed timer
// whose deadline is later (an urgent note must not wait out an idle
// deferral). Callers hold a.mu.
func (a *AckCoalescer) armLocked(now time.Time, due time.Duration) {
	target := now.Add(due)
	if a.timer != nil {
		if !target.Before(a.deadline) {
			return
		}
		a.timer.Stop()
	}
	a.deadline = target
	a.timer = a.cfg.Clock.AfterFunc(due, a.Flush)
}

// Flush ships the pending report as a standalone frame (the timer and
// urgent paths). A no-op when nothing is pending; a failed send re-notes
// the report for a deferred retry (takeLocked just refreshed `last`, so
// the re-note lands on the window timer rather than looping).
func (a *AckCoalescer) Flush() {
	a.mu.Lock()
	events, ok := a.takeLocked()
	a.mu.Unlock()
	if ok && !a.cfg.Send(events) {
		a.Note(events)
	}
}

// Take claims the pending report for carriage on reverse-direction traffic,
// suppressing its standalone frame. It returns the frame count the report
// covers; ok is false when nothing is pending.
func (a *AckCoalescer) Take() (events int, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.takeLocked()
}

// takeLocked resets the coalescing state for a report that is about to
// leave. Callers hold a.mu.
func (a *AckCoalescer) takeLocked() (int, bool) {
	if !a.pending || a.stopped {
		return 0, false
	}
	events := a.events
	a.events = 0
	a.pending = false
	a.last = a.cfg.Clock.Now()
	a.lastFigure = a.cfg.Figure()
	if a.timer != nil {
		a.timer.Stop()
		a.timer = nil
	}
	return events, true
}

// Stop disarms the timer and refuses further reports (peer departed or
// owner closing). Do not call it while holding a lock the Figure callback
// takes.
func (a *AckCoalescer) Stop() {
	a.mu.Lock()
	a.stopped = true
	a.pending = false
	if a.timer != nil {
		a.timer.Stop()
		a.timer = nil
	}
	a.mu.Unlock()
}
