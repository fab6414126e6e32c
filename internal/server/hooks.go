package server

import "time"

// Hooks intercepts the server's sources of timing nondeterminism so a test
// harness (internal/sim) can replace real time and real sleeps with a
// seeded virtual scheduler. The default implementation is real time; the
// hooks carry no semantics beyond scheduling — a server run under any
// Hooks produces a generic behavior by the same emission-discipline
// argument as the real-time server.
type Hooks interface {
	// Now replaces time.Now for lock-wait deadlines.
	Now() time.Time
	// LockWait replaces the blocked-access poll sleep: the session sess
	// parks for up to d before re-polling. The harness wakes it by
	// returning.
	LockWait(sess int64, d time.Duration)
	// CertApply is called before the certifier applies log event index to
	// the incremental graph; a harness can block here to simulate a
	// stalled certifier. It must not be called with server locks held.
	CertApply(index int)
	// CertBatch is called after CertApply, before the certifier applies a
	// run of up to max events starting at log event index; it returns how
	// many the certifier may apply under one tree read-lock acquisition
	// (the loop clamps the answer to [1, max]). A harness returns the
	// distance to its next stall point so batching never silently crosses
	// an installed stall; the real implementation returns max. Unlike
	// CertApply it must not block.
	CertBatch(index, max int) int
	// PartApply is called before certifier partition part applies log
	// event index to its local graph (only with Options.CertPartitions
	// > 1); a harness can block here to freeze one partition. It must
	// not be called with server locks held. The partition's edge batch —
	// bound included — is delivered to the composer before any blocking,
	// so the watermark stalls exactly at index.
	PartApply(part, index int)
	// PartBatch is the partitioned analogue of CertBatch: it returns how
	// many events (clamped to [1, max]) partition part may apply in one
	// locked run starting at index. A harness returns the distance to
	// its next stall point; the real implementation returns max. It must
	// not block.
	PartBatch(part, index, max int) int
	// CommitWait is called after a COMMIT's events are logged, just
	// before the session blocks on the certification watermark for log
	// sequence seq. Notification only; it must not block on the harness.
	CommitWait(sess int64, seq int)
	// SessionDone is called when a session's serve loop has fully
	// finished: all of its events (including any disconnect abort) are in
	// the log and no further activity will come from it.
	SessionDone(sess int64)
	// DrainWait replaces the real-time waits of the server's maintenance
	// loops — Shutdown's drain poll and the accept loop's retry backoff —
	// so a seeded harness can advance a virtual clock instead of
	// sleeping.
	DrainWait(d time.Duration)
}

// realHooks is the production implementation: real clock, real sleeps, no
// interception.
type realHooks struct{}

func (realHooks) Now() time.Time                    { return time.Now() }
func (realHooks) LockWait(_ int64, d time.Duration) { time.Sleep(d) }
func (realHooks) CertApply(int)                     {}
func (realHooks) CertBatch(_, max int) int          { return max }
func (realHooks) PartApply(int, int)                {}
func (realHooks) PartBatch(_, _, max int) int       { return max }
func (realHooks) CommitWait(int64, int)             {}
func (realHooks) SessionDone(int64)                 {}
func (realHooks) DrainWait(d time.Duration)         { time.Sleep(d) }
