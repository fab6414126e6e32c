package server

import (
	"testing"

	"nestedsg/internal/event"
	"nestedsg/internal/tname"
)

// BenchmarkLogAppend measures the append path with a WAL attached — the
// hot path of every request the server logs, under maximal cross-goroutine
// contention on the log mutex. The pooled wal-encode buffer and the
// writer's scratch buffer must keep it steady-state allocation-free apart
// from the amortized growth of the log itself and of the in-memory disk
// (the hotalloc analyzer gates the escape analysis; this benchmark gates
// the observed allocs/op and B/op).
func BenchmarkLogAppend(b *testing.B) {
	w, err := newWalWriter(NewMemDisk(), 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	l := newEventLog()
	l.wal = w
	evs := []event.Event{
		event.NewEvent(event.RequestCreate, tname.TxID(2)),
		event.NewEvent(event.Create, tname.TxID(2)),
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			l.append(evs...)
		}
	})
	b.StopTimer()
	l.close()
	if got, want := l.len(), 2*b.N; got != want {
		b.Fatalf("log holds %d events, want %d", got, want)
	}
}

// BenchmarkServerGroupCommit measures the group committer under maximal
// contention: every iteration is one committer's sync request, and the
// parallel committers coalesce onto shared fsync generations. The ticket
// protocol itself must not allocate.
func BenchmarkServerGroupCommit(b *testing.B) {
	w, err := newWalWriter(NewMemDisk(), 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	g := newGroupCommitter(w, newMetrics())
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := g.sync(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
