package server

import (
	"testing"

	"nestedsg/internal/event"
	"nestedsg/internal/tname"
)

// TestEventLogChunkBoundaries: appends that straddle chunk boundaries must
// read back in order, from the start and from any suffix.
func TestEventLogChunkBoundaries(t *testing.T) {
	l := newEventLog()
	var want event.Behavior
	for i := 0; len(want) < 3*logChunk; i++ {
		evs := []event.Event{
			event.NewEvent(event.RequestCreate, tname.TxID(i)),
			event.NewEvent(event.Create, tname.TxID(i)),
			event.NewEvent(event.Commit, tname.TxID(i)),
		}
		if base := l.append(evs...); base != len(want) {
			t.Fatalf("append %d returned index %d, want %d", i, base, len(want))
		}
		want = append(want, evs...)
	}
	got := l.snapshot()
	if len(got) != len(want) {
		t.Fatalf("snapshot holds %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, got[i], want[i])
		}
	}
	for _, from := range []int{0, logChunk - 1, logChunk, 2*logChunk + 1, len(want) - 1} {
		suffix, ok := l.waitBeyond(from, nil)
		if !ok || len(suffix) != len(want)-from || suffix[0] != want[from] {
			t.Fatalf("waitBeyond(%d) = %d events (ok=%v), want the %d-event suffix", from, len(suffix), ok, len(want)-from)
		}
	}
	l.close()
	if _, ok := l.waitBeyond(len(want), nil); ok {
		t.Fatal("waitBeyond past the end of a closed log reported more events")
	}
}
