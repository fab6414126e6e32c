package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanKind names the benchmark-side boundaries a traced run records. Every
// span is taken from the benchmark's own code around a call into one layer's
// public API; nothing inside the server is instrumented.
type spanKind uint8

const (
	spanSetup   spanKind = iota // server bring-up, client dials and warm-up
	spanTx                      // one Conn.RunTx / Conn.RunReadTx call
	spanAttempt                 // one invocation of the transaction body
	spanChild                   // Tx.Child … Tx.Commit of one subtransaction
	spanAccess                  // one Tx.Access round trip
	spanCommit                  // successful body return → RunTx return
	spanPing                    // one Conn.Ping round trip
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"setup", "tx", "attempt", "child", "access", "commit", "ping"}

// span is one recorded interval. Spans of one transaction share tx; parent
// indexes the causing span in the same recorder (-1 for none). Times are
// nanoseconds since the recorder's base.
type span struct {
	tx         uint64
	parent     int32
	kind       spanKind
	start, end int64
}

// recorder keeps one goroutine's spans in memory. A nil *recorder records
// nothing, so the untraced path runs the same code.
type recorder struct {
	base  time.Time
	spans []span
}

func newRecorder(base time.Time) *recorder { return &recorder{base: base} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// begin opens a span and returns its index, or -1 on a nil recorder.
func (r *recorder) begin(kind spanKind, tx uint64, parent int32) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{tx: tx, parent: parent, kind: kind, start: r.now()})
	return int32(len(r.spans) - 1)
}

// end closes span i.
func (r *recorder) end(i int32) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].end = r.now()
}

// add records a span whose interval is already known.
func (r *recorder) add(kind spanKind, tx uint64, parent int32, start, end int64) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{tx: tx, parent: parent, kind: kind, start: start, end: end})
	return int32(len(r.spans) - 1)
}

// durations returns the durations of every span of kind.
func (r *recorder) durations(kind spanKind) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.kind == kind {
			out = append(out, time.Duration(s.end-s.start))
		}
	}
	return out
}

// selfTimes adds each span's self time — its duration minus the time its
// direct children cover — into self, indexed by kind. A goroutine's spans
// nest without overlapping siblings, so the children's durations sum.
func (r *recorder) selfTimes(self *[numSpanKinds]time.Duration) {
	covered := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	for i, s := range r.spans {
		self[s.kind] += time.Duration(s.end - s.start - covered[i])
	}
}

// writeSpans writes every recorder's spans as JSON lines to path. trials
// holds one list of recorders per traced trial: the set-up recorder first,
// then one per client.
func writeSpans(path string, trials [][]*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for t, recs := range trials {
		for c, r := range recs {
			for _, s := range r.spans {
				fmt.Fprintf(w, `{"trial":%d,"recorder":%d,"tx":%d,"span":%q,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n",
					t, c, s.tx, spanNames[s.kind], s.parent, s.start, s.end)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
