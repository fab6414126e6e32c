package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"nestedsg/internal/client"
	"nestedsg/internal/core"
	"nestedsg/internal/event"
	"nestedsg/internal/server"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
)

const (
	// clients is the number of closed-loop client connections, one
	// goroutine each; it matches the 2-CPU machine the bounds were set on.
	clients = 2
	// maxAttempts is generous so that no transaction gives up under lock
	// contention: a transaction RunTx gives up on counts as failed.
	maxAttempts = 64
	// pingEvery is how often (in timed transactions) a traced client
	// round-trips a PING on its own connection.
	pingEvery = 16
	// lagSampleEvery is the interval at which a traced trial samples the
	// certifier lag from MetricsSnapshot.
	lagSampleEvery = time.Millisecond
)

// access is one planned access; child runs it inside its own
// subtransaction.
type access struct {
	obj   string
	op    spec.OpKind
	arg   spec.Value
	child bool
}

// txPlan is one planned top-level transaction. A transaction whose every
// operation is read-class runs through RunReadTx.
type txPlan struct {
	ops      []access
	readOnly bool
}

// drawPlans draws one trial's transactions for every client, warm-up
// first, from rng. It runs before the trial's server exists, so the server
// only ever sees the generated requests.
func drawPlans(w workload, rng *rand.Rand) [][]txPlan {
	labels := objectLabels(w.objects)
	plans := make([][]txPlan, clients)
	for c := range plans {
		crng := rand.New(rand.NewSource(rng.Int63()))
		var zipf *rand.Zipf
		if w.zipfS > 1 {
			zipf = rand.NewZipf(crng, w.zipfS, 1, uint64(w.objects-1))
		}
		plans[c] = make([]txPlan, w.warmup+w.txPerClient)
		for i := range plans[c] {
			p := txPlan{ops: make([]access, w.accesses), readOnly: true}
			for a := range p.ops {
				var obj int
				if zipf != nil {
					obj = int(zipf.Uint64())
				} else {
					obj = crng.Intn(w.objects)
				}
				op := access{obj: labels[obj], op: spec.OpRead, arg: spec.Nil}
				if crng.Float64() >= w.readRatio {
					op.op, op.arg = spec.OpWrite, spec.Int(int64(crng.Intn(100)))
					p.readOnly = false
				}
				op.child = crng.Float64() < w.childProb
				p.ops[a] = op
			}
			plans[c][i] = p
		}
	}
	return plans
}

// clientRun is what one client goroutine did in a trial.
type clientRun struct {
	planned, committed, failed int
	roCommitted                int // read-only commits, warm-up included
	// update and ro hold the RunTx / RunReadTx latencies of the timed
	// phase, retries and backoff included.
	update, ro   []time.Duration
	timedCommits int
	rec          *recorder
	err          error
}

// trial is one fixed-work run: a fresh server, the same planned work, and
// every check.
type trial struct {
	w        workload
	traced   bool
	setup    time.Duration
	timed    time.Duration
	shutdown time.Duration
	heap     uint64
	runs     []*clientRun
	// before and after are MetricsSnapshot readings at the start and end of
	// the timed phase.
	before, after map[string]float64
	walBytes      int64
	lags          []float64 // certifier lag samples, in events
	setupSpan     *recorder
	check         time.Duration
	appendFirst   float64 // ns per event, first quarter of the log
	appendLast    float64 // ns per event, last quarter of the log
	dur           *durability
	gateErrs      []string
}

func (t *trial) timedCommits() int {
	n := 0
	for _, r := range t.runs {
		n += r.timedCommits
	}
	return n
}

func (t *trial) delta(key string) float64 { return t.after[key] - t.before[key] }

// runTrial runs one trial of w in dir. An error means the trial could not
// be run at all; a trial whose correctness gate fails records why in
// gateErrs, and the durability check's outcome is kept in dur.
func runTrial(w workload, plans [][]txPlan, traced bool, dir, keepDir string) (*trial, error) {
	t := &trial{w: w, traced: traced}
	opts := server.Options{Backend: w.backend, Objects: objectLabels(w.objects)}
	var walDir string
	if w.wal {
		d, err := os.MkdirTemp(dir, "wal-")
		if err != nil {
			return nil, err
		}
		walDir = d
		defer os.RemoveAll(walDir)
	}

	base := time.Now()
	if traced {
		t.setupSpan = newRecorder(base)
	}
	setupSpan := t.setupSpan.begin(spanSetup, 0, -1)
	srv, err := startServer(opts, walDir)
	if err != nil {
		return nil, err
	}

	var ready, done sync.WaitGroup
	start := make(chan struct{})
	t.runs = make([]*clientRun, clients)
	for c := range t.runs {
		r := &clientRun{planned: len(plans[c])}
		if traced {
			r.rec = newRecorder(base)
		}
		t.runs[c] = r
		ready.Add(1)
		done.Add(1)
		go func(c int) {
			defer done.Done()
			r.drive(srv.Addr().String(), plans[c], w.warmup, uint64(c)<<32, &ready, start)
		}(c)
	}
	ready.Wait()
	t.setup = time.Since(base)
	t.setupSpan.end(setupSpan)

	runtime.GC()
	t.before = snapshot(srv)
	stopLag := t.sampleLag(srv)
	t0 := time.Now()
	close(start)
	done.Wait()
	t.timed = time.Since(t0)
	stopLag()
	t.after = snapshot(srv)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.heap = ms.HeapAlloc

	t1 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.gateErrs = append(t.gateErrs, fmt.Sprintf("shutdown: %v", err))
	}
	final := srv.Final()
	t.shutdown = time.Since(t1)

	log := srv.Log()
	t.gate(srv, final, log)
	if traced {
		t.replayCore(srv.Tree(), log)
	}
	if w.wal {
		if t.walBytes, err = dirBytes(walDir); err != nil {
			return nil, err
		}
		t.dur = checkDurability(opts, walDir, keepDir, srv.Tree(), log)
	}
	return t, nil
}

func objectLabels(n int) []string {
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("x%d", i)
	}
	return labels
}

// startServer brings up a listening server: Recover over an empty WAL
// directory for a durable workload, Listen otherwise.
func startServer(opts server.Options, walDir string) (*server.Server, error) {
	const addr = "127.0.0.1:0"
	if walDir == "" {
		return server.Listen(addr, opts)
	}
	disk, err := server.NewDirDisk(walDir)
	if err != nil {
		return nil, err
	}
	opts.WAL = disk
	srv, _, err := server.Recover(opts)
	if err != nil {
		return nil, err
	}
	if err := srv.Start(addr); err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	return srv, nil
}

// drive runs one client: dial, warm up on the first warmup plans, report
// ready, wait for start, then run the rest as the timed phase.
func (r *clientRun) drive(addr string, plans []txPlan, warmup int, txBase uint64, ready *sync.WaitGroup, start <-chan struct{}) {
	c, err := client.Dial(addr)
	if err != nil {
		r.err = err
		ready.Done()
		return
	}
	defer c.Close()
	// A transaction RunTx gave up on (ErrTxAborted) is counted as failed
	// and the client moves on; any other error ends the client.
	for _, p := range plans[:warmup] {
		if _, err := r.runTx(c, p, 0, nil); err != nil && !errors.Is(err, client.ErrTxAborted) {
			r.err = err
			break
		}
	}
	ready.Done()
	<-start
	if r.err != nil {
		return
	}
	for i, p := range plans[warmup:] {
		d, err := r.runTx(c, p, txBase|uint64(i), r.rec)
		if err != nil {
			if !errors.Is(err, client.ErrTxAborted) {
				r.err = err
				return
			}
			continue
		}
		r.timedCommits++
		if p.readOnly {
			r.ro = append(r.ro, d)
		} else {
			r.update = append(r.update, d)
		}
		if r.rec != nil && i%pingEvery == 0 {
			s := r.rec.begin(spanPing, txBase|uint64(i), -1)
			err := c.Ping()
			r.rec.end(s)
			if err != nil {
				r.err = err
				return
			}
		}
	}
}

// runTx runs one planned transaction and returns its latency. It counts
// the outcome into r.committed or r.failed.
func (r *clientRun) runTx(c *client.Conn, p txPlan, id uint64, rec *recorder) (time.Duration, error) {
	run := c.RunTx
	if p.readOnly {
		run = c.RunReadTx
	}
	txSpan := rec.begin(spanTx, id, -1)
	var bodyEnd int64
	body := func(tx *client.Tx) error {
		a := rec.begin(spanAttempt, id, txSpan)
		err := runBody(tx, p, rec, id, a)
		rec.end(a)
		if rec != nil && err == nil {
			bodyEnd = rec.spans[a].end
		}
		return err
	}
	t0 := time.Now()
	err := run(maxAttempts, body)
	d := time.Since(t0)
	rec.end(txSpan)
	if err != nil {
		r.failed++
		return d, err
	}
	r.committed++
	if p.readOnly {
		r.roCommitted++
	}
	if rec != nil {
		rec.add(spanCommit, id, txSpan, bodyEnd, rec.spans[txSpan].end)
	}
	return d, nil
}

func runBody(tx *client.Tx, p txPlan, rec *recorder, id uint64, parent int32) error {
	for _, a := range p.ops {
		if !a.child {
			if err := runAccess(tx, a, rec, id, parent); err != nil {
				return err
			}
			continue
		}
		ch := rec.begin(spanChild, id, parent)
		err := runChild(tx, a, rec, id, ch)
		rec.end(ch)
		if err != nil {
			return err
		}
	}
	return nil
}

func runChild(tx *client.Tx, a access, rec *recorder, id uint64, parent int32) error {
	if _, err := tx.Child(); err != nil {
		return err
	}
	if err := runAccess(tx, a, rec, id, parent); err != nil {
		return err
	}
	_, err := tx.Commit()
	return err
}

func runAccess(tx *client.Tx, a access, rec *recorder, id uint64, parent int32) error {
	s := rec.begin(spanAccess, id, parent)
	_, err := tx.Access(a.obj, a.op, a.arg)
	rec.end(s)
	return err
}

// sampleLag samples the certifier lag (log events not yet certified) at a
// fixed interval on a traced trial; the returned function stops the
// sampler and waits for it.
func (t *trial) sampleLag(srv *server.Server) func() {
	if !t.traced {
		return func() {}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(lagSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				m := snapshot(srv)
				t.lags = append(t.lags, m["log_events"]-m["certified"])
			}
		}
	}()
	return func() {
		close(stop)
		wg.Wait()
	}
}

// snapshot reads the server's numeric metrics.
func snapshot(srv *server.Server) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range srv.MetricsSnapshot() {
		switch x := v.(type) {
		case int64:
			out[k] = float64(x)
		case int:
			out[k] = float64(x)
		case float64:
			out[k] = x
		}
	}
	return out
}

// gate applies the per-trial correctness checks: the batch certificate
// holds and matches the online one, nothing was refused as uncertified or
// for a WAL failure, every planned transaction either committed or
// failed, and the log's top-level commits are exactly the acked ones.
func (t *trial) gate(srv *server.Server, final *server.Final, log event.Behavior) {
	fail := func(format string, args ...any) { t.gateErrs = append(t.gateErrs, fmt.Sprintf(format, args...)) }
	if !final.Batch.OK {
		fail("batch certificate failed: %s", final.Batch.Summary(srv.Tree()))
	}
	if !final.Match {
		fail("online snapshot does not match the batch SG")
	}
	if n := t.after["uncertified"]; n != 0 {
		fail("%v uncertified commits", n)
	}
	if n := t.after["wal_failures"]; n != 0 {
		fail("%v wal failures", n)
	}
	// mvto serves read-only transactions from its snapshot store, outside
	// the log; on every other backend they are logged like any other.
	acked := 0
	for c, r := range t.runs {
		if t.w.backend == "mvto" {
			acked -= r.roCommitted
		}
		if r.err != nil {
			fail("client %d: %v", c, r.err)
		}
		if r.planned != r.committed+r.failed {
			fail("client %d: planned %d != committed %d + failed %d", c, r.planned, r.committed, r.failed)
		}
		acked += r.committed
	}
	if tops := len(topCommits(srv.Tree(), log)); tops != acked {
		fail("log holds %d top-level commits, clients were acked %d", tops, acked)
	}
}

// topCommits returns the names of the top-level transactions committed in
// b, in log order.
func topCommits(tr *tname.Tree, b event.Behavior) []string {
	var out []string
	for _, e := range b {
		if e.Kind == event.Commit && e.Tx != tname.Root && tr.Parent(e.Tx) == tname.Root {
			out = append(out, tr.Name(e.Tx))
		}
	}
	return out
}

// replayCore times the certifier core on the trial's final log: a batch
// core.Check, and a replay through core.Incremental.Append timed over the
// first and last quarter of the events.
func (t *trial) replayCore(tr *tname.Tree, log event.Behavior) {
	t0 := time.Now()
	core.Check(tr, log)
	t.check = time.Since(t0)

	inc := core.NewIncremental(tr)
	q := len(log) / 4
	if q == 0 {
		return
	}
	var first, last time.Duration
	for i, e := range log {
		s := time.Now()
		inc.Append(e)
		d := time.Since(s)
		if i < q {
			first += d
		} else if i >= len(log)-q {
			last += d
		}
	}
	t.appendFirst = float64(first) / float64(q)
	t.appendLast = float64(last) / float64(q)
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
