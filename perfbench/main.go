// Command perfbench is the repository's end-to-end benchmark: it runs one
// named workload against an in-process nestedsgd server on loopback, with
// closed-loop clients each running a fixed, seeded number of transactions,
// checks every run's outputs, and prints the metrics as one JSON line.
//
// Usage:
//
//	perfbench -workload durable-mix -seed 1 -seconds 30 -trace 0
//
// A run repeats fixed-work trials until -seconds have passed (at least
// minTrials). Each trial builds a fresh server, draws its plans from the
// seed before the server exists, warms up inside the set-up phase, forces a
// GC, runs the timed phase, then shuts down and checks the certificate,
// the counters and (for a WAL workload) that recovery returns every acked
// commit. End-to-end metrics are medians over trials (the live heap is a
// mean), or percentiles over the pooled raw samples.
//
// With -trace 1, every other trial is traced: spans are recorded around
// each call into the client layer, kept in memory and written to the
// output directory at the end, and the per-layer metrics are printed
// instead of the end-to-end ones, with the tracing overhead measured
// against the untraced trials of the same run.
//
// The last line of standard output is
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// and the line before it is the run's record: seed, workload parameters,
// sample counts, the raw server counters behind every ratio and the
// durability check's totals. "failed" counts the transactions a client gave
// up on; acked commits that recovery lost are reported in the record, on
// standard error and as the per-layer server.acked_lost.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"
)

// workload is one traffic mix. Every run of a workload does the same
// amount of work per trial.
type workload struct {
	name        string
	backend     string
	wal         bool
	objects     int
	zipfS       float64 // > 1 skews object choice; 0 is uniform
	readRatio   float64
	accesses    int
	childProb   float64
	warmup      int // transactions per client run inside set-up
	txPerClient int // timed transactions per client
}

var workloads = []workload{
	{name: "durable-mix", backend: "moss", wal: true, objects: 64, readRatio: 0.5, accesses: 4, childProb: 0.25, warmup: 100, txPerClient: 500},
	{name: "hot-locks", backend: "moss", objects: 8, zipfS: 1.5, readRatio: 0.5, accesses: 4, childProb: 0.25, warmup: 100, txPerClient: 500},
	{name: "ro-snapshot", backend: "mvto", wal: true, objects: 16, readRatio: 0.95, accesses: 4, childProb: 0.25, warmup: 300, txPerClient: 2000},
}

// minTrials is the least number of trials a run makes, however short
// -seconds is.
const (
	minTrials = 3
	maxTrials = 200
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: durable-mix, hot-locks or ro-snapshot")
		seed    = fs.Int64("seed", 1, "workload seed; the same seed draws the same plans")
		seconds = fs.Int("seconds", 30, "repeat trials until this many seconds have passed")
		trace   = fs.Int("trace", 0, "1: trace every other trial and print per-layer metrics")
		out     = fs.String("out", ".bench_build/perfbench", "directory for WALs, spans, records and a kept failing WAL")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: need -workload durable-mix|hot-locks|ro-snapshot, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	tmp := filepath.Join(*out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	traced := *trace == 1
	tag := fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace)

	rng := rand.New(rand.NewSource(*seed))
	budget := time.Duration(*seconds) * time.Second
	start := time.Now()
	var trials []*trial
	for i := 0; i < maxTrials && (i < minTrials+*trace || time.Since(start) < budget); i++ {
		plans := drawPlans(*w, rng)
		keep := filepath.Join(*out, "failed-wal", fmt.Sprintf("%s-seed%d-trial%d", w.name, *seed, i))
		t, err := runTrial(*w, plans, traced && i%2 == 1, tmp, keep)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: trial %d: %v\n", i, err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: trial %d: traced=%v setup %.4fs, %d commits in %.3fs (%.1f tx/s), shutdown %.3fs\n",
			i, t.traced, t.setup.Seconds(), t.timedCommits(), t.timed.Seconds(),
			float64(t.timedCommits())/t.timed.Seconds(), t.shutdown.Seconds())
		for _, e := range t.gateErrs {
			fmt.Fprintf(stderr, "perfbench: trial %d: FAIL %s\n", i, e)
		}
		if t.dur != nil && !t.dur.ok() {
			fmt.Fprintf(stderr, "perfbench: trial %d: DURABILITY %s\n", i, t.dur.summary())
			if len(t.dur.Lost) > 0 {
				fmt.Fprintf(stderr, "perfbench: trial %d: acked commits missing after recovery: %s\n", i, abbreviate(t.dur.Lost, 20))
			}
		}
		if t.dur != nil && t.dur.KeptWAL != "" {
			fmt.Fprintf(stderr, "perfbench: trial %d: kept the failing WAL at %s\n", i, t.dur.KeptWAL)
		}
		trials = append(trials, t)
	}

	res := summarize(*w, *seed, *seconds, traced, trials)
	if d := res.record.Durability; d.Checked > 0 {
		fmt.Fprintf(stderr, "perfbench: durability: %d of %d trials failed the recovery check, %d of %d acked commits lost\n",
			d.FailedTrials, d.Checked, d.Lost, d.Acked)
	}
	if traced {
		var recs [][]*recorder
		for _, t := range trials {
			if t.traced {
				recs = append(recs, append([]*recorder{t.setupSpan}, recorders(t)...))
			}
		}
		path := filepath.Join(*out, "spans", tag+".jsonl")
		if err := writeSpans(path, recs); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		res.record.Spans = path
	}
	rec, err := json.Marshal(res.record)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	recPath := filepath.Join(*out, "records", tag+".json")
	if err := writeFile(recPath, rec); err != nil {
		fmt.Fprintln(stderr, "perfbench: writing record:", err)
		return 1
	}
	line, err := json.Marshal(res.result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", rec, line)
	return 0
}

func recorders(t *trial) []*recorder {
	out := make([]*recorder, len(t.runs))
	for i, r := range t.runs {
		out[i] = r.rec
	}
	return out
}

func abbreviate(names []string, n int) string {
	if len(names) <= n {
		return fmt.Sprint(names)
	}
	return fmt.Sprintf("%v … and %d more", names[:n], len(names)-n)
}

// writeFile writes data to path, creating its directory.
func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
