package main

import (
	"time"
)

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is everything behind a run's metrics: the inputs, the sample
// counts, and the raw counters of every trial.
type record struct {
	Workload workloadRecord     `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  int                `json:"seconds"`
	Trace    bool               `json:"trace"`
	Samples  map[string]int     `json:"samples"`
	Inexact  []string           `json:"inexact_percentiles,omitempty"`
	EndToEnd map[string]float64 `json:"end_to_end_untraced"`
	Trials   []trialRecord      `json:"trials"`
	// Durability is zero on a workload without a WAL.
	Durability durabilityTotals `json:"durability"`
	Spans      string           `json:"spans,omitempty"`
}

type workloadRecord struct {
	Name        string  `json:"name"`
	Backend     string  `json:"backend"`
	WAL         bool    `json:"wal"`
	Clients     int     `json:"clients"`
	Objects     int     `json:"objects"`
	ZipfS       float64 `json:"zipf_s"`
	ReadRatio   float64 `json:"read_ratio"`
	Accesses    int     `json:"accesses_per_tx"`
	ChildProb   float64 `json:"child_prob"`
	Warmup      int     `json:"warmup_tx_per_client"`
	TxPerClient int     `json:"timed_tx_per_client"`
	MaxAttempts int     `json:"max_attempts"`
}

type trialRecord struct {
	Traced       bool               `json:"traced"`
	SetupS       float64            `json:"setup_s"`
	TimedS       float64            `json:"timed_s"`
	TimedCommits int                `json:"timed_commits"`
	Planned      int                `json:"planned"`
	Committed    int                `json:"committed"`
	Failed       int                `json:"failed"`
	UpdateN      int                `json:"update_samples"`
	RON          int                `json:"ro_samples"`
	ShutdownS    float64            `json:"shutdown_s"`
	HeapMB       float64            `json:"live_heap_mb"`
	WALBytes     int64              `json:"wal_bytes"`
	Delta        map[string]float64 `json:"counters_timed_delta"`
	End          map[string]float64 `json:"counters_end"`
	Durability   *durability        `json:"durability,omitempty"`
	Gate         []string           `json:"gate_errors,omitempty"`
}

// recordedCounters are the server counters behind the per-layer ratios.
var recordedCounters = []string{
	"begins", "top_commits", "accesses", "blocked_polls", "lock_timeouts",
	"deadlock_aborts", "restart_aborts", "drain_aborts", "retries", "uncertified",
	"wal_failures", "log_events", "certified", "wal_sync_requests", "wal_syncs",
	"sg_nodes", "sg_edges", "merge_lag_mean", "group_size_mean",
	"mvto_snapshot_reads", "mvto_ro_begins",
}

type summary struct {
	result result
	record record
}

// summarize turns a run's trials into its result line and record.
func summarize(w workload, seed int64, seconds int, traced bool, trials []*trial) summary {
	s := summary{
		result: result{Correct: true, Metrics: make(map[string]metric)},
		record: record{
			Workload: workloadRecord{
				Name: w.name, Backend: w.backend, WAL: w.wal, Clients: clients, Objects: w.objects,
				ZipfS: w.zipfS, ReadRatio: w.readRatio, Accesses: w.accesses, ChildProb: w.childProb,
				Warmup: w.warmup, TxPerClient: w.txPerClient, MaxAttempts: maxAttempts,
			},
			Seed: seed, Seconds: seconds, Trace: traced,
			Samples: make(map[string]int),
		},
	}
	var plain, tr []*trial
	for _, t := range trials {
		s.record.Trials = append(s.record.Trials, t.record())
		for _, r := range t.runs {
			s.result.Attempted += r.planned
			s.result.Failed += r.failed
		}
		if t.dur != nil {
			s.record.Durability.add(t.dur)
		}
		if len(t.gateErrs) > 0 {
			s.result.Correct = false
		}
		if t.traced {
			tr = append(tr, t)
		} else {
			plain = append(plain, t)
		}
	}
	e2e := s.endToEnd(plain)
	s.record.EndToEnd = make(map[string]float64)
	for k, m := range e2e {
		s.record.EndToEnd[k] = m.Value
	}
	if traced {
		s.perLayer(tr, e2e, trials)
	} else {
		s.result.Metrics = e2e
	}
	return s
}

func (t *trial) record() trialRecord {
	r := trialRecord{
		Traced: t.traced, SetupS: t.setup.Seconds(), TimedS: t.timed.Seconds(),
		TimedCommits: t.timedCommits(), ShutdownS: t.shutdown.Seconds(),
		HeapMB: float64(t.heap) / 1e6, WALBytes: t.walBytes,
		Delta: make(map[string]float64), End: make(map[string]float64),
		Durability: t.dur, Gate: t.gateErrs,
	}
	for _, c := range t.runs {
		r.Planned += c.planned
		r.Committed += c.committed
		r.Failed += c.failed
		r.UpdateN += len(c.update)
		r.RON += len(c.ro)
	}
	for _, k := range recordedCounters {
		r.Delta[k] = t.delta(k)
		r.End[k] = t.after[k]
	}
	return r
}

// pct reports the q-percentile of samples, counting the samples under name
// and noting a percentile without minTail samples beyond it.
func (s *summary) pct(name string, samples []float64, q float64) float64 {
	s.record.Samples[name] = len(samples)
	v, exact := percentile(samples, q)
	if !exact {
		s.record.Inexact = append(s.record.Inexact, name)
	}
	return v
}

func medianOf(ts []*trial, f func(*trial) float64) float64 {
	vs := make([]float64, len(ts))
	for i, t := range ts {
		vs[i] = f(t)
	}
	return median(vs)
}

func meanOf(ts []*trial, f func(*trial) float64) float64 {
	sum := 0.0
	for _, t := range ts {
		sum += f(t)
	}
	return ratio(sum, float64(len(ts)))
}

// endToEnd computes the end-to-end metrics over untraced trials.
func (s *summary) endToEnd(ts []*trial) map[string]metric {
	var update, ro []float64
	for _, t := range ts {
		for _, r := range t.runs {
			update = append(update, usOf(r.update)...)
			ro = append(ro, usOf(r.ro)...)
		}
	}
	return map[string]metric{
		"setup_s":       {medianOf(ts, func(t *trial) float64 { return t.setup.Seconds() }), "s"},
		"tx_per_s":      {medianOf(ts, func(t *trial) float64 { return float64(t.timedCommits()) / t.timed.Seconds() }), "1/s"},
		"update_p50_us": {s.pct("update_p50_us", update, 0.50), "us"},
		"update_p99_us": {s.pct("update_p99_us", update, 0.99), "us"},
		"ro_p50_us":     {s.pct("ro_p50_us", ro, 0.50), "us"},
		"ro_p90_us":     {s.pct("ro_p90_us", ro, 0.90), "us"},
		"shutdown_s":    {medianOf(ts, func(t *trial) float64 { return t.shutdown.Seconds() }), "s"},
		// The live heap is bimodal across trials (two modes about 5 MB
		// apart on hot-locks), so its median flips between modes; the
		// mean is steady.
		"live_heap_mb": {meanOf(ts, func(t *trial) float64 { return float64(t.heap) / 1e6 }), "MB"},
	}
}

// perLayer computes the per-layer metrics over the traced trials tr, the
// tracing overhead against the untraced trials' end-to-end metrics e2e,
// and the durability diagnostics over every trial of the run.
func (s *summary) perLayer(tr []*trial, e2e map[string]metric, all []*trial) {
	m := s.result.Metrics
	var (
		self                               [numSpanKinds]time.Duration
		accessD, commitD, pingD, update    []float64
		lags                               []float64
		sum                                = make(map[string]float64)
		walBytes, roCommits, txs, attempts float64
	)
	for _, t := range tr {
		for _, r := range t.runs {
			r.rec.selfTimes(&self)
			accessD = append(accessD, usOf(r.rec.durations(spanAccess))...)
			commitD = append(commitD, usOf(r.rec.durations(spanCommit))...)
			pingD = append(pingD, usOf(r.rec.durations(spanPing))...)
			txs += float64(len(r.rec.durations(spanTx)))
			attempts += float64(len(r.rec.durations(spanAttempt)))
			roCommits += float64(len(r.ro))
			update = append(update, usOf(r.update)...)
		}
		lags = append(lags, t.lags...)
		for _, k := range recordedCounters {
			sum["d."+k] += t.delta(k)
			sum["e."+k] += t.after[k]
		}
		walBytes += float64(t.walBytes)
	}
	n := float64(len(tr))
	commits := sum["d.top_commits"]
	perTx := func(d time.Duration) float64 { return ratio(us(d), txs) }

	m["client.access_p50_us"] = metric{s.pct("client.access_p50_us", accessD, 0.50), "us"}
	m["client.access_p99_us"] = metric{s.pct("client.access_p99_us", accessD, 0.99), "us"}
	m["client.attempts_per_tx"] = metric{ratio(attempts, txs), "count"}
	m["client.backoff_ms_per_tx"] = metric{perTx(self[spanTx]) / 1000, "ms"}
	m["client.commit_p50_us"] = metric{s.pct("client.commit_p50_us", commitD, 0.50), "us"}
	m["client.commit_p99_us"] = metric{s.pct("client.commit_p99_us", commitD, 0.99), "us"}
	m["wire.ping_p50_us"] = metric{s.pct("wire.ping_p50_us", pingD, 0.50), "us"}

	m["server.blocked_polls_per_access"] = metric{ratio(sum["d.blocked_polls"], sum["d.accesses"]), "count"}
	m["server.deadlock_aborts_per_commit"] = metric{ratio(sum["d.deadlock_aborts"], commits), "count"}
	// Lock timeouts are rare, so they are a count per fixed-work trial
	// rather than a ratio.
	m["server.lock_timeouts"] = metric{ratio(sum["d.lock_timeouts"], n), "count"}
	m["server.begins_per_commit"] = metric{ratio(sum["d.begins"], commits), "count"}
	m["server.restart_aborts_per_commit"] = metric{ratio(sum["d.restart_aborts"], commits), "count"}
	m["server.snapshot_reads_per_ro_tx"] = metric{ratio(sum["d.mvto_snapshot_reads"], roCommits), "count"}

	m["server.wal_syncs_per_commit"] = metric{ratio(sum["d.wal_syncs"], commits), "count"}
	m["server.group_size_mean"] = metric{ratio(sum["d.wal_sync_requests"], sum["d.wal_syncs"]), "count"}
	m["server.wal_bytes_per_commit"] = metric{ratio(walBytes, sum["e.top_commits"]), "B"}
	m["server.log_events_per_commit"] = metric{ratio(sum["d.log_events"], commits), "count"}
	m["server.merge_lag_mean"] = metric{ratio(sum["e.merge_lag_mean"], n), "count"}
	m["server.cert_lag_p99_events"] = metric{s.pct("server.cert_lag_p99_events", lags, 0.99), "count"}
	m["server.sg_edges_per_event"] = metric{ratio(sum["e.sg_edges"], sum["e.log_events"]), "count"}

	m["core.check_s"] = metric{medianOf(tr, func(t *trial) float64 { return t.check.Seconds() }), "s"}
	m["core.append_ns_per_event_first"] = metric{medianOf(tr, func(t *trial) float64 { return t.appendFirst }), "ns"}
	m["core.append_ns_per_event_last"] = metric{medianOf(tr, func(t *trial) float64 { return t.appendLast }), "ns"}

	var recoverS, recovered []float64
	for _, t := range all {
		if t.dur == nil {
			continue
		}
		recoverS = append(recoverS, t.dur.RecoverS)
		recovered = append(recovered, float64(t.dur.Recovered))
	}
	m["server.recover_s"] = metric{median(recoverS), "s"}
	m["server.recovered_events"] = metric{median(recovered), "count"}
	m["server.acked_lost"] = metric{float64(s.record.Durability.Lost), "count"}

	for k := spanTx; k < numSpanKinds; k++ {
		if k == spanPing {
			continue
		}
		m["trace.self_us_per_tx."+spanNames[k]] = metric{perTx(self[k]), "us"}
	}
	tracedTput := medianOf(tr, func(t *trial) float64 { return float64(t.timedCommits()) / t.timed.Seconds() })
	p50, _ := percentile(update, 0.5)
	m["trace.overhead_tx_per_s_pct"] = metric{100 * ratio(e2e["tx_per_s"].Value-tracedTput, e2e["tx_per_s"].Value), "%"}
	m["trace.overhead_update_p50_us"] = metric{p50 - e2e["update_p50_us"].Value, "us"}
}
