package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"nestedsg/internal/event"
	"nestedsg/internal/server"
	"nestedsg/internal/tname"
)

// durability is the result of recovering a trial's WAL after its clean
// Shutdown. A clean shutdown leaves nothing to repair, so the recovered
// log must equal the live one: no torn bytes, no orphan aborts, no missing
// informs, and every acked commit present.
type durability struct {
	Err       string   `json:"error,omitempty"`
	RecoverS  float64  `json:"recover_s"`
	Expected  int      `json:"expected_events"`
	Recovered int      `json:"recovered_events"`
	TornBytes int64    `json:"torn_bytes"`
	Orphans   int      `json:"orphan_tops"`
	Fixups    int      `json:"fixup_informs"`
	Equal     bool     `json:"log_equal"`
	Acked     int      `json:"acked_commits"`
	Lost      []string `json:"acked_lost"`
	KeptWAL   string   `json:"kept_wal,omitempty"`
}

func (d *durability) ok() bool {
	return d.Err == "" && d.Equal && d.TornBytes == 0 && d.Orphans == 0 && d.Fixups == 0 && len(d.Lost) == 0
}

// durabilityTotals sums the durability checks of a run's trials. It is
// reported beside the result, not in its failed count: the transactions
// were acked, and the losses come from a recovery race whose count differs
// from run to run of the same seed.
type durabilityTotals struct {
	Checked      int `json:"trials_checked"`
	FailedTrials int `json:"trials_failed"`
	Acked        int `json:"acked_commits"`
	Lost         int `json:"acked_lost"`
}

func (s *durabilityTotals) add(d *durability) {
	s.Checked++
	if !d.ok() {
		s.FailedTrials++
	}
	s.Acked += d.Acked
	s.Lost += len(d.Lost)
}

func (d *durability) summary() string {
	s := fmt.Sprintf("recovered %d of %d events, %d torn bytes, %d orphans, %d fixup informs, %d of %d acked commits lost",
		d.Recovered, d.Expected, d.TornBytes, d.Orphans, d.Fixups, len(d.Lost), d.Acked)
	if d.Err != "" {
		s += ": " + d.Err
	}
	return s
}

// checkDurability recovers the WAL in walDir (written by a server with opts
// that has shut down cleanly, whose tree and log are tr and live) and
// compares the result with the live log. Recovery truncates a torn tail in
// place, so it runs on the original after a copy is taken; on failure the
// copy is kept at keepDir (see keepWAL).
func checkDurability(opts server.Options, walDir, keepDir string, tr *tname.Tree, live event.Behavior) *durability {
	acked := topCommits(tr, live)
	d := &durability{Expected: len(live), Acked: len(acked)}
	pristine := walDir + ".pristine"
	if err := copyDir(walDir, pristine); err != nil {
		d.Err = fmt.Sprintf("copying wal: %v", err)
		return d
	}
	defer os.RemoveAll(pristine)

	recovered, rtr := d.recover(opts, walDir)
	if recovered != nil {
		d.Recovered = len(recovered)
		d.Equal = equalLogs(live, recovered)
		have := make(map[string]bool)
		for _, name := range topCommits(rtr, recovered) {
			have[name] = true
		}
		for _, name := range acked {
			if !have[name] {
				d.Lost = append(d.Lost, name)
			}
		}
	} else {
		d.Lost = acked
	}
	if !d.ok() {
		d.KeptWAL = keepWAL(pristine, keepDir)
	}
	return d
}

// recover runs server.Recover on walDir and returns the recovered log and
// tree after shutting the recovered server down, or nil on a failed
// recovery.
func (d *durability) recover(opts server.Options, walDir string) (event.Behavior, *tname.Tree) {
	disk, err := server.NewDirDisk(walDir)
	if err != nil {
		d.Err = err.Error()
		return nil, nil
	}
	opts.WAL = disk
	t0 := time.Now()
	srv, rep, err := server.Recover(opts)
	d.RecoverS = time.Since(t0).Seconds()
	if err != nil {
		d.Err = err.Error()
		return nil, nil
	}
	d.TornBytes, d.Orphans, d.Fixups = rep.TornBytes, rep.OrphanTops, rep.FixupInforms
	if err := srv.Shutdown(context.Background()); err != nil {
		d.Err = fmt.Sprintf("shutting down the recovered server: %v", err)
	}
	return srv.Log(), srv.Tree()
}

func equalLogs(a, b event.Behavior) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// keepWAL moves the pristine WAL copy to dst unless dst's parent already
// holds a kept WAL, so only the first failing run is kept. It returns
// where the copy went ("" when not kept).
func keepWAL(pristine, dst string) string {
	parent := filepath.Dir(dst)
	if ents, err := os.ReadDir(parent); err == nil && len(ents) > 0 {
		return ""
	}
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return ""
	}
	if err := os.Rename(pristine, dst); err != nil {
		return ""
	}
	return dst
}
