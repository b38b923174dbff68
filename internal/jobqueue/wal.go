package jobqueue

// The WAL format: a durable.Log of JSON records, one per line, each
// carrying a durable.CRC over op+payload; torn or corrupt lines are
// dropped one by one on replay.

import (
	"context"
	"encoding/json"
	"fmt"

	"perfclone/internal/durable"
	"perfclone/internal/faultinject"
)

// walVersion guards the record shape; bump on incompatible change.
const walVersion = 1

// opJob is the only record op today: a full job snapshot. Full
// snapshots (rather than deltas) keep replay a one-pass "last valid
// record per ID wins" scan with no cross-record reconstruction.
const opJob = "job"

type walRecord struct {
	V    int             `json:"v"`
	Op   string          `json:"op"`
	CRC  uint32          `json:"crc"`
	Data json.RawMessage `json:"data"`
}

// appendLocked journals one job snapshot; callers hold q.mu. With sync
// set the record is fsynced before returning — the durability barrier
// for submissions and terminal transitions.
func (q *Queue) appendLocked(j Job, sync bool) error {
	data, err := json.Marshal(j)
	if err != nil {
		return fmt.Errorf("jobqueue: job %s: %w", j.ID, err)
	}
	rec := walRecord{V: walVersion, Op: opJob, CRC: durable.CRC(opJob, data), Data: data}
	if err := q.wal.Append(context.TODO(), rec, sync); err != nil {
		return fmt.Errorf("jobqueue: journal job %s: %w", j.ID, err)
	}
	return nil
}

// scanWAL reads every record from path, returning the surviving job
// snapshots in record order (duplicates per ID included — the caller
// applies last-wins), the number of dropped lines, and whether the file
// ends mid-line (a crash tore the final append).
func scanWAL(fsys faultinject.FS, retry faultinject.RetryPolicy, path string) (jobs []Job, dropped int, tornTail bool, err error) {
	err = faultinject.Retry(retry, func() error {
		f, err := fsys.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		jobs = nil
		dropped, tornTail, err = durable.Scan(f, func(line []byte) (bool, error) {
			var rec walRecord
			if json.Unmarshal(line, &rec) != nil {
				return false, nil // torn line: crash mid-append
			}
			if rec.V != walVersion {
				return false, fmt.Errorf("jobqueue: %s: WAL version %d, want %d", path, rec.V, walVersion)
			}
			var j Job
			if rec.Op != opJob || rec.CRC != durable.CRC(rec.Op, rec.Data) ||
				json.Unmarshal(rec.Data, &j) != nil || j.ID == "" {
				return false, nil
			}
			jobs = append(jobs, j)
			return true, nil
		})
		return err
	})
	return jobs, dropped, tornTail, err
}

// ScanWAL replays the WAL at path through the real filesystem and
// returns every surviving job snapshot in record order plus the dropped
// line count. Chaos tests use it to assert replay invariants — e.g. at
// most one terminal record per job (exactly-once commits).
func ScanWAL(path string) ([]Job, int, error) {
	jobs, dropped, _, err := scanWAL(faultinject.OS, faultinject.RetryPolicy{}, path)
	return jobs, dropped, err
}
