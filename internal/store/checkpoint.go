package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"path/filepath"
	"sync"

	"perfclone/internal/durable"
)

// checkpointVersion guards the JSONL cell format; bump it when a
// record's shape changes incompatibly. v2 added the per-record CRC.
const checkpointVersion = 2

// cellRecord is one line of a checkpoint file: a finished grid cell and
// its full result row, so a resumed run can reuse the row verbatim and
// render byte-identical figures. CRC is durable.CRC over the cell name
// and the raw row bytes: a bit flip anywhere in a line — including one
// that still parses as JSON — drops the record instead of silently
// resuming from a wrong row.
type cellRecord struct {
	V    int             `json:"v"`
	Cell string          `json:"cell"`
	CRC  uint32          `json:"crc"`
	Data json.RawMessage `json:"data"`
}

// Checkpoint is an append-only JSONL log of completed grid cells for one
// experiment stage. MarkContext is safe for concurrent use by the worker
// pool; each line is written in one critical section and flushed to the
// OS before the cell counts as done, so a SIGINT between cells never
// loses a recorded cell. A crash (or an injected torn write) can leave
// partial lines anywhere in the file; load drops them individually and
// the affected cells simply recompute.
type Checkpoint struct {
	stage string
	st    *Store

	mu   sync.Mutex
	log  *durable.Log
	done map[string]json.RawMessage
}

// OpenCheckpoint opens the per-stage cell log. With resume set, existing
// records are loaded and served by Done; otherwise the log is truncated
// and the stage starts from scratch. Torn, bit-flipped, or otherwise
// unparseable lines are dropped (their cells recompute); a checkpoint
// file that cannot be read at all is quarantined and the stage starts
// empty, unless the store is strict.
func (s *Store) OpenCheckpoint(stage string, resume bool) (*Checkpoint, error) {
	path := filepath.Join(s.dir, "checkpoints", sanitize(stage)+".jsonl")
	cp := &Checkpoint{stage: stage, st: s, done: make(map[string]json.RawMessage)}
	var torn bool
	if resume {
		var err error
		torn, err = cp.load(path)
		if err != nil {
			if s.strict {
				return nil, err
			}
			s.quarantine(path, err)
			cp.done = make(map[string]json.RawMessage)
		}
	}
	log, err := durable.OpenLog(s.fs, s.retry, path, !resume, torn)
	if err != nil {
		return nil, fmt.Errorf("store: checkpoint %s: %w", stage, err)
	}
	cp.log = log
	return cp, nil
}

// load reads existing records into the done map, skipping lines that are
// torn, corrupt, or fail their CRC. torn reports that the file does not
// end in a newline.
func (cp *Checkpoint) load(path string) (torn bool, err error) {
	var dropped int
	err = cp.st.readArtifact(path, func(r io.Reader) error {
		done := make(map[string]json.RawMessage)
		var err error
		dropped, torn, err = durable.Scan(r, func(line []byte) (bool, error) {
			var rec cellRecord
			if json.Unmarshal(line, &rec) != nil {
				// A torn line: a crash mid-append, or an append that a
				// degraded writer could not complete.
				return false, nil
			}
			if rec.V != checkpointVersion {
				return false, fmt.Errorf("version %d, want %d", rec.V, checkpointVersion)
			}
			if rec.CRC != durable.CRC(rec.Cell, rec.Data) {
				return false, nil
			}
			done[rec.Cell] = rec.Data
			return true, nil
		})
		if err != nil {
			return err
		}
		cp.done = done
		return nil
	})
	if errors.Is(err, iofs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("store: checkpoint %s: %w", cp.stage, err)
	}
	if dropped > 0 {
		fmt.Fprintf(cp.st.log, "store: checkpoint %s: dropped %d torn or corrupt line(s); those cells recompute\n",
			cp.stage, dropped)
	}
	return torn, nil
}

// Done returns the recorded result for cell, if the cell finished in a
// previous (or the current) run.
func (cp *Checkpoint) Done(cell string) (json.RawMessage, bool) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	raw, ok := cp.done[cell]
	return raw, ok
}

// Len is the number of recorded cells.
func (cp *Checkpoint) Len() int {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return len(cp.done)
}

// MarkContext records cell's result row. The line is written to the OS
// before MarkContext returns, so a subsequent SIGINT cannot lose a
// completed cell; it is not fsynced, so checkpoints are SIGINT-safe, not
// power-loss-safe (a lost cell only recomputes). Transient write
// failures retry, and a torn attempt is isolated by durable.Log. A
// context that dies before the first write attempt stops the append
// entirely, and the backoff sleeps between retries are cut short, so a
// cell whose deadline has expired never lingers in the write path. A
// write attempt already in flight is never interrupted mid-line by
// cancellation, preserving the invariant that a valid-CRC record always
// describes a complete cell.
func (cp *Checkpoint) MarkContext(ctx context.Context, cell string, row any) error {
	data, err := json.Marshal(row)
	if err != nil {
		return fmt.Errorf("store: checkpoint %s cell %s: %w", cp.stage, cell, err)
	}
	rec := cellRecord{V: checkpointVersion, Cell: cell, CRC: durable.CRC(cell, data), Data: data}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.done[cell] = data
	if err := cp.log.Append(ctx, rec, false); err != nil {
		return fmt.Errorf("store: checkpoint %s cell %s: %w", cp.stage, cell, err)
	}
	return nil
}

// Close closes the log file.
func (cp *Checkpoint) Close() error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if err := cp.log.Close(); err != nil {
		return fmt.Errorf("store: checkpoint %s: %w", cp.stage, err)
	}
	return nil
}
