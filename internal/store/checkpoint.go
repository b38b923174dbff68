package store

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sync"

	"perfclone/internal/faultinject"
)

// checkpointVersion guards the JSONL cell format; bump it when a
// record's shape changes incompatibly. v2 added the per-record CRC.
const checkpointVersion = 2

// cellRecord is one line of a checkpoint file: a finished grid cell and
// its full result row, so a resumed run can reuse the row verbatim and
// render byte-identical figures. CRC is an IEEE CRC-32 over the cell
// name and the raw row bytes: a bit flip anywhere in a line — including
// one that still parses as JSON — drops the record instead of silently
// resuming from a wrong row.
type cellRecord struct {
	V    int             `json:"v"`
	Cell string          `json:"cell"`
	CRC  uint32          `json:"crc"`
	Data json.RawMessage `json:"data"`
}

// cellCRC is the integrity checksum over one record's identity+payload.
func cellCRC(cell string, data []byte) uint32 {
	h := crc32.NewIEEE()
	io.WriteString(h, cell)
	h.Write(data)
	return h.Sum32()
}

// Checkpoint is an append-only JSONL log of completed grid cells for one
// experiment stage. Mark is safe for concurrent use by the worker pool;
// each line is written in one critical section and flushed to the OS
// before the cell counts as done, so a SIGINT between cells never loses
// a recorded cell. A crash (or an injected torn write) can leave partial
// lines anywhere in the file; load drops them individually and the
// affected cells simply recompute.
type Checkpoint struct {
	stage string
	st    *Store

	mu    sync.Mutex
	f     faultinject.File
	done  map[string]json.RawMessage
	dirty bool // last append may have left a partial line
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
	if resume {
		torn, err := cp.load(path)
		if err != nil {
			if s.strict {
				return nil, err
			}
			s.quarantine(path, err)
			cp.done = make(map[string]json.RawMessage)
		}
		// A file that ends mid-line (a crash tore the last append) makes
		// the first Mark lead with a newline, so the torn bytes stay on
		// their own droppable line instead of swallowing the new record.
		cp.dirty = torn
	}
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if !resume {
		flags |= os.O_TRUNC
	}
	var f faultinject.File
	err := faultinject.Retry(s.retry, func() error {
		var err error
		f, err = s.fs.OpenFile(path, flags, 0o644)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("store: checkpoint %s: %w", stage, err)
	}
	cp.f = f
	return cp, nil
}

// tailReader remembers the last byte it handed out, so a scan can tell
// whether the file ends in a torn (newline-less) record.
type tailReader struct {
	r    io.Reader
	last byte
}

func (t *tailReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if n > 0 {
		t.last = p[n-1]
	}
	return n, err
}

// load reads existing records into the done map, skipping lines that are
// torn, corrupt, or fail their CRC. torn reports that the file does not
// end in a newline.
func (cp *Checkpoint) load(path string) (torn bool, err error) {
	var dropped int
	err = cp.st.readArtifact(path, func(r io.Reader) error {
		tr := &tailReader{r: r, last: '\n'}
		sc := bufio.NewScanner(tr)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
		done := make(map[string]json.RawMessage)
		dropped = 0
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var rec cellRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				// A torn line: a crash mid-append, or an append that a
				// degraded writer could not complete. Later lines are
				// whole records in their own right, so keep scanning.
				dropped++
				continue
			}
			if rec.V != checkpointVersion {
				return fmt.Errorf("version %d, want %d", rec.V, checkpointVersion)
			}
			if rec.CRC != cellCRC(rec.Cell, rec.Data) {
				dropped++
				continue
			}
			done[rec.Cell] = rec.Data
		}
		if err := sc.Err(); err != nil {
			return err
		}
		cp.done = done
		torn = tr.last != '\n'
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

// Mark records cell's result row. The line is written to the OS before
// Mark returns, so a subsequent SIGINT cannot lose a completed cell.
// Transient write failures retry; if an attempt tears mid-line, the next
// write leads with a newline so the torn bytes isolate to their own
// (droppable) line instead of corrupting the neighbor record.
func (cp *Checkpoint) Mark(cell string, row any) error {
	return cp.MarkContext(context.Background(), cell, row)
}

// MarkContext is Mark bounded by ctx: a context that dies before the
// first write attempt stops the append entirely, and the backoff sleeps
// between retries are cut short, so a cell whose deadline has expired
// never lingers in the write path. A write attempt already in flight is
// never interrupted mid-line by cancellation — only process death can
// tear a line, and the JSONL loader drops torn tails — preserving the
// invariant that a valid-CRC record always describes a complete cell.
func (cp *Checkpoint) MarkContext(ctx context.Context, cell string, row any) error {
	data, err := json.Marshal(row)
	if err != nil {
		return fmt.Errorf("store: checkpoint %s cell %s: %w", cp.stage, cell, err)
	}
	line, err := json.Marshal(cellRecord{V: checkpointVersion, Cell: cell, CRC: cellCRC(cell, data), Data: data})
	if err != nil {
		return fmt.Errorf("store: checkpoint %s cell %s: %w", cp.stage, cell, err)
	}
	line = append(line, '\n')
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.done[cell] = data
	err = faultinject.RetryContext(ctx, cp.st.retry, func() error {
		buf := line
		if cp.dirty {
			buf = append([]byte{'\n'}, line...)
		}
		n, werr := cp.f.Write(buf)
		if werr != nil {
			if n > 0 {
				cp.dirty = true
			}
			return werr
		}
		cp.dirty = false
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: checkpoint %s cell %s: %w", cp.stage, cell, err)
	}
	return nil
}

// Close closes the log file.
func (cp *Checkpoint) Close() error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if err := cp.f.Close(); err != nil {
		return fmt.Errorf("store: checkpoint %s: %w", cp.stage, err)
	}
	return nil
}
