// Package durable is the pipeline's one crash-safe write primitive. It
// owns two decisions that the artifact store, the experiment
// checkpoints, the job WAL and the daemon's artifact commits share:
//
//   - AtomicWrite commits a whole file: temp file, fsync, rename, parent
//     directory fsync. A crash or power loss at any point leaves the
//     target holding exactly its old bytes or exactly its new ones.
//   - Log appends newline-framed records, and Scan reads them back. A
//     torn final line (a crash mid-append) is isolated on its own line
//     and dropped, never glued onto the next record.
//
// Callers keep their own policy (locks, quarantine, which appends are
// fsynced) and their own record shape (versions, the CRC key). All I/O
// goes through the faultinject.FS seam, so chaos tests can fault it.
package durable

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"syscall"

	"perfclone/internal/faultinject"
)

// AtomicWrite streams write() into a temp file next to path, fsyncs
// it, renames it over path and fsyncs the directory. Transient faults
// retry the whole attempt with a fresh temp file. Serializing writers
// of one path is the caller's job.
func AtomicWrite(fsys faultinject.FS, retry faultinject.RetryPolicy, path string, write func(io.Writer) error) error {
	return faultinject.Retry(retry, func() error { return writeOnce(fsys, path, write) })
}

// writeOnce is one full commit attempt.
func writeOnce(fsys faultinject.FS, path string, write func(io.Writer) error) error {
	tmp, err := fsys.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer func() { _ = fsys.Remove(tmpName) }() // no-op once renamed
	if err := write(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	// fsync before rename: the rename must never publish an artifact
	// whose bytes are not yet durable, or a crash right after the rename
	// could leave a committed-but-torn file.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		return err
	}
	// fsync the directory so the rename itself survives a crash.
	return SyncDir(fsys, filepath.Dir(path))
}

// SyncDir fsyncs a directory so the entries created or renamed in it
// survive a power loss. Only a filesystem that cannot sync a directory
// handle at all (EINVAL, ENOTSUP) is tolerated; any other failure
// leaves those entries possibly not durable and is returned. The
// handle's Close error is dropped: the handle is read-only, so the
// fsync before it is the whole durability barrier and has already
// reported.
func SyncDir(fsys faultinject.FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return fmt.Errorf("sync %s: %w", dir, err)
	}
	err = d.Sync()
	d.Close()
	if err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("sync %s: %w", dir, err)
	}
	return nil
}

// CRC is the IEEE CRC-32 over a record's identity (key) and payload.
// A bit flip anywhere in a line, including one that still parses as
// JSON, fails it, so the record is dropped instead of trusted.
func CRC(key string, data []byte) uint32 {
	h := crc32.NewIEEE()
	io.WriteString(h, key)
	h.Write(data)
	return h.Sum32()
}

// Log is an append-only file of JSON records, one per line. It is not
// safe for concurrent use; callers serialize Append under their own
// lock.
type Log struct {
	f     faultinject.File
	retry faultinject.RetryPolicy
	torn  bool // the file may end mid-line
}

// OpenLog opens path for appending, creating it if needed; trunc
// discards what it held. torn is Scan's verdict on the existing bytes:
// a file that ends mid-line makes the first Append lead with a newline,
// so the torn bytes stay on their own droppable line.
func OpenLog(fsys faultinject.FS, retry faultinject.RetryPolicy, path string, trunc, torn bool) (*Log, error) {
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if trunc {
		flags |= os.O_TRUNC
	}
	var f faultinject.File
	err := faultinject.Retry(retry, func() error {
		var err error
		f, err = fsys.OpenFile(path, flags, 0o644)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Log{f: f, retry: retry, torn: torn}, nil
}

// Append writes rec as one JSON line in a single write, so the line
// reaches the OS before Append returns; with sync set it is also
// fsynced. Transient failures retry under ctx. A write that fails
// after some bytes landed marks the tail torn, and the next attempt
// leads with a newline. A write already in flight is never cut short by
// ctx: only process death can tear a line, and Scan drops torn lines.
func (l *Log) Append(ctx context.Context, rec any, sync bool) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	return faultinject.RetryContext(ctx, l.retry, func() error {
		buf := line
		if l.torn {
			buf = append([]byte{'\n'}, line...)
		}
		n, err := l.f.Write(buf)
		if err != nil {
			if n > 0 {
				l.torn = true
			}
			return err
		}
		l.torn = false
		if !sync {
			return nil
		}
		return l.f.Sync()
	})
}

// Sync fsyncs every appended record.
func (l *Log) Sync() error { return l.f.Sync() }

// Close closes the file without syncing it.
func (l *Log) Close() error { return l.f.Close() }

// Scan hands every non-empty line of r to keep, which reports whether
// the line is a valid record; an error from keep aborts the scan. It
// returns how many lines keep rejected and whether r ends mid-line (a
// crash tore the final append; pass it to OpenLog). Lines after a torn
// or corrupt one are whole records in their own right, so the scan
// always goes on. keep must not retain line.
func Scan(r io.Reader, keep func(line []byte) (bool, error)) (dropped int, torn bool, err error) {
	tr := &tailReader{r: r, last: '\n'}
	sc := bufio.NewScanner(tr)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		ok, err := keep(line)
		if err != nil {
			return dropped, false, err
		}
		if !ok {
			dropped++
		}
	}
	if err := sc.Err(); err != nil {
		return dropped, false, err
	}
	return dropped, tr.last != '\n', nil
}

// tailReader remembers the last byte it handed out, so Scan can tell
// whether the input ends in a torn (newline-less) record.
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
