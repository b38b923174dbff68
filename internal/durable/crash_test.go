package durable

// Exhaustive crash-image tests in the style of Vinter: record every
// filesystem operation a primitive issues, build the crash image for
// every cut (and every torn byte offset of a write at the cut), and
// require each image to recover to a legal semantic state.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"testing"

	"perfclone/internal/faultinject"
)

// fsOp is one recorded operation. Every writer under test (a fresh temp
// file, an O_APPEND log) writes at the end of its file, so a write is an
// append to its inode.
type fsOp struct {
	kind string // link, write, trunc, sync, rename, unlink, dirsync
	path string // link/unlink/rename source; dirsync directory
	to   string // rename target
	ino  int
	data []byte
}

// fsState is one view of the tree: directory entries and inode bytes.
type fsState struct {
	entries map[string]int
	data    map[int][]byte
}

func newState() fsState { return fsState{map[string]int{}, map[int][]byte{}} }

func (s fsState) clone() fsState {
	c := newState()
	for p, ino := range s.entries {
		c.entries[p] = ino
	}
	for ino, b := range s.data {
		c.data[ino] = b // never mutated in place, see apply
	}
	return c
}

// files is the crash image: path → bytes of every file present.
func (s fsState) files() map[string][]byte {
	img := make(map[string][]byte, len(s.entries))
	for p, ino := range s.entries {
		img[p] = s.data[ino]
	}
	return img
}

// model replays ops. live is what a process crash keeps: every issued
// operation. dur is what a power loss keeps: each inode's bytes as of
// its last fsync, each directory's entries as of its last fsync.
type model struct{ live, dur fsState }

func newModel() *model { return &model{newState(), newState()} }

func (m *model) clone() *model { return &model{m.live.clone(), m.dur.clone()} }

func (m *model) apply(o fsOp) {
	switch o.kind {
	case "link":
		m.live.entries[o.path] = o.ino
		m.live.data[o.ino] = nil
	case "write":
		m.live.data[o.ino] = slices.Concat(m.live.data[o.ino], o.data)
	case "trunc":
		m.live.data[o.ino] = nil
	case "sync":
		m.dur.data[o.ino] = m.live.data[o.ino]
	case "rename":
		m.live.entries[o.to] = m.live.entries[o.path]
		delete(m.live.entries, o.path)
	case "unlink":
		delete(m.live.entries, o.path)
	case "dirsync":
		for p := range m.dur.entries {
			if filepath.Dir(p) == o.path {
				delete(m.dur.entries, p)
			}
		}
		for p, ino := range m.live.entries {
			if filepath.Dir(p) == o.path {
				m.dur.entries[p] = ino
			}
		}
	default:
		panic("unknown op " + o.kind)
	}
}

// recFS passes every call to the real filesystem and records what it
// changed.
type recFS struct {
	faultinject.FS
	ops  []fsOp
	m    *model // live view, to resolve a path to its inode
	inos int
}

func newRecFS() *recFS { return &recFS{FS: faultinject.OS, m: newModel()} }

func (r *recFS) record(o fsOp) {
	r.ops = append(r.ops, o)
	r.m.apply(o)
}

func (r *recFS) link(path string, f faultinject.File) faultinject.File {
	r.inos++
	r.record(fsOp{kind: "link", path: path, ino: r.inos})
	return &recFile{File: f, fs: r, ino: r.inos}
}

func (r *recFS) CreateTemp(dir, pattern string) (faultinject.File, error) {
	f, err := r.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return r.link(f.Name(), f), nil
}

func (r *recFS) OpenFile(name string, flag int, perm iofs.FileMode) (faultinject.File, error) {
	f, err := r.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	ino, ok := r.m.live.entries[name]
	if !ok {
		return r.link(name, f), nil
	}
	if flag&os.O_TRUNC != 0 {
		r.record(fsOp{kind: "trunc", ino: ino})
	}
	return &recFile{File: f, fs: r, ino: ino}, nil
}

func (r *recFS) Open(name string) (faultinject.File, error) {
	f, err := r.FS.Open(name)
	if err != nil {
		return nil, err
	}
	if st, err := r.FS.Stat(name); err == nil && st.IsDir() {
		return &recFile{File: f, fs: r, dir: name}, nil
	}
	return &recFile{File: f, fs: r, ino: r.m.live.entries[name]}, nil
}

func (r *recFS) Rename(oldpath, newpath string) error {
	if err := r.FS.Rename(oldpath, newpath); err != nil {
		return err
	}
	r.record(fsOp{kind: "rename", path: oldpath, to: newpath})
	return nil
}

func (r *recFS) Remove(name string) error {
	if err := r.FS.Remove(name); err != nil {
		return err
	}
	r.record(fsOp{kind: "unlink", path: name})
	return nil
}

type recFile struct {
	faultinject.File
	fs  *recFS
	ino int
	dir string // set for a directory handle
}

func (f *recFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if n > 0 {
		f.fs.record(fsOp{kind: "write", ino: f.ino, data: slices.Clone(p[:n])})
	}
	return n, err
}

func (f *recFile) Sync() error {
	if err := f.File.Sync(); err != nil {
		return err
	}
	if f.dir != "" {
		f.fs.record(fsOp{kind: "dirsync", path: f.dir})
	} else {
		f.fs.record(fsOp{kind: "sync", ino: f.ino})
	}
	return nil
}

// crashImage is the tree after ops[:cut] (plus, for a torn image, a
// prefix of the write ops[cut]) under one crash kind.
type crashImage struct {
	files map[string][]byte
	cut   int
	power bool
}

// crashImages enumerates every process-crash image (each op prefix, and
// each torn byte offset of a write at the cut) and every power-loss
// image (each op prefix).
func crashImages(ops []fsOp) []crashImage {
	var out []crashImage
	m := newModel()
	for k := 0; ; k++ {
		out = append(out, crashImage{m.live.files(), k, false}, crashImage{m.dur.files(), k, true})
		if k == len(ops) {
			return out
		}
		if o := ops[k]; o.kind == "write" {
			for j := 1; j < len(o.data); j++ {
				torn := m.clone()
				torn.apply(fsOp{kind: "write", ino: o.ino, data: o.data[:j]})
				out = append(out, crashImage{torn.live.files(), k, false})
			}
		}
		m.apply(ops[k])
	}
}

// imageKey identifies an image's contents, to count distinct images.
func imageKey(files map[string][]byte) string {
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var b bytes.Buffer
	for _, p := range paths {
		fmt.Fprintf(&b, "%s\x00%q\x00", p, files[p])
	}
	return b.String()
}

// returnedBy counts the calls whose op-count mark is within cut.
func returnedBy(marks []int, cut int) int {
	n := 0
	for n < len(marks) && marks[n] <= cut {
		n++
	}
	return n
}

func TestAtomicWriteCrashImages(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "artifact")
	values := []string{"first value\n", "second, longer value\n"}
	rfs := newRecFS()
	var marks []int // op count when each AtomicWrite returned
	for _, v := range values {
		err := AtomicWrite(rfs, faultinject.RetryPolicy{}, target, func(w io.Writer) error {
			_, err := io.WriteString(w, v)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		marks = append(marks, len(rfs.ops))
	}
	images, states := map[string]bool{}, map[string]bool{}
	for _, im := range crashImages(rfs.ops) {
		images[imageKey(im.files)] = true
		done := returnedBy(marks, im.cut)
		legal := map[string]bool{}
		if done == 0 {
			legal["(absent)"] = true
		} else {
			legal[values[done-1]] = true
		}
		if done < len(values) {
			legal[values[done]] = true
		}
		state := "(absent)"
		if b, ok := im.files[target]; ok {
			state = string(b)
		}
		if !legal[state] {
			t.Errorf("cut %d/%d (power loss %v): target is %q, want the old or the new value", im.cut, len(rfs.ops), im.power, state)
		}
		states[state] = true
	}
	t.Logf("AtomicWrite: %d images → %d semantic states", len(images), len(states))
}

// logRec is the test record: CRC'd like the store's and the WAL's.
type logRec struct {
	N   int    `json:"n"`
	Pad string `json:"pad"`
	CRC uint32 `json:"crc"`
}

func newLogRec(n int, pad string) logRec {
	return logRec{N: n, Pad: pad, CRC: CRC(strconv.Itoa(n), []byte(pad))}
}

// scanLog returns the valid records of the log at path (none if it is
// absent) and whether its tail is torn.
func scanLog(t *testing.T, path string) ([]logRec, bool) {
	t.Helper()
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, false
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []logRec
	_, torn, err := Scan(f, func(line []byte) (bool, error) {
		var r logRec
		if json.Unmarshal(line, &r) != nil || r.CRC != CRC(strconv.Itoa(r.N), []byte(r.Pad)) {
			return false, nil
		}
		recs = append(recs, r)
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, torn
}

func TestLogCrashImages(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	path := filepath.Join(dir, "log.jsonl")
	recs := []logRec{newLogRec(1, "a"), newLogRec(2, "bb"), newLogRec(3, "ccc")}
	synced := []bool{true, false, true} // the WAL's submit, claim, complete
	rfs := newRecFS()
	// Opened the way the WAL opens it: create, then fsync the directory.
	l, err := OpenLog(rfs, faultinject.RetryPolicy{}, path, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := SyncDir(rfs, dir); err != nil {
		t.Fatal(err)
	}
	var marks []int // op count when each Append returned
	for i, r := range recs {
		if err := l.Append(ctx, r, synced[i]); err != nil {
			t.Fatal(err)
		}
		marks = append(marks, len(rfs.ops))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	extra := newLogRec(9, "reopened")
	images, states := map[string]bool{}, map[int]bool{}
	for _, im := range crashImages(rfs.ops) {
		images[imageKey(im.files)] = true
		where := fmt.Sprintf("cut %d/%d (power loss %v)", im.cut, len(rfs.ops), im.power)
		img := filepath.Join(t.TempDir(), "log.jsonl")
		if b, ok := im.files[path]; ok {
			if err := os.WriteFile(img, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got, torn := scanLog(t, img)
		if len(got) > len(recs) || !slices.Equal(got, recs[:len(got)]) {
			t.Errorf("%s: records %v are not a prefix of %v", where, got, recs)
			continue
		}
		// Every write issued before a process crash survives, so every
		// returned Append must be there; a power loss keeps only what a
		// synced Append made durable before returning.
		need := returnedBy(marks, im.cut)
		if im.power {
			for need > 0 && !synced[need-1] {
				need--
			}
		}
		if len(got) < need {
			t.Errorf("%s: %d records survived, want at least %d", where, len(got), need)
		}
		states[len(got)] = true

		reopened, err := OpenLog(faultinject.OS, faultinject.RetryPolicy{}, img, false, torn)
		if err != nil {
			t.Fatal(err)
		}
		if err := reopened.Append(ctx, extra, false); err != nil {
			t.Fatal(err)
		}
		if err := reopened.Close(); err != nil {
			t.Fatal(err)
		}
		if again, _ := scanLog(t, img); !slices.Equal(again, append(slices.Clone(got), extra)) {
			t.Errorf("%s: after reopening (torn %v) and appending one record, the log holds %v, want %v plus it",
				where, torn, again, got)
		}
	}
	t.Logf("Log: %d images → %d semantic states", len(images), len(states))
}
