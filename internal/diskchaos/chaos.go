package diskchaos

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync/atomic"
	"syscall"
	"time"

	"systolicdb/internal/chaos"
	"systolicdb/internal/obs"
)

// Error is the failure a disk-chaos injection surfaces to the caller. It
// unwraps to the errno (or sentinel) the injection masquerades as, so
// errors.Is(err, syscall.ENOSPC) classifies it exactly like the real
// fault.
type Error struct {
	Kind string // which injection fired (KindENOSPC, ...)
	Op   string // the filesystem operation it fired on ("write", "sync", ...)
	Path string // the file involved
	Err  error  // the underlying error the injection imitates
}

func (e *Error) Error() string {
	return fmt.Sprintf("diskchaos: injected %s during %s %s: %v", e.Kind, e.Op, e.Path, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// Per-kind salts mixed into the decision hash so one operation's fault
// decisions are independent coin flips.
const (
	saltENOSPC   = 0xd15c_0001
	saltEIOWrite = 0xd15c_0002
	saltShort    = 0xd15c_0003
	saltShortLen = 0xd15c_0004
	saltFsyncLie = 0xd15c_0005
	saltBitrot   = 0xd15c_0006
	saltBitPos   = 0xd15c_0007
)

// Chaos is an FS that applies a Spec's faults to every operation passing
// through it. All decisions are pure functions of (spec.Seed, operation
// ordinal), so a campaign replays identically given the same operation
// order.
type Chaos struct {
	spec *Spec
	base FS

	n      atomic.Uint64 // operation ordinal
	ledger *chaos.Ledger

	at map[uint64]string // pinned injections by ordinal

	// Injectable stall for tests; production sleeps for real.
	sleep func(time.Duration)
}

// New wraps base (nil selects OS) with the spec's faults, recording
// injection counts into reg (nil selects obs.Default) as
// diskchaos_injections_total{kind=...}.
func New(spec *Spec, base FS, reg *obs.Registry) *Chaos {
	if base == nil {
		base = OS
	}
	c := &Chaos{
		spec:   spec,
		base:   base,
		ledger: chaos.NewLedger(reg, "diskchaos", Kinds()),
		at:     make(map[uint64]string, len(spec.At)),
		sleep:  time.Sleep,
	}
	for _, a := range spec.At {
		c.at[a.Ordinal] = a.Kind
	}
	return c
}

// Ops returns the number of fallible operations seen so far — the
// ordinal space at= pins index into.
func (c *Chaos) Ops() uint64 { return c.n.Load() }

// Counts returns per-kind injection totals since the filesystem was built.
func (c *Chaos) Counts() map[string]int64 { return c.ledger.Counts() }

// next claims the next operation ordinal and applies the universal
// faults (slow).
func (c *Chaos) next() uint64 {
	i := c.n.Add(1) - 1
	if c.spec.Slow > 0 {
		c.ledger.Record(KindSlow)
		c.sleep(c.spec.Slow)
	}
	return i
}

// fire reports whether kind fires at ordinal i, and records it if so: an
// at= pin for this exact ordinal wins outright; otherwise the seeded coin
// decides.
func (c *Chaos) fire(i uint64, kind string, salt uint64, p float64) bool {
	fired := chaos.Fires(c.spec.Seed, i, salt, p)
	if k, ok := c.at[i]; ok {
		fired = k == kind
	}
	if fired {
		c.ledger.Record(kind)
	}
	return fired
}

// OpenFile passes through, with creations subject to ENOSPC (a full disk
// refuses new files before it refuses bytes).
func (c *Chaos) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	i := c.next()
	if flag&os.O_CREATE != 0 && c.fire(i, KindENOSPC, saltENOSPC, c.spec.ENOSPC) {
		return nil, &Error{Kind: KindENOSPC, Op: "open", Path: name, Err: syscall.ENOSPC}
	}
	f, err := c.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &chaosFile{c: c, f: f}, nil
}

// ReadFile passes through, with the returned bytes subject to bitrot:
// one flipped bit in the copy handed back, the file at rest untouched
// (so a confirming re-read at a later ordinal sees clean data).
func (c *Chaos) ReadFile(name string) ([]byte, error) {
	i := c.next()
	data, err := c.base.ReadFile(name)
	if err != nil {
		return data, err
	}
	if len(data) > 0 && c.fire(i, KindBitrotRead, saltBitrot, c.spec.BitrotRead) {
		rotted := append([]byte(nil), data...)
		pos := chaos.Draw(c.spec.Seed, i, saltBitPos, uint64(len(rotted))*8)
		rotted[pos/8] ^= 1 << (pos % 8)
		return rotted, nil
	}
	return data, nil
}

func (c *Chaos) ReadDir(name string) ([]fs.DirEntry, error) {
	c.next()
	return c.base.ReadDir(name)
}

func (c *Chaos) Rename(oldpath, newpath string) error {
	c.next()
	return c.base.Rename(oldpath, newpath)
}

func (c *Chaos) Remove(name string) error {
	c.next()
	return c.base.Remove(name)
}

func (c *Chaos) Truncate(name string, size int64) error {
	c.next()
	return c.base.Truncate(name, size)
}

func (c *Chaos) MkdirAll(path string, perm fs.FileMode) error {
	c.next()
	return c.base.MkdirAll(path, perm)
}

// SyncDir is subject to fsync-lie exactly like file Sync: the rename or
// creation the caller wanted pinned down may not survive power loss.
func (c *Chaos) SyncDir(dir string) error {
	i := c.next()
	if c.fire(i, KindFsyncLie, saltFsyncLie, c.spec.FsyncLie) {
		return nil
	}
	return c.base.SyncDir(dir)
}

// chaosFile wraps an open file, injecting write and sync faults.
type chaosFile struct {
	c *Chaos
	f File
}

func (cf *chaosFile) Name() string { return cf.f.Name() }

// Write is subject to, in precedence order: ENOSPC (nothing lands), EIO
// (nothing lands), short write (a real prefix lands, io.ErrShortWrite
// returned — the torn-frame case).
func (cf *chaosFile) Write(p []byte) (int, error) {
	c := cf.c
	i := c.next()
	switch {
	case c.fire(i, KindENOSPC, saltENOSPC, c.spec.ENOSPC):
		return 0, &Error{Kind: KindENOSPC, Op: "write", Path: cf.f.Name(), Err: syscall.ENOSPC}
	case c.fire(i, KindEIOWrite, saltEIOWrite, c.spec.EIOWrite):
		return 0, &Error{Kind: KindEIOWrite, Op: "write", Path: cf.f.Name(), Err: syscall.EIO}
	case len(p) > 0 && c.fire(i, KindShortWrite, saltShort, c.spec.ShortWrite):
		n := int(chaos.Draw(c.spec.Seed, i, saltShortLen, uint64(len(p))))
		if n > 0 {
			if wn, werr := cf.f.Write(p[:n]); werr != nil {
				return wn, werr
			}
		}
		return n, &Error{Kind: KindShortWrite, Op: "write", Path: cf.f.Name(), Err: io.ErrShortWrite}
	}
	return cf.f.Write(p)
}

// Sync is subject to fsync-lie: report durable without flushing. In a
// process-crash model the lie is harmless (the kernel has the bytes); it
// models the power-loss exposure of volatile write caches, and campaigns
// count it so operators can see how exposed a run was.
func (cf *chaosFile) Sync() error {
	c := cf.c
	i := c.next()
	if c.fire(i, KindFsyncLie, saltFsyncLie, c.spec.FsyncLie) {
		return nil
	}
	return cf.f.Sync()
}

func (cf *chaosFile) Close() error { return cf.f.Close() }
