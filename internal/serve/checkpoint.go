package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"pathtrace/internal/snapshot"
)

// This file is the crash-safety half of the server: periodic per-shard
// checkpointing of session snapshots to disk, warm restart from those
// checkpoints, and the drain-time spill of every live session to the
// same directory, so a SIGTERM loses nothing.
//
// The sweep and the drain share one routine, saveSession: it encodes
// one session into a reused buffer under the shard lock, then writes
// the frame after releasing it. No lock is held across more than one
// session's encode, and no write is made under a lock, so a slow disk
// delays the next sweep, never prediction. The authoritative zero-loss
// path is the drain, which runs after the shards have quiesced and
// saves final state synchronously.

// checkpointer runs the periodic sweep on its own goroutine.
type checkpointer struct {
	s    *Server
	dir  string
	quit chan struct{}
	done sync.WaitGroup

	// Reused by every sweep: one shard's dirty session IDs, and the
	// frame being written.
	ids []uint64
	buf []byte
}

func newCheckpointer(s *Server, dir string, every time.Duration) *checkpointer {
	ck := &checkpointer{s: s, dir: dir, quit: make(chan struct{})}
	ck.done.Add(1)
	go ck.loop(every)
	return ck
}

func (ck *checkpointer) loop(every time.Duration) {
	defer ck.done.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ck.quit:
			return
		case <-t.C:
			ck.sweep()
		}
	}
}

// sweep saves each shard's dirty sessions one at a time. A session
// that fails to encode or write stays dirty, so the next sweep tries it
// again.
func (ck *checkpointer) sweep() {
	m := &ck.s.metrics
	for _, sh := range ck.s.shards {
		ck.ids = sh.dirtyIDs(ck.ids[:0])
		for _, id := range ck.ids {
			var err error
			if ck.buf, err = sh.saveSession(ck.dir, id, ck.buf); err != nil {
				m.ckptWriteErrs.Inc()
			} else {
				m.ckptWritten.Inc()
			}
		}
	}
}

// stop ends the periodic sweeps and waits out a running one, writes
// included. Called once, from quiesce, before the shards stop.
func (ck *checkpointer) stop() {
	close(ck.quit)
	ck.done.Wait()
}

const snapshotFileExt = ".ntss"

func snapshotPath(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%016x%s", id, snapshotFileExt))
}

// writeSnapshotFile persists one frame crash-safely: write to a
// temporary file, fsync it, rename over the final name, fsync the
// directory. A crash at any point leaves either the previous checkpoint
// or the new one — never a torn file — and a torn write that does slip
// through (lying disk) is caught by the frame checksum on load.
func writeSnapshotFile(dir string, id uint64, frame []byte) error {
	final := snapshotPath(dir, id)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(frame)
	serr := f.Sync()
	cerr := f.Close()
	if err := errors.Join(werr, serr, cerr); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// loadCheckpoints restores every decodable session snapshot in dir into
// its shard. Runs during NewServer, before the server serves. Corrupt or
// incompatible files are counted and skipped, never installed: a torn
// checkpoint costs a warm start, not correctness.
func (s *Server) loadCheckpoints(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), snapshotFileExt) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			s.metrics.corrupt.Inc()
			continue
		}
		sess, err := snapshot.Decode(b)
		if err != nil {
			s.metrics.corrupt.Inc()
			continue
		}
		if err := s.shardFor(sess.ID).installSnapshot(sess); err != nil {
			s.metrics.corrupt.Inc()
			continue
		}
		s.metrics.restored.Add(1)
	}
	return nil
}

// offload saves every live session to the checkpoint directory after
// quiesce, one frame at a time, counting each spilled or lost. Without
// a directory every session is lost by design, and nothing is encoded.
// Returns an error naming the lost sessions only when a directory is
// set: discarding sessions at drain is otherwise the configured
// behavior, which the counter records.
func (s *Server) offload() error {
	dir := s.cfg.CheckpointDir
	var buf []byte
	for _, sh := range s.shards {
		if dir == "" {
			s.metrics.lost.Add(uint64(len(sh.sessions)))
			continue
		}
		for id := range sh.sessions {
			var err error
			if buf, err = sh.saveSession(dir, id, buf); err != nil {
				s.metrics.lost.Inc()
			} else {
				s.metrics.spilled.Inc()
			}
		}
	}
	if lost := s.metrics.lost.Load(); dir != "" && lost > 0 {
		return fmt.Errorf("serve: %d sessions lost at drain (spill failed)", lost)
	}
	return nil
}
