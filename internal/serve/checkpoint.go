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
// checkpoints, and the drain-time offload that streams every live
// session to a peer (or spills it to disk) so a SIGTERM loses nothing.
//
// Checkpointing is periodic and best-effort: the sweep holds a shard
// lock only to encode (an in-memory walk of its dirty sessions), then
// writes that shard's frames after releasing it, so a slow disk delays
// the next sweep, never prediction. The authoritative zero-loss path
// is the drain offload, which runs after the shards have quiesced and
// snapshots final state synchronously.

// checkpointer runs the periodic sweep on its own goroutine.
type checkpointer struct {
	s    *Server
	dir  string
	quit chan struct{}
	done sync.WaitGroup
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

// sweep encodes each shard's dirty sessions under that shard's lock (so
// session state is read race-free) and writes the frames once the lock
// is released.
func (ck *checkpointer) sweep() {
	m := &ck.s.metrics
	for _, sh := range ck.s.shards {
		for _, f := range sh.checkpoint() {
			if err := writeSnapshotFile(ck.dir, f.id, f.frame); err != nil {
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

// offload snapshots every live session after quiesce and gets each one
// somewhere safe: streamed to the handoff peer when configured (with
// retries, falling back to disk), else spilled to the checkpoint
// directory. Returns an error naming the sessions that ended up with
// nowhere to go.
func (s *Server) offload() error {
	var frames []ckptFrame
	for _, sh := range s.shards {
		for _, sess := range sh.sessions {
			b, err := sh.appendFrame(nil, sess)
			if err != nil {
				s.metrics.lost.Inc()
				continue
			}
			frames = append(frames, ckptFrame{id: sess.id, frame: b})
		}
	}
	if len(frames) == 0 {
		return s.offloadErr()
	}

	spill := func(f ckptFrame) {
		if s.cfg.CheckpointDir == "" {
			s.metrics.lost.Inc()
			return
		}
		if err := writeSnapshotFile(s.cfg.CheckpointDir, f.id, f.frame); err != nil {
			s.metrics.lost.Inc()
		} else {
			s.metrics.spilled.Inc()
		}
	}

	if s.cfg.HandoffAddr == "" {
		for _, f := range frames {
			spill(f)
		}
		return s.offloadErr()
	}

	// Stream to the peer with bounded concurrency; each worker keeps one
	// connection and re-dials on failure.
	ch := make(chan ckptFrame)
	var wg sync.WaitGroup
	for i := 0; i < min(4, len(frames)); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cl *Client
			defer func() {
				if cl != nil {
					cl.Close()
				}
			}()
			for f := range ch {
				if s.handoffOne(&cl, f) {
					s.metrics.handoffSessions.Inc()
				} else {
					s.metrics.handoffFailed.Inc()
					spill(f)
				}
			}
		}()
	}
	for _, f := range frames {
		ch <- f
	}
	close(ch)
	wg.Wait()
	return s.offloadErr()
}

// handoffOne delivers one session snapshot to the handoff peer,
// retrying transient failures with doubling backoff. *cl caches the
// worker's connection across sessions.
func (s *Server) handoffOne(cl **Client, f ckptFrame) bool {
	backoff := 50 * time.Millisecond
	for attempt := 0; attempt < 4; attempt++ {
		if attempt > 0 {
			s.metrics.handoffRetries.Inc()
			time.Sleep(backoff)
			backoff *= 2
		}
		if *cl == nil {
			c, err := DialTimeout(s.cfg.HandoffAddr, 2*time.Second)
			if err != nil {
				continue
			}
			c.SetOpTimeout(5 * time.Second)
			*cl = c
		}
		if _, err := (*cl).Restore(f.id, f.frame); err != nil {
			if errors.Is(err, ErrBadSnapshot) {
				// The peer understood the frame and refused it (geometry
				// mismatch); retrying the same bytes cannot succeed.
				return false
			}
			(*cl).Close()
			*cl = nil
			continue
		}
		return true
	}
	return false
}

// offloadErr reports drain losses as an error only when the operator
// asked for zero loss (a checkpoint dir or handoff peer is configured)
// and sessions still ended up with nowhere to go. With neither
// configured, discarding sessions at drain is the configured behavior:
// the counter records it, Shutdown succeeds.
func (s *Server) offloadErr() error {
	if s.cfg.CheckpointDir == "" && s.cfg.HandoffAddr == "" {
		return nil
	}
	if lost := s.metrics.lost.Load(); lost > 0 {
		return fmt.Errorf("serve: %d sessions lost at drain (handoff and spill both failed)", lost)
	}
	return nil
}
