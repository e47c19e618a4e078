package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pathtrace/internal/snapshot"
)

// This file is the crash-safety half of the server: periodic per-shard
// checkpointing of session snapshots to disk, warm restart from those
// checkpoints, and the drain-time offload that streams every live
// session to a peer (or spills it to disk) so a SIGTERM loses nothing.
//
// Checkpointing is asynchronous and best-effort: the sweep holds a shard
// lock only to encode (an in-memory walk of its dirty sessions); file
// IO happens on a dedicated writer goroutine behind a bounded queue, so
// a slow disk never blocks prediction. The authoritative zero-loss path
// is the drain offload, which runs after the shards have quiesced and
// snapshots final state synchronously.

// checkpointer owns the periodic checkpoint machinery: a ticker that
// asks each shard to encode its dirty sessions, and a writer that
// persists the frames atomically.
type checkpointer struct {
	s   *Server
	dir string

	frames   chan ckptFrame
	tickStop chan struct{}
	tickWG   sync.WaitGroup
	writeWG  sync.WaitGroup
	stopOnce sync.Once

	written   atomic.Uint64 // checkpoint files persisted
	writeErrs atomic.Uint64 // checkpoint writes that failed
	dropped   atomic.Uint64 // frames dropped because the writer was behind
}

func newCheckpointer(s *Server, dir string, every time.Duration) *checkpointer {
	ck := &checkpointer{
		s:        s,
		dir:      dir,
		frames:   make(chan ckptFrame, 1024),
		tickStop: make(chan struct{}),
	}
	ck.writeWG.Add(1)
	go ck.writeLoop()
	ck.tickWG.Add(1)
	go ck.tickLoop(every)
	return ck
}

func (ck *checkpointer) tickLoop(every time.Duration) {
	defer ck.tickWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ck.tickStop:
			return
		case <-t.C:
			ck.sweep()
		}
	}
}

// sweep encodes each shard's dirty sessions under that shard's lock (so
// session state is read race-free) and hands the frames to the writer.
func (ck *checkpointer) sweep() {
	for _, sh := range ck.s.shards {
		for _, f := range sh.checkpoint() {
			ck.submit(f)
		}
	}
}

// submit offers a frame to the writer without blocking, so a stalled
// disk never stalls the sweep. A dropped frame is only a stale
// checkpoint — its session was marked clean, so it is written again
// after its next update, and the drain offload never goes through this
// queue.
func (ck *checkpointer) submit(f ckptFrame) {
	select {
	case ck.frames <- f:
	default:
		ck.dropped.Add(1)
	}
}

func (ck *checkpointer) writeLoop() {
	defer ck.writeWG.Done()
	for f := range ck.frames {
		if err := writeSnapshotFile(ck.dir, f.id, f.frame); err != nil {
			ck.writeErrs.Add(1)
		} else {
			ck.written.Add(1)
		}
	}
}

// stopTicker stops the periodic sweeps and waits out a running one.
// Called from quiesce, before the shards stop; the writer stays up
// until close.
func (ck *checkpointer) stopTicker() {
	close(ck.tickStop)
	ck.tickWG.Wait()
}

// close flushes and stops the writer. Callers must have stopped the
// ticker first: after close, a submit would panic on the closed
// channel, and the sweep is the only submitter.
func (ck *checkpointer) close() {
	ck.stopOnce.Do(func() {
		close(ck.frames)
		ck.writeWG.Wait()
	})
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
			s.counters.CorruptSnapshots.Add(1)
			continue
		}
		sess, err := snapshot.Decode(b)
		if err != nil {
			s.counters.CorruptSnapshots.Add(1)
			continue
		}
		if err := s.shardFor(sess.ID).installSnapshot(sess); err != nil {
			s.counters.CorruptSnapshots.Add(1)
			continue
		}
		s.counters.RestoredSessions.Add(1)
	}
	return nil
}

// offload snapshots every live session after quiesce and gets each one
// somewhere safe: streamed to the handoff peer when configured (with
// retries, falling back to disk), else spilled to the checkpoint
// directory. Returns an error naming the sessions that ended up with
// nowhere to go.
func (s *Server) offload() error {
	if s.ckpt != nil {
		// Flush pending periodic checkpoint writes first so the spill
		// below cannot race the writer on the same files.
		s.ckpt.close()
	}
	var frames []ckptFrame
	for _, sh := range s.shards {
		for _, sess := range sh.sessions {
			b, err := sh.appendFrame(nil, sess)
			if err != nil {
				s.counters.LostSessions.Add(1)
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
			s.counters.LostSessions.Add(1)
			return
		}
		if err := writeSnapshotFile(s.cfg.CheckpointDir, f.id, f.frame); err != nil {
			s.counters.LostSessions.Add(1)
		} else {
			s.counters.SpilledSessions.Add(1)
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
					s.counters.HandoffSessions.Add(1)
				} else {
					s.counters.HandoffFailed.Add(1)
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
			s.counters.HandoffRetries.Add(1)
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
	if lost := s.counters.LostSessions.Load(); lost > 0 {
		return fmt.Errorf("serve: %d sessions lost at drain (handoff and spill both failed)", lost)
	}
	return nil
}
