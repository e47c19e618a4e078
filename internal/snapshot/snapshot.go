// Package snapshot implements the versioned, checksummed binary codec
// for serving-session snapshots: everything needed to resume a client's
// predictor session bit-identically on another process — the predictor
// backend's serialized state section plus the session's exactly-once
// cursor (the sequence number of its last applied trace).
//
// Frame layout (all integers little-endian):
//
//	magic   [4]byte "NTSS"
//	version u8      (currently 2)
//	payload [...]   (version-specific; see encodePayload)
//	crc32   u32     IEEE checksum of magic+version+payload
//
// The version-2 payload is backend-tagged: the session header is
// followed by the predictor backend's registered name and an opaque
// per-backend state section whose layout the backend's own codec
// (predictor.Backend.Save/Restore) defines. The snapshot package owns
// the envelope — framing, checksum, session bookkeeping, backend tag —
// and backends own their state bytes, so a new predictor backend needs
// no snapshot-layer change to become crash-safe.
//
// Version policy: the version byte identifies the payload layout.
// Decoders reject versions they do not know (ErrVersion) rather than
// guessing; any layout change — even an additive one — bumps the
// version, because frames are consumed across process generations
// (checkpoints on disk, drain handoffs between releases) where silent
// misinterpretation would corrupt a session rather than just crash it.
//
// Decode is strict: a frame must carry the exact payload its counts
// imply — no trailing garbage, no truncated sections — and every
// length read is bounded by the remaining input before any allocation
// is sized from it, so a corrupt or adversarial frame can neither panic
// the decoder nor make it allocate beyond O(len(input)).
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"pathtrace/internal/predictor"
)

// Typed decode errors. Decode never returns a partially filled Session
// alongside an error.
var (
	// ErrTruncated reports a frame too short to hold even the header and
	// checksum.
	ErrTruncated = errors.New("snapshot: frame truncated")
	// ErrMagic reports a frame that does not start with the snapshot
	// magic — not a snapshot at all.
	ErrMagic = errors.New("snapshot: bad magic")
	// ErrVersion reports a frame written by an unknown codec version.
	ErrVersion = errors.New("snapshot: unsupported version")
	// ErrChecksum reports a frame whose checksum does not match its
	// contents — a torn write or bit rot.
	ErrChecksum = errors.New("snapshot: checksum mismatch")
	// ErrCorrupt reports a frame whose checksum is intact but whose
	// structure is not (impossible counts, out-of-range fields, trailing
	// bytes, an unregistered backend tag) — a crafted or misframed
	// input.
	ErrCorrupt = errors.New("snapshot: corrupt frame")
)

const (
	// Version is the current frame layout version.
	Version = 2

	// MaxEncoded bounds an encoded frame. It comfortably holds a fully
	// populated serving predictor (64K correlated entries at 24 bytes
	// each is 1.5 MiB) and callers use it to size wire-protocol frame
	// limits; Encode refuses to emit a larger frame.
	MaxEncoded = 8 << 20

	headerBytes   = 5 // magic + version
	checksumBytes = 4
	minFrame      = headerBytes + checksumBytes

	// sessionHeaderBytes: ID + LastSeq + 8 reserved bytes. Encode
	// writes the reserved bytes as zero and Decode ignores them.
	sessionHeaderBytes = 8 + 8 + 8
)

var magic = [4]byte{'N', 'T', 'S', 'S'}

// Session is one serving session's complete resumable state.
type Session struct {
	// ID is the wire session identifier.
	ID uint64
	// LastSeq is the sequence number of the last applied trace — the
	// exactly-once cursor that makes a batch retried after a crash
	// train only its unseen suffix.
	LastSeq uint64
	// Backend is the registered predictor backend that produced State —
	// the frame's backend tag. Restore routes State through this
	// backend's codec, and serving refuses frames whose backend family
	// differs from the server's.
	Backend string
	// State is the backend's serialized predictor state, opaque to the
	// envelope.
	State []byte
}

// Encode serializes a session into a checksummed frame. It fails on a
// structurally invalid session (unknown or unregistered backend, empty
// state) or one whose frame would exceed MaxEncoded.
func Encode(s *Session) ([]byte, error) {
	if s == nil {
		return nil, fmt.Errorf("snapshot: encode nil session")
	}
	if len(s.Backend) == 0 || len(s.Backend) > 0xFF {
		return nil, fmt.Errorf("snapshot: session %#x: backend tag %q length outside [1, 255]", s.ID, s.Backend)
	}
	if b, ok := predictor.BackendByName(s.Backend); !ok || !b.Snapshottable() {
		return nil, fmt.Errorf("snapshot: session %#x: backend %q is not a registered snapshottable backend", s.ID, s.Backend)
	}
	if len(s.State) == 0 {
		return nil, fmt.Errorf("snapshot: session %#x: empty state section", s.ID)
	}

	b := make([]byte, 0, minFrame+sessionHeaderBytes+1+len(s.Backend)+4+len(s.State))
	b = append(b, magic[:]...)
	b = append(b, Version)
	le := binary.LittleEndian
	b = le.AppendUint64(b, s.ID)
	b = le.AppendUint64(b, s.LastSeq)
	b = le.AppendUint64(b, 0) // reserved
	b = append(b, uint8(len(s.Backend)))
	b = append(b, s.Backend...)
	b = le.AppendUint32(b, uint32(len(s.State)))
	b = append(b, s.State...)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	if len(b) > MaxEncoded {
		return nil, fmt.Errorf("snapshot: session %#x encodes to %d bytes > max %d",
			s.ID, len(b), MaxEncoded)
	}
	return b, nil
}

// Decode parses and validates a snapshot frame. The returned Session
// shares no memory with b.
func Decode(b []byte) (*Session, error) {
	if len(b) < minFrame {
		return nil, fmt.Errorf("%w: %d bytes < minimum %d", ErrTruncated, len(b), minFrame)
	}
	if [4]byte(b[:4]) != magic {
		return nil, fmt.Errorf("%w: %q", ErrMagic, b[:4])
	}
	if version := b[4]; version != Version {
		return nil, fmt.Errorf("%w: %d (supported: %d)", ErrVersion, version, Version)
	}
	body, sum := b[:len(b)-checksumBytes], binary.LittleEndian.Uint32(b[len(b)-checksumBytes:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("%w: computed %#x, frame says %#x", ErrChecksum, got, sum)
	}

	payload := body[headerBytes:]
	if len(payload) < sessionHeaderBytes {
		return nil, fmt.Errorf("%w: payload %d bytes < session header %d", ErrCorrupt, len(payload), sessionHeaderBytes)
	}
	le := binary.LittleEndian
	s := &Session{
		ID:      le.Uint64(payload),
		LastSeq: le.Uint64(payload[8:]),
	}
	rest := payload[sessionHeaderBytes:]

	// Backend tag + opaque state section.
	if len(rest) < 1 {
		return nil, fmt.Errorf("%w: missing backend tag", ErrCorrupt)
	}
	nameLen := int(rest[0])
	rest = rest[1:]
	if nameLen == 0 {
		return nil, fmt.Errorf("%w: empty backend tag", ErrCorrupt)
	}
	if len(rest) < nameLen {
		return nil, fmt.Errorf("%w: backend tag %d bytes, %d remain", ErrCorrupt, nameLen, len(rest))
	}
	s.Backend = string(rest[:nameLen])
	rest = rest[nameLen:]
	if b, ok := predictor.BackendByName(s.Backend); !ok || !b.Snapshottable() {
		return nil, fmt.Errorf("%w: backend tag %q is not a registered snapshottable backend", ErrCorrupt, s.Backend)
	}
	if len(rest) < 4 {
		return nil, fmt.Errorf("%w: missing state length", ErrCorrupt)
	}
	stateLen := int(le.Uint32(rest))
	rest = rest[4:]
	if stateLen == 0 {
		return nil, fmt.Errorf("%w: empty state section", ErrCorrupt)
	}
	if stateLen != len(rest) {
		return nil, fmt.Errorf("%w: state length %d but %d bytes follow", ErrCorrupt, stateLen, len(rest))
	}
	s.State = append([]byte(nil), rest...)
	return s, nil
}
