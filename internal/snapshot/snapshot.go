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
// per-backend state section whose layout the backend's codec
// (predictor.Backend.Append/Restore) defines. The snapshot package owns
// the envelope — framing, checksum, session bookkeeping, backend tag —
// and backends own their state bytes, so a new predictor backend needs
// no snapshot-layer change to become crash-safe.
//
// A holder that refreshes a session's frame often need not fetch it
// whole each time: a delta envelope (delta.go) carries what changed
// since a frame it holds, and Held merges it into that frame in place.
//
// Version policy: the version byte identifies the payload layout.
// Decoders reject versions they do not know (ErrVersion) rather than
// guessing; any layout change — even an additive one — bumps the
// version, because frames are consumed across process generations
// (checkpoints and drain spills on disk, read by the next release)
// where silent misinterpretation would corrupt a session rather than
// just crash it.
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
	dst := make([]byte, 0, minFrame+sessionHeaderBytes+1+len(s.Backend)+4+len(s.State))
	dst, err := AppendFrame(dst, s.ID, s.LastSeq, s.Backend, func(b []byte) ([]byte, error) {
		return append(b, s.State...), nil
	})
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// AppendFrame appends one checksummed frame to dst: the session header
// and backend tag, then the state section that state appends in place,
// then the checksum. The state is written once, straight into dst, so a
// caller that reuses dst encodes a snapshot without allocating. It
// applies Encode's checks, and on any error returns dst with nothing
// appended.
func AppendFrame(dst []byte, id, lastSeq uint64, backend string, state func([]byte) ([]byte, error)) ([]byte, error) {
	if _, ok := predictor.BackendByName(backend); !ok {
		return dst, fmt.Errorf("snapshot: session %#x: backend %q is not registered", id, backend)
	}
	return appendEnvelope(dst, magic, Version, id, lastSeq, backend, state)
}

// appendEnvelope appends one checksummed envelope — a full frame or a
// delta, told apart by mg and version — to dst: the header, the session
// header and backend tag, then the section that section appends in
// place behind its length word, then the checksum. It refuses a bad
// tag, an empty section and an envelope over MaxEncoded, and on any
// error returns dst with nothing appended.
func appendEnvelope(dst []byte, mg [4]byte, version uint8, id, lastSeq uint64, backend string, section func([]byte) ([]byte, error)) ([]byte, error) {
	start := len(dst)
	if len(backend) == 0 || len(backend) > 0xFF {
		return dst, fmt.Errorf("snapshot: session %#x: backend tag %q length outside [1, 255]", id, backend)
	}
	le := binary.LittleEndian
	b := append(dst, mg[:]...)
	b = append(b, version)
	b = le.AppendUint64(b, id)
	b = le.AppendUint64(b, lastSeq)
	b = le.AppendUint64(b, 0) // reserved
	b = append(b, uint8(len(backend)))
	b = append(b, backend...)
	lenAt := len(b)
	b = le.AppendUint32(b, 0) // section length, patched below
	b, err := section(b)
	if err != nil {
		return dst[:start], fmt.Errorf("snapshot: session %#x: %w", id, err)
	}
	n := len(b) - lenAt - 4
	if n == 0 {
		return dst[:start], fmt.Errorf("snapshot: session %#x: empty section", id)
	}
	if size := len(b) - start + checksumBytes; size > MaxEncoded {
		return dst[:start], fmt.Errorf("snapshot: session %#x encodes to %d bytes > max %d", id, size, MaxEncoded)
	}
	le.PutUint32(b[lenAt:], uint32(n))
	return le.AppendUint32(b, crc32.ChecksumIEEE(b[start:])), nil
}

// Decode parses and validates a snapshot frame. The returned Session
// shares no memory with b.
func Decode(b []byte) (*Session, error) {
	env, err := openEnvelope(b, magic, Version, true)
	if err != nil {
		return nil, err
	}
	s := &Session{ID: env.id, LastSeq: env.lastSeq, Backend: string(env.tag)}
	if _, ok := predictor.BackendByName(s.Backend); !ok {
		return nil, fmt.Errorf("%w: backend tag %q is not registered", ErrCorrupt, s.Backend)
	}
	s.State = append([]byte(nil), env.section...)
	return s, nil
}

// envelope is a parsed frame or delta envelope. tag and section alias
// the parsed bytes.
type envelope struct {
	id, lastSeq  uint64
	tag, section []byte
}

// openEnvelope parses b as an envelope with magic mg and the given
// version. It verifies the checksum only when verify is set: a held
// frame's is stale between merges. The envelope must carry exactly the
// bytes its lengths imply, with a non-empty tag and section.
func openEnvelope(b []byte, mg [4]byte, version uint8, verify bool) (envelope, error) {
	var env envelope
	if len(b) < minFrame {
		return env, fmt.Errorf("%w: %d bytes < minimum %d", ErrTruncated, len(b), minFrame)
	}
	if [4]byte(b[:4]) != mg {
		return env, fmt.Errorf("%w: %q", ErrMagic, b[:4])
	}
	if v := b[4]; v != version {
		return env, fmt.Errorf("%w: %q version %d (supported: %d)", ErrVersion, b[:4], v, version)
	}
	le := binary.LittleEndian
	body := b[:len(b)-checksumBytes]
	if verify {
		if got, sum := crc32.ChecksumIEEE(body), le.Uint32(b[len(body):]); got != sum {
			return env, fmt.Errorf("%w: computed %#x, envelope says %#x", ErrChecksum, got, sum)
		}
	}

	payload := body[headerBytes:]
	if len(payload) < sessionHeaderBytes {
		return env, fmt.Errorf("%w: payload %d bytes < session header %d", ErrCorrupt, len(payload), sessionHeaderBytes)
	}
	env.id, env.lastSeq = le.Uint64(payload), le.Uint64(payload[8:])
	rest := payload[sessionHeaderBytes:]
	if len(rest) < 1 || rest[0] == 0 {
		return env, fmt.Errorf("%w: missing or empty backend tag", ErrCorrupt)
	}
	tagLen := int(rest[0])
	if len(rest)-1 < tagLen+4 {
		return env, fmt.Errorf("%w: backend tag %d bytes and a length word, %d bytes remain", ErrCorrupt, tagLen, len(rest)-1)
	}
	env.tag, rest = rest[1:1+tagLen], rest[1+tagLen:]
	n, rest := int(le.Uint32(rest)), rest[4:]
	if n == 0 {
		return env, fmt.Errorf("%w: empty section", ErrCorrupt)
	}
	if n != len(rest) {
		return env, fmt.Errorf("%w: section length %d but %d bytes follow", ErrCorrupt, n, len(rest))
	}
	env.section = rest
	return env, nil
}
