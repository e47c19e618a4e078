package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"pathtrace/internal/isa"
	"pathtrace/internal/trace"
)

// Stream files let a sweep skip simulation across process runs: the
// paper's own methodology records each benchmark's dynamic trace stream
// once and feeds the file to every predictor configuration. The format
// is a flat little-endian dump of the stream's arrays behind a
// self-describing key header, with a CRC so a truncated or corrupted
// file is rejected instead of replayed.
//
// Layout (all little-endian):
//
//	magic     "NTPSTRM2"
//	workload  u16 length + bytes
//	params    u16 length + bytes (the workload's generator
//	          parameterization, "" for the fixed benchmarks)
//	limit     u64
//	sel       u32 MaxLen, u32 MaxBranches, u8 flags (bit0 = BreakOnLoopClosure)
//	instrs    u64
//	counts    u32 records, u32 branches, u32 mems
//	records   36 bytes each (see encodeRecord)
//	branches  10 bytes each
//	mems      5 bytes each
//	crc32     u32 (IEEE, over everything after the magic)
const diskMagic = "NTPSTRM2"

const (
	diskHeaderBytes = 37 // limit + sel + instrs + counts (after the workload name)
	diskRecordBytes = 36
	diskBranchBytes = 10
	diskMemBytes    = 5
)

// ErrCorrupt reports a stream file that failed structural or checksum
// validation.
var ErrCorrupt = errors.New("stream: corrupt stream file")

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// paramsHash digests a workload parameterization for file names and
// key rendering (the full string lives in the file header; the name
// only needs to be collision-resistant across a directory).
func paramsHash(params string) uint32 {
	return crc32.ChecksumIEEE([]byte(params))
}

// Filename returns the file name a stream with this key is saved under:
// workload, limit and selection are all spelled out so a directory of
// streams is self-describing and distinct keys never collide. A
// parameterized workload (non-empty Params) additionally carries a
// digest of its parameters, so two same-name/different-seed synthetic
// workloads never share a file; LoadKey's header check backstops the
// digest with the full string.
func (k Key) Filename() string {
	name := k.Workload
	if k.Params != "" {
		name = fmt.Sprintf("%s@%08x", k.Workload, paramsHash(k.Params))
	}
	name = fmt.Sprintf("%s_%d_%d-%d", name, k.Limit, k.Sel.MaxLen, k.Sel.MaxBranches)
	if k.Sel.BreakOnLoopClosure {
		name += "-loop"
	}
	return name + ".ntps"
}

// Encode writes the stream to w in the stream-file format.
func (s *Stream) Encode(w io.Writer) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<16)
	if _, err := w.Write([]byte(diskMagic)); err != nil {
		return err
	}
	var buf [diskHeaderBytes]byte
	le := binary.LittleEndian
	le.PutUint16(buf[:], uint16(len(s.key.Workload)))
	bw.Write(buf[:2])
	bw.WriteString(s.key.Workload)
	le.PutUint16(buf[:], uint16(len(s.key.Params)))
	bw.Write(buf[:2])
	bw.WriteString(s.key.Params)
	le.PutUint64(buf[:], s.key.Limit)
	le.PutUint32(buf[8:], uint32(s.key.Sel.MaxLen))
	le.PutUint32(buf[12:], uint32(s.key.Sel.MaxBranches))
	buf[16] = 0
	if s.key.Sel.BreakOnLoopClosure {
		buf[16] = 1
	}
	le.PutUint64(buf[17:], s.instrs)
	le.PutUint32(buf[25:], uint32(len(s.recs)))
	le.PutUint32(buf[29:], uint32(len(s.branches)))
	le.PutUint32(buf[33:], uint32(len(s.mems)))
	bw.Write(buf[:diskHeaderBytes])
	for i := range s.recs {
		encodeRecord(buf[:diskRecordBytes], &s.recs[i])
		bw.Write(buf[:diskRecordBytes])
	}
	for i := range s.branches {
		b := &s.branches[i]
		le.PutUint32(buf[:], b.PC)
		le.PutUint32(buf[4:], b.Target)
		buf[8] = uint8(b.Ctrl)
		buf[9] = 0
		if b.Taken {
			buf[9] = 1
		}
		bw.Write(buf[:diskBranchBytes])
	}
	for i := range s.mems {
		m := &s.mems[i]
		le.PutUint32(buf[:], m.Addr)
		buf[4] = 0
		if m.Store {
			buf[4] = 1
		}
		bw.Write(buf[:diskMemBytes])
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	le.PutUint32(buf[:], crc.Sum32())
	_, err := w.Write(buf[:4])
	return err
}

func encodeRecord(buf []byte, r *record) {
	le := binary.LittleEndian
	le.PutUint64(buf[:], uint64(r.id))
	le.PutUint16(buf[8:], uint16(r.hash))
	le.PutUint32(buf[10:], r.startPC)
	le.PutUint32(buf[14:], r.nextPC)
	le.PutUint32(buf[18:], r.brOff)
	le.PutUint32(buf[22:], r.memOff)
	le.PutUint16(buf[26:], r.length)
	le.PutUint16(buf[28:], r.calls)
	le.PutUint16(buf[30:], r.numCtrl)
	le.PutUint16(buf[32:], r.numMem)
	buf[34] = r.numBr
	buf[35] = r.flags
}

// Decode reads a stream in the stream-file format, validating the magic
// and checksum, the internal consistency of every record's offsets, and
// that every record's identifier fits trace.IDBits and hashes to the
// record's hash.
func Decode(r io.Reader) (*Stream, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: short magic", ErrCorrupt)
	}
	if string(magic[:]) != diskMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, magic[:])
	}
	// The checksum is computed over exactly the bytes parsed (the
	// buffered reader reads ahead, so a TeeReader would hash the CRC
	// trailer into itself); readFull hashes what it consumes.
	crc := crc32.NewIEEE()
	br := bufio.NewReaderSize(r, 1<<16)
	var buf [diskHeaderBytes]byte
	le := binary.LittleEndian
	readFull := func(b []byte, what string) error {
		if _, err := io.ReadFull(br, b); err != nil {
			return fmt.Errorf("%w: short %s", ErrCorrupt, what)
		}
		crc.Write(b)
		return nil
	}
	if err := readFull(buf[:2], "header"); err != nil {
		return nil, err
	}
	nameLen := int(le.Uint16(buf[:]))
	name := make([]byte, nameLen)
	if err := readFull(name, "workload name"); err != nil {
		return nil, err
	}
	if err := readFull(buf[:2], "params length"); err != nil {
		return nil, err
	}
	params := make([]byte, int(le.Uint16(buf[:])))
	if err := readFull(params, "params"); err != nil {
		return nil, err
	}
	if err := readFull(buf[:diskHeaderBytes], "header"); err != nil {
		return nil, err
	}
	s := &Stream{key: Key{
		Workload: string(name),
		Params:   string(params),
		Limit:    le.Uint64(buf[:]),
		Sel: trace.Config{
			MaxLen:             int(le.Uint32(buf[8:])),
			MaxBranches:        int(le.Uint32(buf[12:])),
			BreakOnLoopClosure: buf[16]&1 != 0,
		},
	}}
	s.instrs = le.Uint64(buf[17:])
	nRecs := int(le.Uint32(buf[25:]))
	nBranches := int(le.Uint32(buf[29:]))
	nMems := int(le.Uint32(buf[33:]))
	// Bound the up-front allocations: a corrupt count field must fail
	// cheaply (the subsequent reads would catch it anyway, but only
	// after a multi-gigabyte make).
	const maxElems = 1 << 28
	if nRecs > maxElems || nBranches > maxElems || nMems > maxElems {
		return nil, fmt.Errorf("%w: implausible element counts %d/%d/%d", ErrCorrupt, nRecs, nBranches, nMems)
	}
	// Grow the arrays as elements are actually read instead of trusting
	// the count fields with one huge make: every element costs input
	// bytes, so a lying header fails at the first short read having
	// allocated at most ~2x the bytes the attacker really sent.
	const chunkElems = 1 << 16
	s.recs = make([]record, 0, minInt(nRecs, chunkElems))
	for i := 0; i < nRecs; i++ {
		if err := readFull(buf[:diskRecordBytes], "record"); err != nil {
			return nil, err
		}
		s.recs = append(s.recs, record{})
		rec := &s.recs[i]
		rec.id = trace.ID(le.Uint64(buf[:]))
		rec.hash = trace.HashedID(le.Uint16(buf[8:]))
		rec.startPC = le.Uint32(buf[10:])
		rec.nextPC = le.Uint32(buf[14:])
		rec.brOff = le.Uint32(buf[18:])
		rec.memOff = le.Uint32(buf[22:])
		rec.length = le.Uint16(buf[26:])
		rec.calls = le.Uint16(buf[28:])
		rec.numCtrl = le.Uint16(buf[30:])
		rec.numMem = le.Uint16(buf[32:])
		rec.numBr = buf[34]
		rec.flags = buf[35]
		if int(rec.brOff)+int(rec.numCtrl) > nBranches || int(rec.memOff)+int(rec.numMem) > nMems {
			return nil, fmt.Errorf("%w: record %d offsets out of range", ErrCorrupt, i)
		}
		// A trace's hash is a function of its identifier; a stream
		// that says otherwise would replay differently in process than
		// served, where the hash is derived.
		if rec.id>>trace.IDBits != 0 || rec.hash != rec.id.Hash() {
			return nil, fmt.Errorf("%w: record %d id %#x with hash %#x", ErrCorrupt, i, uint64(rec.id), rec.hash)
		}
	}
	s.branches = make([]trace.Branch, 0, minInt(nBranches, chunkElems))
	for i := 0; i < nBranches; i++ {
		if err := readFull(buf[:diskBranchBytes], "branch"); err != nil {
			return nil, err
		}
		s.branches = append(s.branches, trace.Branch{
			PC:     le.Uint32(buf[:]),
			Target: le.Uint32(buf[4:]),
			Ctrl:   isa.CtrlClass(buf[8]),
			Taken:  buf[9]&1 != 0,
		})
	}
	s.mems = make([]trace.MemRef, 0, minInt(nMems, chunkElems))
	for i := 0; i < nMems; i++ {
		if err := readFull(buf[:diskMemBytes], "mem"); err != nil {
			return nil, err
		}
		s.mems = append(s.mems, trace.MemRef{Addr: le.Uint32(buf[:]), Store: buf[4]&1 != 0})
	}
	sum := crc.Sum32() // the trailer itself is not part of the checksum
	if _, err := io.ReadFull(br, buf[:4]); err != nil {
		return nil, fmt.Errorf("%w: short checksum", ErrCorrupt)
	}
	if got := le.Uint32(buf[:]); got != sum {
		return nil, fmt.Errorf("%w: checksum mismatch (file %08x, computed %08x)", ErrCorrupt, got, sum)
	}
	return s, nil
}

// Save writes the stream into dir (created if missing) under its key's
// Filename, atomically: the file appears only once fully written, so a
// concurrent Load never sees a partial stream.
func (s *Stream) Save(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, s.key.Filename())
	tmp, err := os.CreateTemp(dir, ".ntps-*")
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp.Name())
	if err := s.Encode(tmp); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Close(); err != nil {
		return "", err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", err
	}
	return path, nil
}

// Load reads one stream file.
func Load(path string) (*Stream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// LoadKey loads the stream for key from dir, verifying the file's
// header matches the requested key (a renamed or stale file must not
// silently stand in for a different capture). A missing file reports
// os.ErrNotExist.
func LoadKey(dir string, key Key) (*Stream, error) {
	s, err := Load(filepath.Join(dir, key.Filename()))
	if err != nil {
		return nil, err
	}
	if s.key != key {
		return nil, fmt.Errorf("%w: %s holds key %v, want %v", ErrCorrupt, key.Filename(), s.key, key)
	}
	return s, nil
}
