package predictor

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// This file is the backend registry: every predictor variant — the
// paper's basic/hybrid/cost-reduced designs, the unbounded-table
// idealisation, and modern contenders like TAGE — registers itself as a
// named Backend, and everything above this package (serving, snapshots,
// experiments, the CLIs) selects variants by name instead of switching
// on concrete types. New backends plug in without touching the serving
// or snapshot layers: a descriptor supplies construction plus optional
// save/restore codec hooks, and snapshot frames carry the backend name
// so a session restores through the same codec that saved it.

// Backend describes one registered predictor variant.
type Backend struct {
	// Name is the registry key ("hybrid", "tage", ...), the value of
	// Config.Backend, ntpd's -backend/-shadow flags, and the backend tag
	// stored in snapshot frames.
	Name string

	// Family groups backends whose saved states are mutually
	// intelligible. The paper variants share one codec (and one family),
	// so a frame saved by a cost-reduced server can restore on a server
	// whose geometry matches; a TAGE frame can never install into a
	// hybrid session, whatever its bytes claim.
	Family string

	// Desc is a one-line human description for listings.
	Desc string

	// New builds a predictor for this backend. Implementations normalise
	// cfg themselves (forcing the variant-selection fields they imply)
	// and reject configurations they cannot honour.
	New func(cfg Config) (NextTracePredictor, error)

	// Append serializes a predictor's complete state as this backend's
	// state section, appended to dst, and Restore rebuilds a predictor
	// from one. Append returns the extended slice; on error, dst is
	// returned as passed. Both nil marks the backend not snapshottable
	// (the unbounded idealisation); serving rejects snapshot ops for it
	// but serves it fine otherwise.
	Append  func(dst []byte, p NextTracePredictor) ([]byte, error)
	Restore func(state []byte, cfg Config) (NextTracePredictor, error)

	// The delta hooks let a holder of a state section keep it current
	// from the entries written since it was taken, instead of the whole
	// state again. All three or none, and only beside Append/Restore;
	// nil marks a backend whose holders always refetch the full state.
	//
	// Mark records that p's complete state was just shipped: from now
	// on p records the slots it writes. AppendDelta appends the delta
	// from the last mark to now, then marks p again; it fails with
	// ErrNoMark when p was never marked, and on any error returns dst as
	// passed and keeps the record. MergeDelta validates a delta against
	// the state section it is relative to and appends to plan the
	// splices that turn that section into the current state; their
	// literals alias delta or lits, scratch the caller keeps until it has
	// applied the plan. x is the section's MergeIndex, which the caller
	// keeps beside the section: MergeDelta builds it on first use and
	// marks an accepted delta's new entries in it, so the caller must
	// apply every plan it is given. Beyond that it writes nothing, so a
	// rejected delta leaves the section and x as they were.
	Mark        func(p NextTracePredictor) error
	AppendDelta func(dst []byte, p NextTracePredictor) ([]byte, error)
	MergeDelta  func(plan []Splice, lits *[MergeLits]byte, x *MergeIndex, state, delta []byte) ([]Splice, error)
}

// Save returns a predictor's state section in a new slice.
func (b Backend) Save(p NextTracePredictor) ([]byte, error) { return b.Append(nil, p) }

// Typed errors of the Append/Restore hooks.
var (
	// ErrNotSnapshottable reports a predictor variant without full-state
	// save support (the unbounded study variants).
	ErrNotSnapshottable = errors.New("predictor: variant not snapshottable")
	// ErrStateMismatch reports a saved state whose geometry differs from
	// the restoring configuration — restoring it would silently change
	// what the session predicts, so it is refused.
	ErrStateMismatch = errors.New("predictor: saved state incompatible with config")
	// ErrBadState reports a structurally invalid saved state (index out
	// of range, counter overflow, malformed history).
	ErrBadState = errors.New("predictor: invalid saved state")
)

// Snapshottable reports whether the backend carries save/restore codec
// hooks.
func (b Backend) Snapshottable() bool { return b.Append != nil && b.Restore != nil }

// Incremental reports whether the backend carries the delta hooks.
func (b Backend) Incremental() bool { return b.AppendDelta != nil }

var (
	backendMu  sync.RWMutex
	backendMap = map[string]Backend{}
)

// RegisterBackend adds a backend to the registry. It panics on a
// duplicate or malformed descriptor — registration is an init-time
// programming act, not a runtime input.
func RegisterBackend(b Backend) {
	if b.Name == "" || b.Family == "" || b.New == nil {
		panic(fmt.Sprintf("predictor: malformed backend descriptor %+v", b))
	}
	if (b.Append == nil) != (b.Restore == nil) {
		panic(fmt.Sprintf("predictor: backend %q has only one of Append/Restore", b.Name))
	}
	if d := (b.Mark != nil); d != (b.AppendDelta != nil) || d != (b.MergeDelta != nil) || d && !b.Snapshottable() {
		panic(fmt.Sprintf("predictor: backend %q needs all three delta hooks and Append/Restore, or no delta hooks", b.Name))
	}
	backendMu.Lock()
	defer backendMu.Unlock()
	if _, dup := backendMap[b.Name]; dup {
		panic(fmt.Sprintf("predictor: duplicate backend %q", b.Name))
	}
	backendMap[b.Name] = b
}

// BackendByName finds a registered backend.
func BackendByName(name string) (Backend, bool) {
	backendMu.RLock()
	defer backendMu.RUnlock()
	b, ok := backendMap[name]
	return b, ok
}

// Backends lists every registered backend, sorted by name.
func Backends() []Backend {
	backendMu.RLock()
	defer backendMu.RUnlock()
	out := make([]Backend, 0, len(backendMap))
	for _, b := range backendMap {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// BackendNames lists the registered backend names, sorted.
func BackendNames() []string {
	bs := Backends()
	names := make([]string, len(bs))
	for i, b := range bs {
		names[i] = b.Name
	}
	return names
}

// ResolveBackend maps a Config to its backend. An explicit
// Config.Backend wins; otherwise the legacy variant-selection fields
// pick the paper backend ("hybrid" when cfg.Hybrid, else "basic"), so
// every pre-registry configuration keeps meaning exactly what it meant.
func ResolveBackend(cfg Config) (Backend, error) {
	name := cfg.Backend
	if name == "" {
		if cfg.Hybrid {
			name = "hybrid"
		} else {
			name = "basic"
		}
	}
	b, ok := BackendByName(name)
	if !ok {
		return Backend{}, fmt.Errorf("predictor: unknown backend %q (registered: %v)", name, BackendNames())
	}
	return b, nil
}

// FamilyPaper is the shared snapshot family of the 1997 paper variants.
const FamilyPaper = "paper"

func init() {
	RegisterBackend(Backend{
		Name:   "basic",
		Family: FamilyPaper,
		Desc:   "single-table correlated path predictor (§3.2)",
		New: func(cfg Config) (NextTracePredictor, error) {
			// basic has no secondary table and no RHS: it ignores both
			// flags, as tage ignores UseRHS, so one flag set builds
			// every backend.
			cfg.Hybrid = false
			cfg.UseRHS = false
			full, err := cfg.withDefaults()
			if err != nil {
				return nil, err
			}
			return newHybrid(full)
		},
		Append:      paperAppend,
		Restore:     paperRestore,
		Mark:        paperMark,
		AppendDelta: paperAppendDelta,
		MergeDelta:  paperMergeDelta,
	})
	RegisterBackend(Backend{
		Name:   "hybrid",
		Family: FamilyPaper,
		Desc:   "hybrid correlated + secondary predictor, optional RHS (§3.3–3.4)",
		New: func(cfg Config) (NextTracePredictor, error) {
			cfg.Hybrid = true
			full, err := cfg.withDefaults()
			if err != nil {
				return nil, err
			}
			return newHybrid(full)
		},
		Append:      paperAppend,
		Restore:     paperRestore,
		Mark:        paperMark,
		AppendDelta: paperAppendDelta,
		MergeDelta:  paperMergeDelta,
	})
	RegisterBackend(Backend{
		Name:   "costreduced",
		Family: FamilyPaper,
		Desc:   "hybrid storing hashed trace identifiers only (§5.5)",
		New: func(cfg Config) (NextTracePredictor, error) {
			cfg.Hybrid = true
			cfg.CostReduced = true
			full, err := cfg.withDefaults()
			if err != nil {
				return nil, err
			}
			return newHybrid(full)
		},
		Append: paperAppend,
		Restore: func(state []byte, cfg Config) (NextTracePredictor, error) {
			// Normalise exactly like New, so a config that builds this
			// backend also restores it.
			cfg.CostReduced = true
			return paperRestore(state, cfg)
		},
		Mark:        paperMark,
		AppendDelta: paperAppendDelta,
		MergeDelta:  paperMergeDelta,
	})
	RegisterBackend(Backend{
		Name:   "unbounded",
		Family: "unbounded",
		Desc:   "unbounded-table idealisation (§5.2); not snapshottable",
		New: func(cfg Config) (NextTracePredictor, error) {
			full, err := cfg.withDefaults()
			if err != nil {
				return nil, err
			}
			return newUnbounded(full)
		},
	})
	RegisterBackend(Backend{
		Name:   "tage",
		Family: "tage",
		Desc:   "TAGE-style tagged tables over geometric path-history lengths",
		New: func(cfg Config) (NextTracePredictor, error) {
			full, err := cfg.withDefaults()
			if err != nil {
				return nil, err
			}
			return newTage(full)
		},
		Append:  tageAppend,
		Restore: tageRestore,
	})
}
