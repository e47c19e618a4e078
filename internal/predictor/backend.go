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
			return newBasic(full)
		},
		Append:  paperAppend,
		Restore: paperRestore,
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
		Append:  paperAppend,
		Restore: paperRestore,
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
			return NewUnbounded(UnboundedConfig{
				Depth: full.Depth, Hybrid: full.Hybrid,
				UseRHS: full.UseRHS, RHSDepth: full.RHSDepth,
				CounterBits: full.CounterBits, CounterInc: full.CounterInc,
				CounterDec: full.CounterDec, SecCounterBits: full.SecCounterBits,
				SecCounterDec: full.SecCounterDec, SecondaryFilter: full.SecondaryFilter,
			})
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
