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
// on concrete types. Every backend carries the state codec (codec.go),
// so every one saves, restores and ships deltas alike, and snapshot
// frames carry the backend name so a session restores through the
// backend that saved it.

// Backend describes one registered predictor variant. Its methods are
// the state codec: Append/Save and Restore carry a predictor's whole
// state section, and Mark, AppendDelta and MergeDelta (delta.go) keep a
// holder of a section current from the entries changed since it was
// taken, instead of the whole state again.
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

	// head reads the head a state of this backend starts with and
	// returns what it says of the rest, checked on its own terms (its
	// tables are ones a Config may build), not against any config. It
	// is the backend's entry to the state codec, which every backend
	// carries (codec.go).
	head func(state []byte) (layout, error)
}

// Typed errors of the state codec.
var (
	// ErrStateMismatch reports a saved state whose geometry differs from
	// the restoring configuration — restoring it would silently change
	// what the session predicts, so it is refused.
	ErrStateMismatch = errors.New("predictor: saved state incompatible with config")
	// ErrBadState reports a structurally invalid saved state (index out
	// of range, counter overflow, malformed history).
	ErrBadState = errors.New("predictor: invalid saved state")
)

var (
	backendMu  sync.RWMutex
	backendMap = map[string]Backend{}
)

// RegisterBackend adds a backend to the registry. It panics on a
// duplicate or malformed descriptor, one without a state codec
// included — registration is an init-time programming act, not a
// runtime input.
func RegisterBackend(b Backend) {
	if b.Name == "" || b.Family == "" || b.New == nil || b.head == nil {
		panic(fmt.Sprintf("predictor: malformed backend descriptor %+v", b))
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
		head: paperHeadLayout,
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
		head: paperHeadLayout,
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
		head: paperHeadLayout,
	})
	RegisterBackend(Backend{
		Name:   "unbounded",
		Family: "unbounded",
		Desc:   "unbounded-table idealisation (§5.2)",
		New: func(cfg Config) (NextTracePredictor, error) {
			full, err := cfg.withDefaults()
			if err != nil {
				return nil, err
			}
			return newUnbounded(full)
		},
		head: ubHeadLayout,
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
		head: tageHeadLayout,
	})
}
