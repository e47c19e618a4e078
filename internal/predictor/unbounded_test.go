package predictor

import (
	"math/rand"
	"testing"
	"unsafe"

	"pathtrace/internal/trace"
)

// TestUBTableMatchesMap drives ubTable and a Go map through the same
// seeded mix of lookups and stores, enough to grow the table from 64
// slots to 16384. Half the keys share their low 32 bits with another
// key, so they land on the same home slot at every size and must be
// told apart by the full-key compare. A slot is a key plus one packed
// correlated entry, 24 bytes.
func TestUBTableMatchesMap(t *testing.T) {
	if got := unsafe.Sizeof(ubSlot{}); got != 24 {
		t.Fatalf("ubSlot is %d bytes, want 24", got)
	}
	rng := rand.New(rand.NewSource(7))
	keys := make([]uint64, 6000)
	for i := range keys {
		keys[i] = rng.Uint64()
		if i%2 == 1 {
			keys[i] = keys[i-1]&0xffffffff | uint64(i)<<40
		}
	}
	tab := newUBTable()
	ref := make(map[uint64]corrEntry)
	for op := 0; op < 60000; op++ {
		// Draw from a growing prefix of keys so both hits and fresh
		// inserts stay common throughout.
		key := keys[rng.Intn(1+op*len(keys)/60000)]
		i := tab.find(key)
		s := tab.slots[i]
		want, ok := ref[key]
		if used := s.e.w&entValid != 0; used != ok || ok && (s.key != key || s.e != want) {
			t.Fatalf("op %d: find(%#x) = slot %+v, map has %+v (present %v)", op, key, s, want, ok)
		}
		if rng.Intn(3) > 0 {
			e := corrEntry{w: rng.Uint64() | entValid, alt: rng.Uint64()}
			tab.set(i, key, e)
			ref[key] = e
		}
		if tab.n != len(ref) {
			t.Fatalf("op %d: table counts %d entries, map %d", op, tab.n, len(ref))
		}
	}
	if len(tab.slots) != 16384 {
		t.Errorf("table ended at %d slots, want 16384 (%d entries)", len(tab.slots), tab.n)
	}
	used := 0
	for _, s := range tab.slots {
		if s.e.w&entValid == 0 {
			continue
		}
		used++
		if want, ok := ref[s.key]; !ok || s.e != want {
			t.Errorf("slot for %#x holds %+v, map has %+v (present %v)", s.key, s.e, want, ok)
		}
	}
	if used != len(ref) {
		t.Errorf("%d used slots, map has %d keys", used, len(ref))
	}
}

// TestUnboundedFig6Pinned pins the exact Stats and table size of all 24
// Figure 6 predictors (correlated, hybrid and hybrid+RHS at depths 0-7)
// on two workloads at a 300k-instruction prefix. The values were
// recorded with map-backed tables; any change to the unbounded tables
// that moves one of them moves a Figure 6 number.
func TestUnboundedFig6Pinned(t *testing.T) {
	variants := []Config{{}, {Hybrid: true}, {Hybrid: true, UseRHS: true}}
	want := []struct {
		workload string
		variant  int // index into variants
		depth    int
		stats    Stats
		entries  int
	}{
		{"compress", 0, 0, Stats{23134, 20678, 36, 0, 2044, 2399}, 36},
		{"compress", 0, 1, Stats{23134, 20695, 69, 0, 1989, 2338}, 69},
		{"compress", 0, 2, Stats{23134, 20649, 112, 0, 1992, 2326}, 112},
		{"compress", 0, 3, Stats{23134, 20644, 174, 0, 1949, 2235}, 174},
		{"compress", 0, 4, Stats{23134, 20556, 281, 0, 1908, 2189}, 281},
		{"compress", 0, 5, Stats{23134, 20436, 414, 0, 1863, 2147}, 414},
		{"compress", 0, 6, Stats{23134, 20289, 581, 0, 1819, 2074}, 581},
		{"compress", 0, 7, Stats{23134, 20061, 812, 0, 1779, 2033}, 812},
		{"compress", 1, 0, Stats{23134, 20678, 36, 11040, 1901, 2228}, 36},
		{"compress", 1, 1, Stats{23134, 20717, 36, 11066, 1845, 2167}, 62},
		{"compress", 1, 2, Stats{23134, 20697, 36, 11093, 1860, 2168}, 93},
		{"compress", 1, 3, Stats{23134, 20733, 36, 11152, 1813, 2084}, 154},
		{"compress", 1, 4, Stats{23134, 20728, 36, 11222, 1774, 2040}, 224},
		{"compress", 1, 5, Stats{23134, 20726, 36, 11310, 1728, 1997}, 316},
		{"compress", 1, 6, Stats{23134, 20700, 36, 11466, 1691, 1929}, 473},
		{"compress", 1, 7, Stats{23134, 20659, 36, 11613, 1651, 1888}, 621},
		{"compress", 2, 0, Stats{23134, 20678, 36, 11040, 1901, 2228}, 36},
		{"compress", 2, 1, Stats{23134, 20717, 36, 11066, 1845, 2167}, 62},
		{"compress", 2, 2, Stats{23134, 20697, 36, 11093, 1860, 2168}, 93},
		{"compress", 2, 3, Stats{23134, 20733, 36, 11152, 1813, 2084}, 154},
		{"compress", 2, 4, Stats{23134, 20728, 36, 11222, 1774, 2040}, 224},
		{"compress", 2, 5, Stats{23134, 20729, 36, 11233, 1769, 2036}, 235},
		{"compress", 2, 6, Stats{23134, 20726, 36, 11312, 1728, 1997}, 318},
		{"compress", 2, 7, Stats{23134, 20717, 36, 11360, 1727, 1989}, 366},
		{"mksim", 0, 0, Stats{29290, 17102, 16, 0, 1875, 12169}, 16},
		{"mksim", 0, 1, Stats{29290, 23588, 29, 0, 3204, 5668}, 29},
		{"mksim", 0, 2, Stats{29290, 25586, 39, 0, 2397, 3659}, 39},
		{"mksim", 0, 3, Stats{29290, 28334, 49, 0, 805, 902}, 49},
		{"mksim", 0, 4, Stats{29290, 28380, 57, 0, 752, 849}, 57},
		{"mksim", 0, 5, Stats{29290, 28429, 64, 0, 697, 793}, 64},
		{"mksim", 0, 6, Stats{29290, 28423, 70, 0, 697, 793}, 70},
		{"mksim", 0, 7, Stats{29290, 28417, 76, 0, 697, 793}, 76},
		{"mksim", 1, 0, Stats{29290, 17102, 16, 14703, 1875, 12169}, 16},
		{"mksim", 1, 1, Stats{29290, 23596, 16, 14716, 3204, 5668}, 29},
		{"mksim", 1, 2, Stats{29290, 25598, 16, 14725, 2397, 3659}, 38},
		{"mksim", 1, 3, Stats{29290, 28350, 16, 14735, 805, 902}, 48},
		{"mksim", 1, 4, Stats{29290, 28400, 16, 14743, 752, 849}, 56},
		{"mksim", 1, 5, Stats{29290, 28450, 16, 14750, 697, 793}, 63},
		{"mksim", 1, 6, Stats{29290, 28449, 16, 14756, 697, 793}, 69},
		{"mksim", 1, 7, Stats{29290, 28447, 16, 14761, 697, 793}, 74},
		{"mksim", 2, 0, Stats{29290, 17102, 16, 14703, 1875, 12169}, 16},
		{"mksim", 2, 1, Stats{29290, 23596, 16, 14716, 3204, 5668}, 29},
		{"mksim", 2, 2, Stats{29290, 25598, 16, 14725, 2397, 3659}, 38},
		{"mksim", 2, 3, Stats{29290, 28350, 16, 14735, 805, 902}, 48},
		{"mksim", 2, 4, Stats{29290, 28400, 16, 14743, 752, 849}, 56},
		{"mksim", 2, 5, Stats{29290, 28450, 16, 14750, 697, 793}, 63},
		{"mksim", 2, 6, Stats{29290, 28449, 16, 14756, 697, 793}, 69},
		{"mksim", 2, 7, Stats{29290, 28447, 16, 14761, 697, 793}, 74},
	}
	traces := map[string][]trace.Trace{}
	for _, w := range want {
		trs, ok := traces[w.workload]
		if !ok {
			trs = captureTraces(t, w.workload, 300_000)
			traces[w.workload] = trs
		}
		cfg := variants[w.variant]
		cfg.Depth = w.depth
		u := mustUnbounded(t, cfg)
		runScalar(u, trs)
		if got := u.Stats(); got != w.stats || u.TableEntries() != w.entries {
			t.Errorf("%s %+v: stats %+v, %d entries; want %+v, %d entries",
				w.workload, cfg, got, u.TableEntries(), w.stats, w.entries)
		}
	}
}
