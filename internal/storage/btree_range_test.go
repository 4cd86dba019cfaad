package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// rangeKey is the key of entry i in the range tests: fixed width, so
// key order is numeric order.
func rangeKey(i int) []byte { return []byte(fmt.Sprintf("k%05d", i)) }

// newRangeTree builds a tree holding rangeKey(i) for i in [0, n) with
// 60-byte values, so a 4 KiB leaf holds a few dozen entries and the
// tree spans many leaves. The pool is large enough to keep every page
// resident.
func newRangeTree(t *testing.T, n int) (*BTree, *Pool) {
	t.Helper()
	pool := NewPool(512)
	f := newTestFile(t, pool)
	bt, err := CreateBTree(f)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 60)
	for _, i := range rand.New(rand.NewSource(7)).Perm(n) {
		if err := bt.Put(rangeKey(i), val); err != nil {
			t.Fatal(err)
		}
	}
	return bt, pool
}

// collect drains an iterator into a slice of keys.
func collect(t *testing.T, it *Iterator) []string {
	t.Helper()
	var keys []string
	for it.Next() {
		keys = append(keys, string(it.Key()))
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return keys
}

// wantKeys is the expected key list of [lo, hi) over rangeKey(0..n-1).
func wantKeys(lo, hi, n int) []string {
	var out []string
	for i := max(lo, 0); i < min(hi, n); i++ {
		out = append(out, string(rangeKey(i)))
	}
	return out
}

func pageGets(p *Pool) int64 {
	s := p.Stats()
	return s.Hits + s.Misses
}

func TestBTreeRangeBounded(t *testing.T) {
	const n = 2000
	bt, pool := newRangeTree(t, n)
	h, err := bt.Height()
	if err != nil {
		t.Fatal(err)
	}
	if h < 2 {
		t.Fatalf("tree height %d: the test needs several leaves", h)
	}

	// Ranges inside one leaf, across leaf boundaries and touching both
	// ends of the tree yield exactly the keys in [lo, hi).
	for _, r := range [][2]int{{100, 105}, {0, 1}, {1999, 2000}, {50, 950}, {0, n}, {1990, 2100}} {
		got := collect(t, bt.Range(rangeKey(r[0]), rangeKey(r[1]), nil))
		if want := wantKeys(r[0], r[1], n); !slices.Equal(got, want) {
			t.Fatalf("range [%d,%d): got %d keys, want %d", r[0], r[1], len(got), len(want))
		}
	}

	// A one-entry probe costs one descent, plus a second one only when
	// its entry is the last of its leaf: the iterator never buffers or
	// follows siblings past hi.
	before := pageGets(pool)
	for i := 0; i < n; i++ {
		k := rangeKey(i)
		got := collect(t, bt.Range(k, append(k, 0), nil))
		if len(got) != 1 || got[0] != string(k) {
			t.Fatalf("point range %s yielded %v", k, got)
		}
	}
	gets := pageGets(pool) - before
	if limit := int64(n*h) + int64(n*h)/10; gets > limit {
		t.Fatalf("%d point ranges cost %d page gets, want <= %d (height %d)", n, gets, limit, h)
	}
}

func TestBTreeRangeEmpty(t *testing.T) {
	bt, pool := newRangeTree(t, 500)
	for _, r := range []struct{ name, lo, hi string }{
		{"lo == hi", "k00100", "k00100"},
		{"lo > hi", "k00200", "k00100"},
		{"between two keys", "k00100a", "k00100b"},
		{"past the last key", "z", "zz"},
		{"before the first key", "a", "b"},
	} {
		before := pageGets(pool)
		if got := collect(t, bt.Range([]byte(r.lo), []byte(r.hi), nil)); len(got) != 0 {
			t.Errorf("%s: [%s,%s) yielded %v", r.name, r.lo, r.hi, got)
		}
		if r.lo >= r.hi && pageGets(pool) != before {
			t.Errorf("%s: an inverted or empty range descended the tree", r.name)
		}
	}
	// An empty, non-nil end bounds the range below every key.
	if got := collect(t, bt.Range(nil, []byte{}, nil)); len(got) != 0 {
		t.Errorf("[nil, \"\") yielded %d keys", len(got))
	}
	bt2, _ := newRangeTree(t, 0)
	if got := collect(t, bt2.Range(nil, nil, nil)); len(got) != 0 {
		t.Errorf("empty tree yielded %v", got)
	}
}

func TestBTreeRangeReset(t *testing.T) {
	const n = 1500
	bt, _ := newRangeTree(t, n)
	rng := rand.New(rand.NewSource(11))
	bound := func() []byte {
		if rng.Intn(8) == 0 {
			return nil // unbounded side
		}
		return rangeKey(rng.Intn(n+100) - 50)
	}
	reused := bt.Range(nil, nil, nil)
	for round := 0; round < 300; round++ {
		lo, hi := bound(), bound()
		// Leave the reused iterator partly consumed, exhausted or
		// untouched before re-targeting it.
		for k := rng.Intn(80); k > 0 && reused.Next(); k-- {
		}
		reused.Reset(lo, hi)
		got := collect(t, reused)
		want := collect(t, bt.Range(lo, hi, nil))
		if !slices.Equal(got, want) {
			t.Fatalf("round %d [%q,%q): after Reset got %d keys, fresh iterator %d", round, lo, hi, len(got), len(want))
		}
	}
}

// TestBTreeRangeStableUnderSplits scans bounded ranges of even keys
// while a writer inserts and deletes odd keys, splitting leaves under
// the scans. Every scan must return keys in strictly increasing order,
// all inside its range, and every even key of the range exactly once.
// Run with -race.
func TestBTreeRangeStableUnderSplits(t *testing.T) {
	const n = 4000 // key space; even keys are preloaded and never touched
	pool := NewPool(1024)
	bt, err := CreateBTree(newTestFile(t, pool))
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 40)
	for i := 0; i < n; i += 2 {
		if err := bt.Put(rangeKey(i), val); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(5))
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := rangeKey(2*rng.Intn(n/2) + 1)
			var err error
			if rng.Intn(4) == 0 {
				_, err = bt.Delete(k)
			} else {
				err = bt.Put(k, val)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()

	rng := rand.New(rand.NewSource(9))
	rounds := 200
	if testing.Short() {
		rounds = 50
	}
	it := bt.Range(nil, nil, nil)
	for round := 0; round < rounds; round++ {
		lo := rng.Intn(n)
		hi := lo + rng.Intn(600)
		it.Reset(rangeKey(lo), rangeKey(hi))
		var prev string
		var evens []string
		for it.Next() {
			k := string(it.Key())
			if k <= prev {
				t.Fatalf("round %d: key %s after %s", round, k, prev)
			}
			if k < string(rangeKey(lo)) || k >= string(rangeKey(hi)) {
				t.Fatalf("round %d: key %s outside [%d,%d)", round, k, lo, hi)
			}
			prev = k
			var i int
			fmt.Sscanf(k, "k%05d", &i)
			if i%2 == 0 {
				evens = append(evens, k)
			}
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		var want []string
		for i := lo + lo%2; i < min(hi, n); i += 2 {
			want = append(want, string(rangeKey(i)))
		}
		if !slices.Equal(evens, want) {
			t.Fatalf("round %d [%d,%d): saw %d stable keys, want %d", round, lo, hi, len(evens), len(want))
		}
	}
	close(stop)
	wg.Wait()
}
