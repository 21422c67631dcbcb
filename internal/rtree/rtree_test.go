package rtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func randEnv(r *rand.Rand) geom.Envelope {
	x := r.Float64() * 1000
	y := r.Float64() * 1000
	return geom.Envelope{MinX: x, MinY: y, MaxX: x + r.Float64()*50, MaxY: y + r.Float64()*50}
}

// bruteQuery is the oracle: linear scan.
func bruteQuery(items []Item[int], q geom.Envelope) []int {
	var out []int
	for _, it := range items {
		if it.Env.Intersects(q) {
			out = append(out, it.Value)
		}
	}
	sort.Ints(out)
	return out
}

func sortedQuery(t *Tree[int], q geom.Envelope) []int {
	out := t.Query(q)
	sort.Ints(out)
	return out
}

func TestEmptyTree(t *testing.T) {
	tr := BulkLoad[string](nil)
	if tr.Len() != 0 {
		t.Errorf("Len = %d", tr.Len())
	}
	if got := tr.Query(geom.Envelope{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}); len(got) != 0 {
		t.Errorf("query on empty tree returned %v", got)
	}
	if !tr.Envelope().IsEmpty() {
		t.Error("empty tree envelope should be empty")
	}
	if tr.Height() != 1 {
		t.Errorf("empty tree height = %d", tr.Height())
	}
}

func TestBulkLoadMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var items []Item[int]
	for i := 0; i < 5000; i++ {
		items = append(items, Item[int]{Env: randEnv(r), Value: i})
	}
	tr := BulkLoad(items)
	if tr.Len() != 5000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for q := 0; q < 100; q++ {
		query := randEnv(r).ExpandBy(40)
		want := bruteQuery(items, query)
		got := sortedQuery(tr, query)
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d, want %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d mismatch at %d", q, i)
			}
		}
	}
}

func TestBulkLoadSizes(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 15, 16, 17, 100, 256, 257, 1000} {
		items := make([]Item[int], n)
		for i := range items {
			items[i] = Item[int]{Env: randEnv(r), Value: i}
		}
		tr := BulkLoad(items)
		if tr.Len() != n {
			t.Errorf("n=%d: Len = %d", n, tr.Len())
		}
		// Every item must be findable by its own envelope.
		for _, it := range items {
			found := false
			tr.Search(it.Env, func(_ geom.Envelope, v int) bool {
				if v == it.Value {
					found = true
					return false
				}
				return true
			})
			if !found {
				t.Fatalf("n=%d: item %d not found", n, it.Value)
			}
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	items := make([]Item[int], 100)
	for i := range items {
		items[i] = Item[int]{Env: geom.Envelope{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, Value: i}
	}
	tr := BulkLoad(items)
	count := 0
	completed := tr.Search(geom.Envelope{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, func(_ geom.Envelope, _ int) bool {
		count++
		return count < 5
	})
	if completed {
		t.Error("Search should report early termination")
	}
	if count != 5 {
		t.Errorf("visited %d items, want 5", count)
	}
}

func TestTreeHeightGrows(t *testing.T) {
	items := make([]Item[int], 1000)
	for i := range items {
		x := float64(i % 32)
		y := float64(i / 32)
		items[i] = Item[int]{Env: geom.Envelope{MinX: x, MinY: y, MaxX: x + 0.5, MaxY: y + 0.5}, Value: i}
	}
	tr := BulkLoad(items)
	if h := tr.Height(); h < 2 || h > 6 {
		t.Errorf("height = %d, want a shallow multi-level tree", h)
	}
	// The root envelope is exactly the union of the items: 32 columns,
	// and rows 0..31 (1000/32, the last one partial).
	want := geom.Envelope{MinX: 0, MinY: 0, MaxX: 31.5, MaxY: 31.5}
	if tr.Envelope() != want {
		t.Errorf("tree envelope %+v, want %+v", tr.Envelope(), want)
	}
}

// Property: for random item sets and queries, BulkLoad-built trees agree
// with brute force.
func TestQueryEquivalenceProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(17))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		items := make([]Item[int], n)
		for i := range items {
			items[i] = Item[int]{Env: randEnv(r), Value: i}
		}
		bulk := BulkLoad(items)
		for q := 0; q < 10; q++ {
			query := randEnv(r).ExpandBy(float64(r.Intn(100)))
			want := bruteQuery(items, query)
			got := sortedQuery(bulk, query)
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("query equivalence failed: %v", err)
	}
}

func BenchmarkBulkLoad10k(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	items := make([]Item[int], 10000)
	for i := range items {
		items[i] = Item[int]{Env: randEnv(r), Value: i}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BulkLoad(items)
	}
}

func BenchmarkQuery(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	items := make([]Item[int], 100000)
	for i := range items {
		items[i] = Item[int]{Env: randEnv(r), Value: i}
	}
	tr := BulkLoad(items)
	queries := make([]geom.Envelope, 1024)
	for i := range queries {
		queries[i] = randEnv(r).ExpandBy(10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Query(queries[i%len(queries)])
	}
}
