// Package rtree provides an R-tree over envelopes — the spatial index the
// paper obtains from GEOS (§2) and uses twice: once to map geometries to
// overlapping grid cells during spatial partitioning (§4), and once per grid
// cell as the filter-phase index of the spatial join (§5.2).
//
// Trees are built once with Sort-Tile-Recursive (STR) bulk loading and
// then only queried: every index in the pipeline is build-once/query-many.
package rtree

import (
	"sort"

	"repro/internal/geom"
)

// maxEntries is the node fan-out.
const maxEntries = 16

// Tree is an R-tree mapping envelopes to values of type T.
// The zero value is not usable; call BulkLoad.
type Tree[T any] struct {
	root *node[T]
	size int
}

// Item pairs an envelope with its value for bulk loading.
type Item[T any] struct {
	Env   geom.Envelope
	Value T
}

type entry[T any] struct {
	env   geom.Envelope
	child *node[T] // non-nil for internal entries
	value T        // set for leaf entries
}

type node[T any] struct {
	leaf    bool
	entries []entry[T]
}

func (n *node[T]) envelope() geom.Envelope {
	e := geom.EmptyEnvelope()
	for i := range n.entries {
		e = e.Union(n.entries[i].env)
	}
	return e
}

// Len returns the number of stored items.
func (t *Tree[T]) Len() int { return t.size }

// Search visits every item whose envelope intersects query. The visitor
// returns false to stop early; Search reports whether the walk ran to
// completion.
func (t *Tree[T]) Search(query geom.Envelope, visit func(env geom.Envelope, value T) bool) bool {
	if t.size == 0 {
		return true
	}
	return search(t.root, query, visit)
}

func search[T any](n *node[T], query geom.Envelope, visit func(geom.Envelope, T) bool) bool {
	for i := range n.entries {
		e := &n.entries[i]
		if !e.env.Intersects(query) {
			continue
		}
		if n.leaf {
			if !visit(e.env, e.value) {
				return false
			}
		} else if !search(e.child, query, visit) {
			return false
		}
	}
	return true
}

// Query returns all values whose envelopes intersect query.
func (t *Tree[T]) Query(query geom.Envelope) []T {
	var out []T
	t.Search(query, func(_ geom.Envelope, v T) bool {
		out = append(out, v)
		return true
	})
	return out
}

// Envelope returns the bounding envelope of the whole tree.
func (t *Tree[T]) Envelope() geom.Envelope {
	if t.size == 0 {
		return geom.EmptyEnvelope()
	}
	return t.root.envelope()
}

// Height returns the number of levels (1 for a lone leaf root).
func (t *Tree[T]) Height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.entries[0].child {
		h++
	}
	return h
}

// BulkLoad builds a tree from items using Sort-Tile-Recursive packing, which
// yields near-optimal query performance for static data.
func BulkLoad[T any](items []Item[T]) *Tree[T] {
	if len(items) == 0 {
		return &Tree[T]{root: &node[T]{leaf: true}}
	}
	return &Tree[T]{root: buildUp(packLeaves(items)), size: len(items)}
}

// packLeaves tiles the items into leaf nodes: sort by center X, cut into
// vertical slabs of ~sqrt(nLeaves) leaves each, sort each slab by center Y,
// pack runs of maxEntries.
func packLeaves[T any](items []Item[T]) []*node[T] {
	sorted := make([]Item[T], len(items))
	copy(sorted, items)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].Env.Center().X < sorted[j].Env.Center().X
	})
	nLeaves := (len(sorted) + maxEntries - 1) / maxEntries
	slabCount := intSqrtCeil(nLeaves)
	slabSize := slabCount * maxEntries

	var leaves []*node[T]
	for start := 0; start < len(sorted); start += slabSize {
		end := min(start+slabSize, len(sorted))
		slab := sorted[start:end]
		sort.Slice(slab, func(i, j int) bool {
			return slab[i].Env.Center().Y < slab[j].Env.Center().Y
		})
		for ls := 0; ls < len(slab); ls += maxEntries {
			le := min(ls+maxEntries, len(slab))
			leaf := &node[T]{leaf: true, entries: make([]entry[T], 0, le-ls)}
			for _, it := range slab[ls:le] {
				leaf.entries = append(leaf.entries, entry[T]{env: it.Env, value: it.Value})
			}
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

// buildUp packs nodes level by level until a single root remains.
func buildUp[T any](nodes []*node[T]) *node[T] {
	for len(nodes) > 1 {
		var next []*node[T]
		for start := 0; start < len(nodes); start += maxEntries {
			end := min(start+maxEntries, len(nodes))
			parent := &node[T]{leaf: false, entries: make([]entry[T], 0, end-start)}
			for _, child := range nodes[start:end] {
				parent.entries = append(parent.entries, entry[T]{env: child.envelope(), child: child})
			}
			next = append(next, parent)
		}
		nodes = next
	}
	return nodes[0]
}

func intSqrtCeil(n int) int {
	s := 1
	for s*s < n {
		s++
	}
	return s
}
