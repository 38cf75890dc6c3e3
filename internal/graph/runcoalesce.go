package graph

// Run application shared by the run-partitioned update engines: one
// vertex run (every edge of a batch keyed to one vertex in one
// direction) applied to that vertex's adjacency, for the epoch store's
// version rebuilds and the adjacency store's in-place updates alike.
// Short runs search linearly. Long runs are coalesced — the USC idea
// (Section 4.3): the linear path costs O(run × degree) comparisons,
// and on a skewed stream a hub's run covers most of the batch while
// its degree grows without bound, so the run is indexed in a
// per-worker open-addressing table and applied in one pass over the
// current adjacency plus one pass over the run: O(run + degree).
//
// The table is reusable scratch owned by one worker:
// generation-stamped slots make per-run reset free, and the backing
// arrays only ever grow (to twice the longest run seen), so a warmed
// engine allocates nothing here — the same contract as the chunk pool.

// ecoalMinRun is the smallest run the epoch store coalesces; shorter
// runs use direct scans, where a table is superfluous (the same
// degree-1 argument as update.Config.MinCoalesceRun).
const ecoalMinRun = 8

// ecoal slot flags.
const (
	ecoalInsert  = 1 << 0 // run inserts this key (weight = last in batch order)
	ecoalDelete  = 1 << 1 // run deletes this key
	ecoalPresent = 1 << 2 // key already placed in the rebuilt adjacency
)

// RunCoalescer is one worker's reusable run-coalescing table. The zero
// value is ready to use.
type RunCoalescer struct {
	keys    []VertexID
	weights []Weight
	flags   []uint8
	gens    []uint64
	gen     uint64
	mask    uint64
}

// begin prepares the table for a run of n edges: capacity at least 2n
// (load factor ≤ 0.5) and a fresh generation, which invalidates every
// old slot without touching memory.
func (c *RunCoalescer) begin(n int) {
	need := 1
	for need < 2*n {
		need <<= 1
	}
	if len(c.keys) < need {
		c.keys = make([]VertexID, need)
		c.weights = make([]Weight, need)
		c.flags = make([]uint8, need)
		c.gens = make([]uint64, need)
	}
	c.mask = uint64(len(c.keys) - 1)
	c.gen++
}

// ecoalHash spreads keys with the Fibonacci multiplier; the product's
// high half mixes all key bits before the mask cuts it down.
func ecoalHash(key VertexID) uint64 {
	return (uint64(key) * 0x9E3779B97F4A7C15) >> 32
}

// slot returns key's slot, claiming an empty one if absent.
func (c *RunCoalescer) slot(key VertexID) int {
	i := ecoalHash(key) & c.mask
	for {
		if c.gens[i] != c.gen {
			c.gens[i] = c.gen
			c.keys[i] = key
			c.flags[i] = 0
			return int(i)
		}
		if c.keys[i] == key {
			return int(i)
		}
		i = (i + 1) & c.mask
	}
}

// lookup returns key's slot, or -1 when the run never named it.
func (c *RunCoalescer) lookup(key VertexID) int {
	i := ecoalHash(key) & c.mask
	for {
		if c.gens[i] != c.gen {
			return -1
		}
		if c.keys[i] == key {
			return int(i)
		}
		i = (i + 1) & c.mask
	}
}

// ApplyRun applies one vertex run to the adjacency cur, building the
// result in buf, which must hold len(cur) plus the run's inserts (the
// epoch store's next version). It returns the result, the run's stats,
// and whether anything changed. Insertions apply first, in batch
// order, then deletions (the global update-ordering policy); fresh
// keys append in batch order, so the result is a function of the
// stream alone. Runs of at least minCoalesce edges are coalesced.
// Stats are the same on both paths: a key inserted and deleted within
// one batch counts one Created and one Removed, duplicate inserts
// count one Created, repeated deletes one Removed.
func (c *RunCoalescer) ApplyRun(cur, buf []Neighbor, edges []Edge, out bool, minCoalesce int) ([]Neighbor, EpochRunStats, bool) {
	if len(edges) >= minCoalesce {
		return c.applyRunCoalesced(cur, buf[:0], edges, out)
	}
	return applyRunLinear(append(buf[:0], cur...), edges, out)
}

// ApplyRunInPlace is ApplyRun on cur's own memory, growing it as
// needed (the adjacency store, whose writer owns the vertex).
func (c *RunCoalescer) ApplyRunInPlace(cur []Neighbor, edges []Edge, out bool, minCoalesce int) ([]Neighbor, EpochRunStats, bool) {
	if len(edges) >= minCoalesce {
		return c.applyRunCoalesced(cur, cur[:0], edges, out)
	}
	return applyRunLinear(cur, edges, out)
}

// applyRunLinear is the short-run path: one search of ns per edge.
func applyRunLinear(ns []Neighbor, edges []Edge, out bool) ([]Neighbor, EpochRunStats, bool) {
	var st EpochRunStats
	changed := false
	for i := range edges {
		e := &edges[i]
		if e.Delete {
			continue
		}
		key := e.Dst
		if !out {
			key = e.Src
		}
		found := false
		for j := range ns {
			st.Comparisons++
			if ns[j].ID == key {
				ns[j].Weight = e.Weight
				found = true
				break
			}
		}
		if !found {
			ns = append(ns, Neighbor{ID: key, Weight: e.Weight})
			st.Created++
		}
		changed = true
	}
	for i := range edges {
		e := &edges[i]
		if !e.Delete {
			continue
		}
		key := e.Dst
		if !out {
			key = e.Src
		}
		for j := range ns {
			st.Comparisons++
			if ns[j].ID == key {
				ns[j] = ns[len(ns)-1]
				ns = ns[:len(ns)-1]
				st.Removed++
				changed = true
				break
			}
		}
	}
	return ns, st, changed
}

// applyRunCoalesced is the long-run path: index the run in the table,
// then rebuild cur into ns (empty; it may alias cur, which the scan
// only ever overwrites behind its read position).
func (c *RunCoalescer) applyRunCoalesced(cur, ns []Neighbor, edges []Edge, out bool) ([]Neighbor, EpochRunStats, bool) {
	st := EpochRunStats{HashOps: int64(len(edges) + len(cur))}
	c.begin(len(edges))
	for i := range edges {
		e := &edges[i]
		key := e.Dst
		if !out {
			key = e.Src
		}
		si := c.slot(key)
		if e.Delete {
			c.flags[si] |= ecoalDelete
		} else {
			c.flags[si] |= ecoalInsert
			c.weights[si] = e.Weight // last insert in batch order wins
		}
	}

	changed := false
	// One scan of the current adjacency: drop deletions, rewrite
	// duplicate-insert weights, keep the rest. Insertions apply before
	// deletions (the global update-ordering policy), so a key with
	// both flags ends up deleted.
	for j := range cur {
		st.Comparisons++
		si := c.lookup(cur[j].ID)
		if si < 0 {
			ns = append(ns, cur[j])
			continue
		}
		f := c.flags[si]
		if f&ecoalDelete != 0 {
			st.Removed++
			changed = true
			continue
		}
		// Insert-only match: in-place weight update (a new version is
		// published even on an equal weight, like the linear path).
		ns = append(ns, Neighbor{ID: cur[j].ID, Weight: c.weights[si]})
		c.flags[si] = f | ecoalPresent
		changed = true
	}
	// Fresh inserts append in first-occurrence batch order. A key also
	// deleted in this batch was created and then removed: both counts,
	// no entry.
	for i := range edges {
		e := &edges[i]
		if e.Delete {
			continue
		}
		key := e.Dst
		if !out {
			key = e.Src
		}
		st.HashOps++
		si := c.lookup(key)
		f := c.flags[si]
		if f&ecoalPresent != 0 {
			continue
		}
		c.flags[si] = f | ecoalPresent
		st.Created++
		changed = true
		if f&ecoalDelete != 0 {
			st.Removed++
			continue
		}
		ns = append(ns, Neighbor{ID: key, Weight: c.weights[si]})
	}
	return ns, st, changed
}
