package speck

import "sperr/internal/grid"

// The significance octree. SPECK's set-partitioning topology is a pure
// function of the volume dims: every set the traversal can ever visit is
// produced by the same ceil(n/2) splits, in the same order, at the same
// depth. Materializing that topology once — nodes in BFS order, children
// contiguous — turns the per-plane significance test from a box re-scan
// (O(planes x coeffs) over the whole encode) into a table lookup against
// a per-node max-magnitude array filled in a single bottom-up pass over
// the quantized magnitudes. A node's BFS level equals its LIS bucket
// depth, so the traversal's depth bookkeeping carries over unchanged.
//
// The topology is cached per dims on the Scratch (a worker re-encoding
// same-shaped chunks builds it once); the max table is refilled per call.
// onode packs one set node into four bytes — bit 31 set marks a leaf (a
// 1x1x1 set) whose low 31 bits are its coefficient's position; otherwise
// bits 28..30 hold the child count minus one (splits produce 1..8
// children) and the low 28 bits the index of the first child (children
// are contiguous, and always on the next BFS level). Halving the record
// keeps twice as many nodes cache-resident on the traversals' hot entry
// load; maxOctreeLen keeps node indexes inside the 28-bit field.
type onode uint32

// maxOctreeLen caps the volume size taking the octree-table paths: a
// volume of n coefficients yields under n + n/6 + 16 nodes, so 2^27
// coefficients stay comfortably inside onode's 28-bit child index.
// Larger volumes use the float/general paths, which split boxes
// recursively and need no node table.
const maxOctreeLen = 1 << 27

func leafNode(pos int32) onode        { return onode(1<<31 | uint32(pos)) }
func internalNode(first, k int) onode { return onode(uint32(k-1)<<28 | uint32(first)) }

func (n onode) leaf() bool { return int32(n) < 0 }
func (n onode) pos() int32 { return int32(n) & 0x7fffffff }
func (n onode) kids() (first int32, k int) {
	return int32(n & (1<<28 - 1)), int(n>>28&7) + 1
}

type octree struct {
	dims grid.Dims
	// nod holds the nodes in BFS order.
	nod []onode
	// levels are the BFS level boundaries: the nodes of depth d occupy
	// [levels[d], levels[d+1]). len(levels)-1 is the depth count.
	levels []int32
	// leafOf[pos] is the node id of the leaf holding coefficient pos, so
	// the quantize pass can scatter leaf top bytes as it streams through
	// the coefficients (stores don't stall; the gathers a separate leaf
	// pass would do miss all the way down).
	leafOf []int32
}

// buildOctree materializes the set-partitioning topology for dims by
// breadth-first splitting from the root box, children in splitSet order
// so node order matches the recursive traversal's sibling order.
func buildOctree(dims grid.Dims) *octree {
	n := dims.Len()
	est := n + n/6 + 16
	t := &octree{dims: dims}
	t.nod = make([]onode, 1, est)
	t.leafOf = make([]int32, n)
	boxes := make([]set, 1, est)
	boxes[0] = set{nx: int32(dims.NX), ny: int32(dims.NY), nz: int32(dims.NZ)}
	t.levels = append(t.levels, 0, 1)
	nextEnd := 1
	for head := 0; head < len(boxes); head++ {
		if head == nextEnd {
			nextEnd = len(boxes)
			t.levels = append(t.levels, int32(nextEnd))
		}
		b := boxes[head]
		if b.single() {
			pos := int32(dims.Index(int(b.x), int(b.y), int(b.z)))
			t.nod[head] = leafNode(pos)
			t.leafOf[pos] = int32(head)
			continue
		}
		var ch [8]set
		k := splitSet(&b, &ch)
		t.nod[head] = internalNode(len(boxes), k)
		boxes = append(boxes, ch[:k]...)
		for j := 0; j < k; j++ {
			t.nod = append(t.nod, onode(0))
		}
	}
	return t
}

// nodes returns the total node count.
func (t *octree) nodes() int { return len(t.nod) }

// fillTops computes the internal nodes' significance tops into tops (len
// >= t.nodes()), bottom-up one BFS level at a time; the leaf entries must
// already be present (the quantize pass scatters them via leafOf as it
// streams the coefficients). A node's entry is bits.Len64 of its box's
// maximum quantized magnitude — the 1-based index of the highest set bit
// plane, 0 for an all-zero box. Floor-log2 is monotone, so an internal
// node's entry is just the max of its children's (already filled) bytes.
// Leaf bytes additionally carry the coefficient's sign in bit 7 (tops
// values stop at 53), so discovery can emit the sign bit without touching
// the pixel record; consumers mask with 0x7f. One byte per node instead
// of the full 8-byte maxima keeps the whole table cache-resident during
// traversal, and significance at plane p collapses to the equality
// tops[node]&0x7f == p+1: an LIS entry was insignificant at every earlier
// (higher) plane, so its top is at most p+1. Children always follow their
// parent in BFS order, so one descending sweep sees every child first.
func (t *octree) fillTops(tops []uint8) {
	// The deepest BFS level is all leaves — already written by quantize.
	for i := int(t.levels[len(t.levels)-2]) - 1; i >= 0; i-- {
		nd := t.nod[i]
		if nd.leaf() {
			continue // mid-tree leaf: written by quantize
		}
		f, k := nd.kids()
		first := int(f)
		m := tops[first] & 0x7f
		for j := 1; j < k; j++ {
			if v := tops[first+j] & 0x7f; v > m {
				m = v
			}
		}
		tops[i] = m
	}
}

// octreeFor returns the topology for dims from the scratch's small MRU
// cache, building it on a miss. Chunked pipelines see at most a handful
// of shapes (interior chunks plus boundary remainders), so a four-entry
// cache makes rebuilds rare without holding every shape ever seen.
func (s *Scratch) octreeFor(dims grid.Dims) *octree {
	for i, t := range s.trees {
		if t.dims == dims {
			if i != 0 {
				copy(s.trees[1:i+1], s.trees[:i])
				s.trees[0] = t
			}
			return t
		}
	}
	t := buildOctree(dims)
	if len(s.trees) < 4 {
		s.trees = append(s.trees, nil)
	}
	copy(s.trees[1:], s.trees)
	s.trees[0] = t
	s.Grows++
	return t
}
