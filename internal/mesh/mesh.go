// Package mesh models the Network-on-SSD comparator (Tavakkol et al.): a
// 2D mesh interconnect replacing the flash bus, with flash chips as nodes
// and the flash controllers attached along the left edge. Routing is
// dimension-ordered (X then Y), deadlock-free. Links are modelled with
// virtual cut-through and unbounded buffers: a packet holds each directed
// link for its serialization time, pipelining into the next link after a
// per-hop router latency, and congestion emerges from FIFO queueing at
// each link.
//
// The paper evaluates two variants: pin-constrained (each chip's pin
// budget split across four directions, 2-bit links) and unconstrained
// (8-bit links, deliberately unrealistic). Both share this model and
// differ only in link width.
package mesh

import (
	"fmt"
	"strconv"

	"repro/internal/bus"
	"repro/internal/sim"
)

// Node addresses a mesh node. Chips occupy X in [0,W), Y in [0,H);
// controllers sit off-mesh at X == -1, one per row.
type Node struct {
	X, Y int
}

// Controller returns the controller node for row y.
func Controller(y int) Node { return Node{X: -1, Y: y} }

// IsController reports whether the node is a controller attachment.
func (n Node) IsController() bool { return n.X == -1 }

// String formats the node.
func (n Node) String() string { return string(n.appendTo(nil)) }

// appendTo appends the node's name, ctrl<y> or (<x>,<y>), to b.
func (n Node) appendTo(b []byte) []byte {
	if n.IsController() {
		return strconv.AppendInt(append(b, "ctrl"...), int64(n.Y), 10)
	}
	b = strconv.AppendInt(append(b, '('), int64(n.X), 10)
	b = strconv.AppendInt(append(b, ','), int64(n.Y), 10)
	return append(b, ')')
}

// DefaultHopLatency is the per-hop router traversal latency.
const DefaultHopLatency = 10 * sim.Nanosecond

// Mesh is the interconnect fabric.
type Mesh struct {
	eng   *sim.Engine
	w, h  int
	links []bus.Channel
	// out[4*cell+d] indexes links for the link leaving a node in
	// direction d (+x, -x, +y, -y), or is -1. Cells are row-major over
	// x in [-1, w), so a row's controller is the cell west of its edge
	// node.
	out   []int32
	xfers sim.Pool[transfer] // recycled Transfer records
}

// New builds a w×h mesh with the given directed-link width and rate.
func New(eng *sim.Engine, w, h, widthBits, rateMTps int) *Mesh {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("mesh: invalid size %dx%d", w, h))
	}
	// Both directions of each adjacent pair, pair by pair: a row's
	// injection/ejection pair, then each node's east and south pairs.
	pairs := make([][2]Node, 0, 2*(h+h*(w-1)+w*(h-1)))
	add := func(a, b Node) { pairs = append(pairs, [2]Node{a, b}, [2]Node{b, a}) }
	for y := 0; y < h; y++ {
		add(Controller(y), Node{0, y})
		for x := 0; x < w; x++ {
			if x+1 < w {
				add(Node{x, y}, Node{x + 1, y})
			}
			if y+1 < h {
				add(Node{x, y}, Node{x, y + 1})
			}
		}
	}
	names := sim.Names(len(pairs), func(b []byte, i int) []byte {
		b = pairs[i][0].appendTo(append(b, "link "...))
		return pairs[i][1].appendTo(append(b, "->"...))
	})
	m := &Mesh{
		eng:   eng,
		w:     w,
		h:     h,
		links: bus.NewChannels(eng, names, widthBits, rateMTps),
		out:   make([]int32, 4*(w+1)*h),
	}
	for i := range m.out {
		m.out[i] = -1
	}
	for i, p := range pairs {
		m.out[m.slot(p[0], p[1])] = int32(i)
	}
	return m
}

// Reset returns every link of an idle mesh to its state at New: idle,
// zero totals, no observer. Recycled transfer records are kept.
func (m *Mesh) Reset() {
	for i := range m.links {
		m.links[i].Reset()
	}
}

// slot returns the index in out of the link from one node to the next,
// or -1 when from is off the mesh or to is not one step from it.
func (m *Mesh) slot(from, to Node) int {
	if from.X < -1 || from.X >= m.w || from.Y < 0 || from.Y >= m.h {
		return -1
	}
	var d int
	switch dx, dy := to.X-from.X, to.Y-from.Y; {
	case dx == 1 && dy == 0:
		d = 0
	case dx == -1 && dy == 0:
		d = 1
	case dx == 0 && dy == 1:
		d = 2
	case dx == 0 && dy == -1:
		d = 3
	default:
		return -1
	}
	return 4*(from.Y*(m.w+1)+from.X+1) + d
}

// Link returns the directed link between adjacent nodes; it panics when
// the nodes are not neighbours.
func (m *Mesh) Link(from, to Node) *bus.Channel {
	if k := m.slot(from, to); k >= 0 && m.out[k] >= 0 {
		return &m.links[m.out[k]]
	}
	panic(fmt.Sprintf("mesh: no link %v->%v", from, to))
}

func (m *Mesh) check(n Node) {
	if n.IsController() {
		if n.Y < 0 || n.Y >= m.h {
			panic(fmt.Sprintf("mesh: controller row %d out of range", n.Y))
		}
		return
	}
	if n.X < 0 || n.X >= m.w || n.Y < 0 || n.Y >= m.h {
		panic(fmt.Sprintf("mesh: node %v outside %dx%d", n, m.w, m.h))
	}
}

// Path returns the dimension-ordered (X then Y) route from src to dst as a
// sequence of directed hops. Controller endpoints route through their
// row's edge node.
func (m *Mesh) Path(src, dst Node) []Node { return m.appendPath(nil, src, dst) }

// appendPath appends the route from src to dst to path.
func (m *Mesh) appendPath(path []Node, src, dst Node) []Node {
	m.check(src)
	m.check(dst)
	path = append(path, src)
	if src == dst {
		return path
	}
	cur := src
	if cur.IsController() {
		cur = Node{0, cur.Y}
		path = append(path, cur)
	}
	// X dimension first toward the destination column (controllers live in
	// column -1's attachment, i.e. column 0 on-mesh).
	dstX := dst.X
	if dst.IsController() {
		dstX = 0
	}
	for cur.X != dstX {
		if cur.X < dstX {
			cur.X++
		} else {
			cur.X--
		}
		path = append(path, cur)
	}
	// Then Y.
	for cur.Y != dst.Y {
		if cur.Y < dst.Y {
			cur.Y++
		} else {
			cur.Y--
		}
		path = append(path, cur)
	}
	if dst.IsController() {
		path = append(path, dst)
	}
	return path
}

// Transfer moves a packet of n payload-equivalent flits from src to dst
// along the dimension-ordered route, calling done when the tail finishes
// crossing the final link. Each link is held for the packet's full
// serialization time; the head cuts through to the next link after the
// hop latency plus one beat.
func (m *Mesh) Transfer(src, dst Node, flits int, done func()) {
	t, fresh := m.xfers.Get()
	if fresh {
		t.m = m
		t.granted = t.grantedStep
		t.lane.Bind(t.run)
	}
	t.path = m.appendPath(t.path[:0], src, dst)
	t.flits, t.done = flits, done
	if len(t.path) < 2 {
		// Degenerate same-node transfer: no links crossed.
		m.eng.Schedule(0, t.lane.Then(trFinish))
		return
	}
	t.hop = 0
	t.request()
}

// transfer is one packet in flight. Records are recycled through the
// mesh's pool. Hop i crosses path[i] -> path[i+1] and is requested once
// hop i-1 is granted and its head has cut through, so at most one hop
// awaits its grant: granted, bound once when the record is created, is
// every hop's grant hook. The hops' next steps and the final release
// run one after another in one lane; earlier hops' releases carry no
// callback. So a transfer allocates nothing in
// steady state. The final hop's release is the record's last event:
// every hop is requested strictly after its predecessor was granted and
// all links share one serialization time.
type transfer struct {
	m     *Mesh
	path  []Node
	hop   int          // the hop last requested
	link  *bus.Channel // its link
	flits int
	done  func()

	granted func() sim.Time        // bound t.grantedStep
	lane    sim.Lane[transferStep] // bound t.run
}

// transferStep names a transfer's steps.
type transferStep uint8

const (
	trNext   transferStep = iota // the head cut through: request the next hop
	trFinish                     // the tail left the final link
)

func (t *transfer) run() {
	switch t.lane.Step {
	case trNext:
		t.hop++
		t.request()
	case trFinish:
		t.finish()
	}
}

// last reports whether the current hop crosses the final link.
func (t *transfer) last() bool { return t.hop+2 == len(t.path) }

// request asks for the current hop's link; only the final hop's release
// carries a callback.
func (t *transfer) request() {
	t.link = t.m.Link(t.path[t.hop], t.path[t.hop+1])
	var release func()
	if t.last() {
		release = t.lane.Then(trFinish)
	}
	t.link.UseGranted(t.granted, release)
}

// grantedStep runs at the current hop's grant, which cut-through needs,
// and returns how long the packet holds the link.
func (t *transfer) grantedStep() sim.Time {
	if !t.last() {
		// Head cut-through: downstream link is requested after the
		// router latency and the first beat.
		t.m.eng.Schedule(DefaultHopLatency+t.link.BeatTime(), t.lane.Then(trNext))
	}
	return t.link.TimeForFlits(t.flits)
}

// finish returns the record to the pool and runs done.
func (t *transfer) finish() {
	done := t.done
	t.done = nil
	t.m.xfers.Put(t)
	if done != nil {
		done()
	}
}
