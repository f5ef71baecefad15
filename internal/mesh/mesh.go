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
func (n Node) String() string {
	if n.IsController() {
		return fmt.Sprintf("ctrl%d", n.Y)
	}
	return fmt.Sprintf("(%d,%d)", n.X, n.Y)
}

// DefaultHopLatency is the per-hop router traversal latency.
const DefaultHopLatency = 10 * sim.Nanosecond

// Mesh is the interconnect fabric.
type Mesh struct {
	eng        *sim.Engine
	w, h       int
	widthBits  int
	rateMTps   int
	hopLatency sim.Time
	links      map[[2]Node]*bus.Channel
}

// New builds a w×h mesh with the given directed-link width and rate.
func New(eng *sim.Engine, w, h, widthBits, rateMTps int) *Mesh {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("mesh: invalid size %dx%d", w, h))
	}
	m := &Mesh{
		eng:        eng,
		w:          w,
		h:          h,
		widthBits:  widthBits,
		rateMTps:   rateMTps,
		hopLatency: DefaultHopLatency,
		links:      make(map[[2]Node]*bus.Channel),
	}
	add := func(a, b Node) {
		m.links[[2]Node{a, b}] = bus.NewChannel(eng, fmt.Sprintf("link %v->%v", a, b), widthBits, rateMTps)
		m.links[[2]Node{b, a}] = bus.NewChannel(eng, fmt.Sprintf("link %v->%v", b, a), widthBits, rateMTps)
	}
	for y := 0; y < h; y++ {
		add(Controller(y), Node{0, y}) // injection/ejection pair
		for x := 0; x < w; x++ {
			if x+1 < w {
				add(Node{x, y}, Node{x + 1, y})
			}
			if y+1 < h {
				add(Node{x, y}, Node{x, y + 1})
			}
		}
	}
	return m
}

// Size returns (w, h).
func (m *Mesh) Size() (w, h int) { return m.w, m.h }

// WidthBits returns the link width.
func (m *Mesh) WidthBits() int { return m.widthBits }

// Link returns the directed link between adjacent nodes; it panics when
// the nodes are not neighbours.
func (m *Mesh) Link(from, to Node) *bus.Channel {
	ch, ok := m.links[[2]Node{from, to}]
	if !ok {
		panic(fmt.Sprintf("mesh: no link %v->%v", from, to))
	}
	return ch
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
func (m *Mesh) Path(src, dst Node) []Node {
	m.check(src)
	m.check(dst)
	if src == dst {
		return []Node{src}
	}
	path := []Node{src}
	cur := src
	step := func(next Node) {
		path = append(path, next)
		cur = next
	}
	if cur.IsController() {
		step(Node{0, cur.Y})
	}
	// X dimension first toward the destination column (controllers live in
	// column -1's attachment, i.e. column 0 on-mesh).
	dstX := dst.X
	if dst.IsController() {
		dstX = 0
	}
	for cur.X != dstX {
		if cur.X < dstX {
			step(Node{cur.X + 1, cur.Y})
		} else {
			step(Node{cur.X - 1, cur.Y})
		}
	}
	// Then Y.
	for cur.Y != dst.Y {
		if cur.Y < dst.Y {
			step(Node{cur.X, cur.Y + 1})
		} else {
			step(Node{cur.X, cur.Y - 1})
		}
	}
	if dst.IsController() {
		step(dst)
	}
	return path
}

// Hops returns the number of links on the route from src to dst.
func (m *Mesh) Hops(src, dst Node) int { return len(m.Path(src, dst)) - 1 }

// Transfer moves a packet of n payload-equivalent flits from src to dst
// along the dimension-ordered route, calling done when the tail finishes
// crossing the final link. Each link is held for the packet's full
// serialization time; the head cuts through to the next link after the
// hop latency plus one beat.
func (m *Mesh) Transfer(src, dst Node, flits int, done func()) {
	path := m.Path(src, dst)
	if len(path) < 2 {
		// Degenerate same-node transfer: no links crossed.
		m.eng.Schedule(0, func() {
			if done != nil {
				done()
			}
		})
		return
	}
	var step func(i int)
	step = func(i int) {
		link := m.Link(path[i], path[i+1])
		ser := link.TimeForFlits(flits)
		link.Acquire(func() {
			last := i+2 == len(path)
			if !last {
				// Head cut-through: downstream link is requested after the
				// router latency and the first beat.
				m.eng.Schedule(m.hopLatency+link.BeatTime(), func() { step(i + 1) })
			}
			m.eng.Schedule(ser, func() {
				link.Release()
				if last && done != nil {
					done()
				}
			})
		})
	}
	step(0)
}

// MaxLinkQueue returns the largest queue length currently present on any
// link — a congestion probe used by tests.
func (m *Mesh) MaxLinkQueue() int {
	max := 0
	for _, ch := range m.links {
		if q := ch.QueueLen(); q > max {
			max = q
		}
	}
	return max
}

// EdgeLinkBusy returns cumulative busy time of the ejection links into the
// controllers — the hotspot the paper identifies ("the performance
// bottleneck are the mesh channels near the flash controllers").
func (m *Mesh) EdgeLinkBusy() sim.Time {
	var total sim.Time
	for y := 0; y < m.h; y++ {
		total += m.Link(Node{0, y}, Controller(y)).TotalBusy()
		total += m.Link(Controller(y), Node{0, y}).TotalBusy()
	}
	return total
}
