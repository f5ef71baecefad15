package controller

import (
	"repro/internal/flash"
	"repro/internal/mesh"
	"repro/internal/packet"
	"repro/internal/sim"
)

// MeshFabric is the Network-on-SSD comparator: chips form a 2D mesh
// (ways × channels) and the channel controllers attach along the left
// edge, one per row. Commands and payloads travel as packets over
// multi-hop dimension-ordered routes; every byte of host I/O crosses the
// controller-adjacent edge links, which is where the paper locates the
// NoSSD bottleneck.
type MeshFabric struct {
	eng      *sim.Engine
	name     string
	grid     *Grid
	soc      *Soc
	pageSize int
	m        *mesh.Mesh
	fops     fabricOps
	copies   sim.Pool[meshCopy] // recycled Copy records
}

// NewMeshFabric builds the mesh fabric; widthBits is the per-link width
// (2 for the pin-constrained variant, 8 for the unconstrained one).
func NewMeshFabric(eng *sim.Engine, name string, grid *Grid, soc *Soc, pageSize, widthBits, rateMTps int) *MeshFabric {
	f := &MeshFabric{
		eng:      eng,
		name:     name,
		grid:     grid,
		soc:      soc,
		pageSize: pageSize,
		m:        mesh.New(eng, grid.Ways, grid.Channels, widthBits, rateMTps),
	}
	f.fops = fabricOps{grid: grid, soc: soc, pageSize: pageSize, ret: f.returnRead, deliver: f.deliverWrite}
	return f
}

// Name implements Fabric.
func (f *MeshFabric) Name() string { return f.name }

// Grid implements Fabric.
func (f *MeshFabric) Grid() *Grid { return f.grid }

// Reset implements Fabric: every mesh link idle.
func (f *MeshFabric) Reset() { f.m.Reset() }

// Mesh exposes the fabric's mesh for instrumentation.
func (f *MeshFabric) Mesh() *mesh.Mesh { return f.m }

func (f *MeshFabric) node(id ChipID) mesh.Node { return mesh.Node{X: id.Way, Y: id.Channel} }

// Read implements Fabric: command packet to the chip, tR, data packet back
// to the row's controller, ECC, SoC hop.
func (f *MeshFabric) Read(id ChipID, ppas []flash.PPA, done func()) {
	r := f.fops.read(id, ppas, done)
	f.m.Transfer(mesh.Controller(id.Channel), f.node(id), packet.ControlFlitsFor(), r.lane.Then(fopSense))
}

// returnRead sends the data packet back to the row's controller.
func (f *MeshFabric) returnRead(r *fabricOp) {
	f.m.Transfer(f.node(r.id), mesh.Controller(r.id.Channel), packet.DataFlitsFor(r.n), r.lane.Then(fopXfer))
}

// Write implements Fabric: SoC hop, then one command+payload packet stream
// to the chip, then tPROG.
func (f *MeshFabric) Write(id ChipID, ops []flash.ProgramOp, done func()) {
	w := f.fops.write(id, ops, done)
	f.soc.transfer(w.n, EccLatency, w.lane.Then(fopDeliver))
}

// deliverWrite sends the command+payload packet stream to the chip.
func (f *MeshFabric) deliverWrite(w *fabricOp) {
	f.m.Transfer(mesh.Controller(w.id.Channel), f.node(w.id), packet.ControlFlitsFor()+packet.DataFlitsFor(w.n), w.lane.Then(fopProgram))
}

// Erase implements Fabric.
func (f *MeshFabric) Erase(id ChipID, blocks []flash.PPA, done func()) {
	r := f.fops.get(id, done)
	r.ppas = blocks
	f.m.Transfer(mesh.Controller(id.Channel), f.node(id), packet.ControlFlitsFor(), r.lane.Then(fopErase))
}

// Copy implements Fabric: the mesh does provide flash-to-flash
// connectivity, so a GC copy sends the read command from the controller,
// then moves the payload directly from source to destination node and
// commits with an on-die program — the same capability pnSSD has, paid
// for with multi-hop link occupancy.
func (f *MeshFabric) Copy(src ChipID, from flash.PPA, dst ChipID, to flash.PPA, done func()) {
	c, fresh := f.copies.Get()
	if fresh {
		c.f = f
		c.lane.Bind(c.run)
	}
	c.src, c.from[0], c.dst, c.to, c.done = src, from, dst, to, done
	f.m.Transfer(mesh.Controller(src.Channel), f.node(src), packet.ControlFlitsFor(), c.lane.Then(mcReadCmd))
}

// meshCopy is one MeshFabric.Copy in flight. Records are recycled
// through the fabric's pool. A copy's steps run one after another in one
// lane, so a steady stream of GC copies allocates nothing.
type meshCopy struct {
	f        *MeshFabric
	src, dst ChipID
	from     [1]flash.PPA // the source page, as Chip.Read takes it
	to       flash.PPA
	done     func()
	token    flash.Token
	reg      int

	lane sim.Lane[meshCopyStep] // bound c.run
}

// meshCopyStep names a mesh copy's steps.
type meshCopyStep uint8

const (
	mcReadCmd meshCopyStep = iota // read command at the source chip
	mcSensed                      // page in the source's register
	mcArrived                     // payload at the destination node
	mcVPage                       // destination register claimed
	mcCommit                      // on-die ECC done: commit
	mcFinish                      // the copy's last event
)

func (c *meshCopy) run() {
	f := c.f
	switch c.lane.Step {
	case mcReadCmd:
		f.grid.Chip(c.src).Read(c.from[:], c.lane.Then(mcSensed))
	case mcSensed:
		// Send the page from the source node to the destination.
		c.token = f.grid.Chip(c.src).PageRegister(c.from[0].Plane)
		f.m.Transfer(f.node(c.src), f.node(c.dst), packet.DataFlitsFor(f.pageSize), c.lane.Then(mcArrived))
	case mcArrived:
		// Park the payload at the destination: the mesh has no
		// control-plane reservation, so it stalls until a V-page
		// register frees.
		f.grid.Chip(c.dst).WaitVPage(&c.reg, c.lane.Then(mcVPage))
	case mcVPage:
		// Store the payload in the claimed register; on-die ECC runs
		// before the commit.
		f.grid.Chip(c.dst).SetVPage(c.reg, c.token)
		f.eng.Schedule(OnDieEccLatency, c.lane.Then(mcCommit))
	case mcCommit:
		f.grid.Chip(c.dst).ProgramFromVPage(c.reg, c.to, c.lane.Then(mcFinish))
	case mcFinish:
		c.finishStep()
	}
}

// finishStep is the copy's last event: the record goes back to the pool
// and done runs.
func (c *meshCopy) finishStep() {
	f, done := c.f, c.done
	c.done = nil
	f.copies.Put(c)
	if done != nil {
		done()
	}
}
