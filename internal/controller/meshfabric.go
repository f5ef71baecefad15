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
	copies   []*meshCopy // recycled Copy records
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
	f.m.Transfer(mesh.Controller(id.Channel), f.node(id), packet.ControlFlitsFor(), r.sense)
}

// returnRead sends the data packet back to the row's controller.
func (f *MeshFabric) returnRead(r *fabricOp) {
	f.m.Transfer(f.node(r.id), mesh.Controller(r.id.Channel), packet.DataFlitsFor(r.n), r.xfer)
}

// Write implements Fabric: SoC hop, then one command+payload packet stream
// to the chip, then tPROG.
func (f *MeshFabric) Write(id ChipID, ops []flash.ProgramOp, done func()) {
	w := f.fops.write(id, ops, done)
	f.soc.Transfer(w.n, w.ecc)
}

// deliverWrite sends the command+payload packet stream to the chip.
func (f *MeshFabric) deliverWrite(w *fabricOp) {
	f.m.Transfer(mesh.Controller(w.id.Channel), f.node(w.id), packet.ControlFlitsFor()+packet.DataFlitsFor(w.n), w.program)
}

// Erase implements Fabric.
func (f *MeshFabric) Erase(id ChipID, blocks []flash.PPA, done func()) {
	r := f.fops.get(id, done)
	r.ppas = blocks
	f.m.Transfer(mesh.Controller(id.Channel), f.node(id), packet.ControlFlitsFor(), r.erase)
}

// Copy implements Fabric: the mesh does provide flash-to-flash
// connectivity, so a GC copy sends the read command from the controller,
// then moves the payload directly from source to destination node and
// commits with an on-die program — the same capability pnSSD has, paid
// for with multi-hop link occupancy.
func (f *MeshFabric) Copy(src ChipID, from flash.PPA, dst ChipID, to flash.PPA, done func()) {
	var c *meshCopy
	if k := len(f.copies); k > 0 {
		c = f.copies[k-1]
		f.copies = f.copies[:k-1]
	} else {
		c = &meshCopy{f: f}
		c.readCmd, c.sensed, c.arrived, c.commit, c.finish = c.readCmdStep, c.sensedStep, c.arrivedStep, c.commitStep, c.finishStep
		c.vpage = c.vpageStep
	}
	c.src, c.from[0], c.dst, c.to, c.done = src, from, dst, to, done
	f.m.Transfer(mesh.Controller(src.Channel), f.node(src), packet.ControlFlitsFor(), c.readCmd)
}

// meshCopy is one MeshFabric.Copy in flight. Records are recycled
// through the fabric's free list and every step is a method value bound
// once, so a steady stream of GC copies allocates nothing.
type meshCopy struct {
	f        *MeshFabric
	src, dst ChipID
	from     [1]flash.PPA // the source page, as Chip.Read takes it
	to       flash.PPA
	done     func()
	token    flash.Token
	reg      int

	readCmd, sensed, arrived, commit, finish func() // bound steps
	vpage                                    func(reg int)
}

func (c *meshCopy) readCmdStep() { c.f.grid.Chip(c.src).Read(c.from[:], c.sensed) }

// sensedStep sends the page from the source node to the destination.
func (c *meshCopy) sensedStep() {
	f := c.f
	c.token = f.grid.Chip(c.src).PageRegister(c.from[0].Plane)
	f.m.Transfer(f.node(c.src), f.node(c.dst), packet.DataFlitsFor(f.pageSize), c.arrived)
}

// arrivedStep parks the payload at the destination: the mesh has no
// control-plane reservation, so it stalls until a V-page register frees.
func (c *meshCopy) arrivedStep() { c.f.grid.Chip(c.dst).WaitVPage(c.vpage) }

// vpageStep stores the payload in the claimed register; on-die ECC runs
// before the commit.
func (c *meshCopy) vpageStep(reg int) {
	c.reg = reg
	c.f.grid.Chip(c.dst).SetVPage(reg, c.token)
	c.f.eng.Schedule(OnDieEccLatency, c.commit)
}

func (c *meshCopy) commitStep() { c.f.grid.Chip(c.dst).ProgramFromVPage(c.reg, c.to, c.finish) }

// finishStep is the copy's last event: the record goes back on the free
// list and done runs.
func (c *meshCopy) finishStep() {
	f, done := c.f, c.done
	c.done = nil
	f.copies = append(f.copies, c)
	if done != nil {
		done()
	}
}
