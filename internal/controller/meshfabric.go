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
	reads    readOps
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
	f.reads = readOps{grid: grid, soc: soc, pageSize: pageSize, ret: f.returnRead}
	return f
}

// Name implements Fabric.
func (f *MeshFabric) Name() string { return f.name }

// Grid implements Fabric.
func (f *MeshFabric) Grid() *Grid { return f.grid }

// Mesh exposes the fabric's mesh for instrumentation.
func (f *MeshFabric) Mesh() *mesh.Mesh { return f.m }

func (f *MeshFabric) node(id ChipID) mesh.Node { return mesh.Node{X: id.Way, Y: id.Channel} }

// Read implements Fabric: command packet to the chip, tR, data packet back
// to the row's controller, ECC, SoC hop.
func (f *MeshFabric) Read(id ChipID, ppas []flash.PPA, done func()) {
	r := f.reads.get(id, ppas, done)
	f.m.Transfer(mesh.Controller(id.Channel), f.node(id), packet.ControlFlitsFor(), r.sense)
}

// returnRead sends the data packet back to the row's controller.
func (f *MeshFabric) returnRead(r *readOp) {
	f.m.Transfer(f.node(r.id), mesh.Controller(r.id.Channel), packet.DataFlitsFor(r.n), r.xfer)
}

// Write implements Fabric: SoC hop, then one command+payload packet stream
// to the chip, then tPROG.
func (f *MeshFabric) Write(id ChipID, ops []flash.ProgramOp, done func()) {
	chip := f.grid.Chip(id)
	node := f.node(id)
	ctrl := mesh.Controller(id.Channel)
	n := totalBytes(f.pageSize, len(ops))
	f.soc.Transfer(n, func() {
		f.eng.Schedule(EccLatency, func() {
			f.m.Transfer(ctrl, node, packet.ControlFlitsFor()+packet.DataFlitsFor(n), func() {
				chip.Program(ops, done)
			})
		})
	})
}

// Erase implements Fabric.
func (f *MeshFabric) Erase(id ChipID, blocks []flash.PPA, done func()) {
	chip := f.grid.Chip(id)
	f.m.Transfer(mesh.Controller(id.Channel), f.node(id), packet.ControlFlitsFor(), func() {
		chip.Erase(blocks, done)
	})
}

// Copy implements Fabric: the mesh does provide flash-to-flash
// connectivity, so a GC copy sends the read command from the controller,
// then moves the payload directly from source to destination node and
// commits with an on-die program — the same capability pnSSD has, paid
// for with multi-hop link occupancy.
func (f *MeshFabric) Copy(src ChipID, from flash.PPA, dst ChipID, to flash.PPA, done func()) {
	srcChip, dstChip := f.grid.Chip(src), f.grid.Chip(dst)
	srcNode, dstNode := f.node(src), f.node(dst)
	n := f.pageSize
	f.m.Transfer(mesh.Controller(src.Channel), srcNode, packet.ControlFlitsFor(), func() {
		srcChip.Read([]flash.PPA{from}, func() {
			token := srcChip.PageRegister(from.Plane)
			f.m.Transfer(srcNode, dstNode, packet.DataFlitsFor(n), func() {
				// The mesh has no control-plane reservation: the payload
				// stalls at the destination until a V-page register frees.
				dstChip.WaitVPage(func(reg int) {
					f.commit(dstChip, reg, token, to, done)
				})
			})
		})
	})
}

func (f *MeshFabric) commit(dstChip *flash.Chip, reg int, token flash.Token, to flash.PPA, done func()) {
	dstChip.SetVPage(reg, token)
	f.eng.Schedule(OnDieEccLatency, func() {
		dstChip.ProgramFromVPage(reg, to, done)
	})
}
