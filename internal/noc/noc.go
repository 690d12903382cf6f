// Package noc models the switched on-chip network connecting cores and LLC
// banks: a Width x Height mesh with XY (dimension-ordered) routing, a fixed
// per-hop latency, and per-directed-link serialisation booked on one
// reservation calendar per link (package timeline). The paper's
// configuration (Table I) is a 4x4 mesh with one core and one 2MB ReRAM
// bank per tile.
package noc

import (
	"fmt"

	"repro/internal/timeline"
)

// Direction indexes the four outgoing links of a router.
type Direction uint8

const (
	North Direction = iota
	East
	South
	West
	numDirs
)

// Config parameterises the mesh.
type Config struct {
	Width, Height int
	// HopLatency is the router+link traversal time in cycles per hop.
	HopLatency uint32
	// CtrlOccupancy and DataOccupancy are the cycles a link stays busy when
	// a control message (address/request) or a data message (a 64B cache
	// line, serialised into flits) passes over it.
	CtrlOccupancy uint32
	DataOccupancy uint32
}

// DefaultConfig is the paper's 4x4 mesh with 2-cycle hops and 64B lines
// serialised over 16B links.
func DefaultConfig() Config {
	return Config{Width: 4, Height: 4, HopLatency: 2, CtrlOccupancy: 1, DataOccupancy: 4}
}

// Stats accumulates traffic counters.
type Stats struct {
	Messages  uint64
	TotalHops uint64
	// StallCycles accumulates time messages spent waiting for busy links.
	StallCycles uint64
	// OutOfOrder counts link bookings that started before the latest
	// booking already on their link (timeline.Set.OutOfOrder).
	OutOfOrder uint64
}

// Mesh is the network. Not safe for concurrent use.
type Mesh struct {
	cfg   Config
	tiles int
	links timeline.Set // [tile*numDirs + dir]: one calendar per directed link
	// XY routes are fixed by the topology, so the per-hop coordinate
	// arithmetic is evaluated once at construction: routeLinks holds the
	// concatenated link indices of every (from, to) pair's route, and
	// routeStart[from*tiles+to] : routeStart[from*tiles+to+1] brackets one
	// route. Traverse then walks a precomputed link list instead of
	// re-deriving coordinates and directions per hop per message.
	routeStart []int32
	routeLinks []int32
	stats      Stats
	san        sanState // flit-conservation counters; zero-size without the simcheck tag
}

// New validates cfg and builds the mesh.
func New(cfg Config) (*Mesh, error) {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, fmt.Errorf("noc: non-positive mesh dimensions %dx%d", cfg.Width, cfg.Height)
	}
	if cfg.HopLatency == 0 {
		return nil, fmt.Errorf("noc: zero hop latency")
	}
	if cfg.CtrlOccupancy == 0 || cfg.DataOccupancy == 0 {
		return nil, fmt.Errorf("noc: zero link occupancy")
	}
	t := cfg.Width * cfg.Height
	m := &Mesh{cfg: cfg, tiles: t, links: timeline.NewSet(t * int(numDirs))}
	m.buildRoutes()
	return m, nil
}

// buildRoutes precomputes the XY route of every (from, to) pair as a flat
// list of directed-link indices into links.
func (m *Mesh) buildRoutes() {
	m.routeStart = make([]int32, m.tiles*m.tiles+1)
	m.routeLinks = make([]int32, 0, m.tiles*m.tiles*(m.cfg.Width+m.cfg.Height)/2)
	for from := 0; from < m.tiles; from++ {
		for to := 0; to < m.tiles; to++ {
			m.routeStart[from*m.tiles+to] = int32(len(m.routeLinks))
			x, y := m.coord(from)
			tx, ty := m.coord(to)
			for x != tx || y != ty {
				var dir Direction
				switch {
				case x < tx:
					dir = East
					x++
				case x > tx:
					dir = West
					x--
				case y < ty:
					dir = South
					y++
				default:
					dir = North
					y--
				}
				prev := tileAt(x, y, dir, m.cfg.Width)
				m.routeLinks = append(m.routeLinks, int32(prev*int(numDirs)+int(dir)))
			}
		}
	}
	m.routeStart[m.tiles*m.tiles] = int32(len(m.routeLinks))
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Mesh {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the construction parameters.
func (m *Mesh) Config() Config { return m.cfg }

// Tiles returns the number of tiles.
func (m *Mesh) Tiles() int { return m.tiles }

// Stats returns a copy of the counters.
func (m *Mesh) Stats() Stats { return m.stats.withOutOfOrder(m.links.OutOfOrder()) }

func (s Stats) withOutOfOrder(n uint64) Stats {
	s.OutOfOrder = n
	return s
}

// ResetStats zeroes the counters; link bookings survive.
func (m *Mesh) ResetStats() {
	m.stats = Stats{}
	m.links.ResetCounts()
}

// Advance declares that no message will depart before cycle now, so the
// link calendars may drop bookings that have ended (timeline.Set).
func (m *Mesh) Advance(now uint64) { m.links.Advance(now) }

// coord splits a tile id into (x, y).
func (m *Mesh) coord(tile int) (x, y int) {
	return tile % m.cfg.Width, tile / m.cfg.Width
}

// Hops returns the Manhattan distance between two tiles.
func (m *Mesh) Hops(from, to int) int {
	fx, fy := m.coord(from)
	tx, ty := m.coord(to)
	return abs(fx-tx) + abs(fy-ty)
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

// Traverse routes one message from tile 'from' to tile 'to', departing no
// earlier than 'start', and returns the arrival cycle at the destination.
// Each hop books its link for 'occupancy' cycles in the earliest free gap
// at or after the message reaches it, then takes HopLatency cycles.
// Routing is XY: fully along the X dimension first, then Y, which is
// deadlock-free on a mesh. A same-tile message arrives immediately (local
// bank access).
//
//lint:hotpath
func (m *Mesh) Traverse(from, to int, start uint64, occupancy uint32) uint64 {
	if from < 0 || from >= m.tiles || to < 0 || to >= m.tiles {
		panic(fmt.Sprintf("noc: tile out of range: %d -> %d (tiles=%d)", from, to, m.tiles))
	}
	if from == to {
		m.sanCheckTraverse(from, to, start, start, 0)
		return start
	}
	m.stats.Messages++
	now := start
	occ := uint64(occupancy)
	hop := uint64(m.cfg.HopLatency)
	var stall uint64
	pair := from*m.tiles + to
	for _, li := range m.routeLinks[m.routeStart[pair]:m.routeStart[pair+1]] {
		depart := m.links.Reserve(int(li), now, occ)
		stall += depart - now
		now = depart + hop
		m.stats.TotalHops++
	}
	m.stats.StallCycles += stall
	m.sanCheckTraverse(from, to, start, now, stall)
	return now
}

// tileAt recovers the tile a message departed from, given the tile it
// stepped to (x,y) and the direction it moved.
func tileAt(x, y int, dir Direction, width int) int {
	switch dir {
	case East:
		return y*width + (x - 1)
	case West:
		return y*width + (x + 1)
	case South:
		return (y-1)*width + x
	default: // North
		return (y+1)*width + x
	}
}

// CtrlTraverse is Traverse with the control-message occupancy.
func (m *Mesh) CtrlTraverse(from, to int, start uint64) uint64 {
	return m.Traverse(from, to, start, m.cfg.CtrlOccupancy)
}

// DataTraverse is Traverse with the data-message occupancy.
func (m *Mesh) DataTraverse(from, to int, start uint64) uint64 {
	return m.Traverse(from, to, start, m.cfg.DataOccupancy)
}

// MinLatency returns the contention-free latency between two tiles for
// planning purposes (hops x hop latency).
func (m *Mesh) MinLatency(from, to int) uint64 {
	return uint64(m.Hops(from, to)) * uint64(m.cfg.HopLatency)
}
