package fault

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// DeviceEvent is one whole-device availability event in an array-level
// failure schedule: a permanent kill (the device stops accepting new
// requests at At and never recovers) or a transient outage (the device
// rejects new requests in [At, Until) and then resumes). Events are part
// of the configuration, so two runs with the same schedule observe
// byte-identical failure behavior — the same property the per-draw
// Injector guarantees for its classes.
type DeviceEvent struct {
	// Device is the array-wide device index the event applies to.
	Device int
	// At is when the event takes effect.
	At sim.Time
	// Transient selects a bounded outage instead of a permanent kill.
	Transient bool
	// Until is the exclusive end of a transient outage; ignored for kills.
	Until sim.Time
}

// String renders the event for logs and failure messages.
func (e DeviceEvent) String() string {
	if e.Transient {
		return fmt.Sprintf("dev%d transient [%v,%v)", e.Device, e.At, e.Until)
	}
	return fmt.Sprintf("dev%d killed at %v", e.Device, e.At)
}

// DeviceSchedule answers availability queries over a fixed set of device
// events. Like the Injector, a nil *DeviceSchedule is valid and reports
// every device healthy, so un-faulted arrays need no conditional wiring.
type DeviceSchedule struct {
	kills    map[int]sim.Time // device -> kill time (earliest)
	outages  map[int][]DeviceEvent
	killList []DeviceEvent // kills in (At, Device) order
	nOutages int
}

// Validate reports a negative device index, a negative time, or an
// empty transient window.
func (e DeviceEvent) Validate() error {
	switch {
	case e.Device < 0:
		return fmt.Errorf("fault: negative device index %d", e.Device)
	case e.At < 0:
		return fmt.Errorf("fault: negative event time %v", e.At)
	case e.Transient && e.Until <= e.At:
		return fmt.Errorf("fault: empty transient window [%v,%v)", e.At, e.Until)
	}
	return nil
}

// NewDeviceSchedule validates and indexes a failure schedule. An event
// that fails DeviceEvent.Validate panics with its error.
func NewDeviceSchedule(events []DeviceEvent) *DeviceSchedule {
	s := &DeviceSchedule{kills: make(map[int]sim.Time), outages: make(map[int][]DeviceEvent)}
	for _, e := range events {
		if err := e.Validate(); err != nil {
			panic(err)
		}
		if e.Transient {
			s.outages[e.Device] = append(s.outages[e.Device], e)
			s.nOutages++
			continue
		}
		if t, ok := s.kills[e.Device]; !ok || e.At < t {
			s.kills[e.Device] = e.At
		}
		s.killList = append(s.killList, e)
	}
	sort.Slice(s.killList, func(i, j int) bool {
		if s.killList[i].At != s.killList[j].At {
			return s.killList[i].At < s.killList[j].At
		}
		return s.killList[i].Device < s.killList[j].Device
	})
	return s
}

// DeadAt reports whether the device is permanently failed at time t.
func (s *DeviceSchedule) DeadAt(dev int, t sim.Time) bool {
	if s == nil {
		return false
	}
	at, ok := s.kills[dev]
	return ok && t >= at
}

// KilledAt returns the device's kill time, if it has one.
func (s *DeviceSchedule) KilledAt(dev int) (sim.Time, bool) {
	if s == nil {
		return 0, false
	}
	at, ok := s.kills[dev]
	return at, ok
}

// UnavailableAt reports whether the device is inside a transient outage
// at time t, and if so when the outage ends.
func (s *DeviceSchedule) UnavailableAt(dev int, t sim.Time) (until sim.Time, out bool) {
	if s == nil {
		return 0, false
	}
	for _, e := range s.outages[dev] {
		if t >= e.At && t < e.Until {
			if !out || e.Until > until {
				until = e.Until
				out = true
			}
		}
	}
	return until, out
}

// AvailableAt reports whether the device accepts new requests at time t —
// neither killed nor inside a transient window.
func (s *DeviceSchedule) AvailableAt(dev int, t sim.Time) bool {
	if s.DeadAt(dev, t) {
		return false
	}
	_, out := s.UnavailableAt(dev, t)
	return !out
}

// Kills returns the permanent failures in (time, device) order.
func (s *DeviceSchedule) Kills() []DeviceEvent {
	if s == nil {
		return nil
	}
	return s.killList
}

// Outages returns the number of transient windows in the schedule.
func (s *DeviceSchedule) Outages() int {
	if s == nil {
		return 0
	}
	return s.nOutages
}

// RandomOutages draws n seed-driven transient windows over [0, horizon):
// each picks a device, a start, and a duration up to maxDur from a
// splitmix64 stream, so the same (seed, devices, n, horizon, maxDur)
// always yields the same schedule — the device-failure analogue of the
// Injector's per-class draws.
func RandomOutages(seed uint64, devices, n int, horizon, maxDur sim.Time) []DeviceEvent {
	if devices <= 0 || n <= 0 || horizon <= 0 || maxDur <= 0 {
		return nil
	}
	mix := func(x uint64) uint64 {
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
		return x
	}
	out := make([]DeviceEvent, 0, n)
	for i := 0; i < n; i++ {
		base := seed + uint64(i)*0x9E3779B97F4A7C15
		dev := int(mix(base) % uint64(devices))
		at := sim.Time(mix(base+1) % uint64(horizon))
		dur := 1 + sim.Time(mix(base+2)%uint64(maxDur))
		out = append(out, DeviceEvent{Device: dev, At: at, Transient: true, Until: at + dur})
	}
	return out
}
