// Package sensor provides the simulated device substrate standing in for
// the physical sensors of the paper's deployment (door-mounted ID badge
// readers, W-LAN base stations detecting PDAs, temperature probes and
// printers).
//
// The substitution preserves the behaviour that matters to the middleware:
// the infrastructure only ever sees typed events arriving through the same
// CE interfaces a hardware driver would use, so discovery, registration,
// composition and dissemination exercise identical code paths.
// internal/mobility drives these sensors from a simulated world; the
// experiments in internal/sim (each entry's Claim names what it reproduces)
// and the tests drive them directly.
//
// Every sensor is a Context Entity (embeds entity.Base) with a truthful
// Profile, so the Query Resolver can discover and bind them.
package sensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"sci/internal/clock"
	"sci/internal/ctxtype"
	"sci/internal/entity"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/profile"
)

// DoorSensor models a door-mounted badge reader: "doorSensor CEs produce
// events indicating when an object (equipped with ID tag) passes through
// them" (Section 3.2).
type DoorSensor struct {
	*entity.Base
	door string
}

// NewDoorSensor builds the sensor for a named door. clk may be nil.
func NewDoorSensor(door string, at location.Ref, clk clock.Clock) *DoorSensor {
	prof := profile.Profile{
		Name:     "door-" + door,
		Outputs:  []ctxtype.Type{ctxtype.LocationSightingDoor},
		Quality:  0.9,
		Location: at,
		Attributes: map[string]string{
			"kind": "door-sensor",
			"door": door,
		},
	}
	s := &DoorSensor{door: door}
	s.Base = entity.NewBase(guid.KindDevice, prof, clk)
	return s
}

// Door returns the door name.
func (s *DoorSensor) Door() string { return s.door }

// Sight reports a badge passing through the door into the given place,
// emitting a location.sighting.door event for the badge's wearer.
func (s *DoorSensor) Sight(badge guid.GUID, entering location.PlaceID) error {
	return s.Emit(ctxtype.LocationSightingDoor, badge, map[string]any{
		"door":  s.door,
		"place": string(entering),
	})
}

// BaseStation models a W-LAN access point whose effective operating range
// defines a Range boundary (Section 3: "the effective operating range of a
// particular network type"). It produces coarse sightings for devices
// entering its cell and departure notices for devices leaving it.
type BaseStation struct {
	*entity.Base
	cell map[location.PlaceID]location.Ref

	mu      sync.Mutex
	present map[guid.GUID]location.PlaceID
}

// NewBaseStation builds a station covering the given places.
func NewBaseStation(name string, cell []location.PlaceID, at location.Ref, clk clock.Clock) *BaseStation {
	prof := profile.Profile{
		Name:     "basestation-" + name,
		Outputs:  []ctxtype.Type{ctxtype.LocationSightingWLAN},
		Quality:  0.6, // cell-level precision only
		Location: at,
		Attributes: map[string]string{
			"kind": "basestation",
		},
	}
	s := &BaseStation{
		cell:    make(map[location.PlaceID]location.Ref, len(cell)),
		present: make(map[guid.GUID]location.PlaceID),
	}
	for _, p := range cell {
		s.cell[p] = location.AtPlace(p)
	}
	s.Base = entity.NewBase(guid.KindDevice, prof, clk)
	return s
}

// Covers reports whether the station's cell includes the place.
func (s *BaseStation) Covers(p location.PlaceID) bool {
	_, ok := s.cell[p]
	return ok
}

// Observe reports a device's current place. Entering the cell emits a WLAN
// sighting; leaving it emits a departure-flagged sighting. Movement within
// the cell re-emits (signal strength changes would, too).
func (s *BaseStation) Observe(device guid.GUID, at location.PlaceID) error {
	inCell := s.Covers(at)
	s.mu.Lock()
	prev, wasPresent := s.present[device]
	switch {
	case inCell:
		s.present[device] = at
	case wasPresent:
		delete(s.present, device)
	}
	s.mu.Unlock()

	switch {
	case inCell && (!wasPresent || prev != at):
		return s.Emit(ctxtype.LocationSightingWLAN, device, map[string]any{
			"place":   string(at),
			"entered": !wasPresent,
		})
	case !inCell && wasPresent:
		return s.Emit(ctxtype.LocationSightingWLAN, device, map[string]any{
			"place": string(prev),
			"left":  true,
		})
	}
	return nil
}

// Present returns the devices currently in the cell, sorted.
func (s *BaseStation) Present() []guid.GUID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]guid.GUID, 0, len(s.present))
	for d := range s.present {
		out = append(out, d)
	}
	guid.Sort(out)
	return out
}

// TemperatureSensor emits periodic Kelvin readings (interpreters downstream
// convert to Celsius — exercising the type-conversion path).
type TemperatureSensor struct {
	*entity.Base
	mu   sync.Mutex
	base float64 // Kelvin baseline
	amp  float64
	rng  *rand.Rand
	tick int
}

// NewTemperatureSensor builds a probe with a sinusoidal daily cycle plus
// seeded noise around base Kelvin.
func NewTemperatureSensor(name string, at location.Ref, baseKelvin, amplitude float64, seed int64, clk clock.Clock) *TemperatureSensor {
	prof := profile.Profile{
		Name:     "thermo-" + name,
		Outputs:  []ctxtype.Type{ctxtype.TemperatureKelvin},
		Quality:  0.8,
		Location: at,
		Attributes: map[string]string{
			"kind": "temperature-sensor",
		},
	}
	s := &TemperatureSensor{
		base: baseKelvin,
		amp:  amplitude,
		rng:  rand.New(rand.NewSource(seed)),
	}
	s.Base = entity.NewBase(guid.KindDevice, prof, clk)
	return s
}

// Read produces the next reading without emitting.
func (s *TemperatureSensor) Read() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tick++
	cycle := s.amp * math.Sin(float64(s.tick)/24*2*math.Pi)
	noise := (s.rng.Float64() - 0.5) * 0.4
	return s.base + cycle + noise
}

// Tick reads and emits one sample.
func (s *TemperatureSensor) Tick() error {
	return s.Emit(ctxtype.TemperatureKelvin, guid.Nil, map[string]any{
		"value": s.Read(),
		"unit":  "kelvin",
	})
}

// PrinterState enumerates printer availability.
type PrinterState string

// Printer states (the Section 5 CAPA scenario distinguishes busy, out of
// paper, and idle printers).
const (
	PrinterIdle       PrinterState = "idle"
	PrinterBusy       PrinterState = "busy"
	PrinterOutOfPaper PrinterState = "out-of-paper"
)

// Printer models a print device: a CE with a "printer" advertisement whose
// submit operation queues jobs, and whose profile attributes (status,
// queue) track live state so Which-clause constraints see the truth.
type Printer struct {
	*entity.Base

	mu    sync.Mutex
	state PrinterState
	queue []string
	jobs  int
}

// NewPrinter builds an idle printer at the given location.
func NewPrinter(name string, at location.Ref, clk clock.Clock) *Printer {
	prof := profile.Profile{
		Name:     name,
		Outputs:  []ctxtype.Type{ctxtype.PrinterStatus},
		Location: at,
		Attributes: map[string]string{
			"kind":   "printer",
			"status": string(PrinterIdle),
			"queue":  "0",
		},
		Advertisement: &profile.Advertisement{
			Interface:  "printer",
			Operations: []string{"submit", "status", "complete"},
		},
	}
	p := &Printer{state: PrinterIdle}
	p.Base = entity.NewBase(guid.KindDevice, prof, clk)
	return p
}

// State returns the current availability.
func (p *Printer) State() PrinterState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state
}

// QueueLen returns the number of queued jobs.
func (p *Printer) QueueLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// SetOutOfPaper toggles the paper condition (the P2 scenario).
func (p *Printer) SetOutOfPaper(out bool) {
	p.mu.Lock()
	if out {
		p.state = PrinterOutOfPaper
	} else if len(p.queue) > 0 {
		p.state = PrinterBusy
	} else {
		p.state = PrinterIdle
	}
	p.mu.Unlock()
	p.syncProfile()
	p.emitStatus()
}

// Submit queues a document; it fails when the printer is out of paper.
func (p *Printer) Submit(doc string) (jobID string, err error) {
	p.mu.Lock()
	if p.state == PrinterOutOfPaper {
		p.mu.Unlock()
		return "", fmt.Errorf("sensor: printer %s is out of paper", p.Profile().Name)
	}
	p.jobs++
	jobID = fmt.Sprintf("job-%d", p.jobs)
	p.queue = append(p.queue, jobID)
	p.state = PrinterBusy
	p.mu.Unlock()
	p.syncProfile()
	p.emitStatus()
	return jobID, nil
}

// CompleteOne finishes the oldest queued job (the simulated print engine).
func (p *Printer) CompleteOne() (jobID string, ok bool) {
	p.mu.Lock()
	if len(p.queue) == 0 {
		p.mu.Unlock()
		return "", false
	}
	jobID = p.queue[0]
	p.queue = p.queue[1:]
	if len(p.queue) == 0 && p.state == PrinterBusy {
		p.state = PrinterIdle
	}
	p.mu.Unlock()
	p.syncProfile()
	p.emitStatus()
	return jobID, true
}

// Serve implements the "printer" advertisement.
func (p *Printer) Serve(op string, args map[string]any) (map[string]any, error) {
	switch op {
	case "submit":
		doc, _ := args["doc"].(string)
		if doc == "" {
			return nil, fmt.Errorf("sensor: submit needs doc")
		}
		id, err := p.Submit(doc)
		if err != nil {
			return nil, err
		}
		return map[string]any{"job": id}, nil
	case "status":
		p.mu.Lock()
		defer p.mu.Unlock()
		return map[string]any{
			"status": string(p.state),
			"queue":  len(p.queue),
		}, nil
	case "complete":
		id, ok := p.CompleteOne()
		if !ok {
			return nil, fmt.Errorf("sensor: queue empty")
		}
		return map[string]any{"job": id}, nil
	default:
		return nil, fmt.Errorf("%w: %q", entity.ErrNoService, op)
	}
}

// Prime re-emits the current status (configuration.Primer): new
// subscribers get an immediate snapshot.
func (p *Printer) Prime() { p.emitStatus() }

// syncProfile mirrors live state into profile attributes.
func (p *Printer) syncProfile() {
	p.mu.Lock()
	state := p.state
	qlen := len(p.queue)
	p.mu.Unlock()
	p.UpdateProfile(func(prof *profile.Profile) {
		prof.Attributes["status"] = string(state)
		prof.Attributes["queue"] = fmt.Sprintf("%d", qlen)
	})
}

// emitStatus publishes the printer.status event (and a profile.update so
// the Range re-reads attributes).
func (p *Printer) emitStatus() {
	p.mu.Lock()
	state := p.state
	qlen := len(p.queue)
	p.mu.Unlock()
	_ = p.Emit(ctxtype.PrinterStatus, guid.Nil, map[string]any{
		"status": string(state),
		"queue":  qlen,
	})
	_ = p.Emit(ctxtype.ProfileUpdate, p.ID(), map[string]any{
		"status": string(state),
		"queue":  qlen,
	})
}

var (
	_ entity.CE = (*DoorSensor)(nil)
	_ entity.CE = (*BaseStation)(nil)
	_ entity.CE = (*TemperatureSensor)(nil)
	_ entity.CE = (*Printer)(nil)
)
