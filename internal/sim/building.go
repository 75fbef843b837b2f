// Package sim provides the experiment harness: synthetic buildings, the
// Section 5 CAPA scenario, and the experiment registry (Experiments), whose
// entries each name in their Claim the paper section, figure or subsystem
// promise they reproduce. cmd/scibench runs the registry; the package
// tests run it at Quick scale.
package sim

import (
	"fmt"

	"sci/internal/location"
)

// Building is a synthetic multi-floor building in all three location
// models, standing in for the paper's Livingstone Tower deployment.
//
// Each floor is: lobby — corridor — room1 … roomN, with a stairwell linking
// corridors of adjacent floors. Every inter-place link has a named door.
type Building struct {
	// Map is the ground truth.
	Map *location.Map
	// Floors and RoomsPerFloor echo the generator parameters.
	Floors, RoomsPerFloor int
	// Rooms[f] lists floor f's room place ids.
	Rooms [][]location.PlaceID
	// Corridors[f] is floor f's corridor.
	Corridors []location.PlaceID
	// Lobbies[f] is floor f's lift lobby.
	Lobbies []location.PlaceID
	// DoorOf names the door sensor on the link into each room.
	DoorOf map[location.PlaceID]string
}

// NewBuilding generates a building ("campus/tower/...").
func NewBuilding(floors, roomsPerFloor int) (*Building, error) {
	if floors < 1 || roomsPerFloor < 1 {
		return nil, fmt.Errorf("sim: need at least one floor and one room, got %d×%d", floors, roomsPerFloor)
	}
	b := &Building{
		Floors:        floors,
		RoomsPerFloor: roomsPerFloor,
		Rooms:         make([][]location.PlaceID, floors),
		DoorOf:        make(map[location.PlaceID]string),
	}
	var places []location.Place
	var links []location.Link
	for f := 0; f < floors; f++ {
		frame := fmt.Sprintf("F%d", f)
		floorPath := location.Path(fmt.Sprintf("campus/tower/f%d", f))

		lobby := location.PlaceID(fmt.Sprintf("f%d.lobby", f))
		corr := location.PlaceID(fmt.Sprintf("f%d.corridor", f))
		b.Lobbies = append(b.Lobbies, lobby)
		b.Corridors = append(b.Corridors, corr)
		places = append(places,
			location.Place{ID: lobby, Path: floorPath + "/lobby",
				Centroid: location.Point{Frame: frame, X: 0, Y: 0}, Kind: "lobby"},
			location.Place{ID: corr, Path: floorPath + "/corridor",
				Centroid: location.Point{Frame: frame, X: 10, Y: 0}, Kind: "corridor"},
		)
		lobbyDoor := fmt.Sprintf("d.f%d.lobby", f)
		links = append(links, location.Link{A: lobby, B: corr, Door: lobbyDoor})
		b.DoorOf[corr] = lobbyDoor

		for r := 0; r < roomsPerFloor; r++ {
			room := location.PlaceID(fmt.Sprintf("f%d.r%02d", f, r))
			b.Rooms[f] = append(b.Rooms[f], room)
			places = append(places, location.Place{
				ID:   room,
				Path: floorPath + location.Path(fmt.Sprintf("/r%02d", r)),
				Centroid: location.Point{
					Frame: frame, X: 20 + 10*float64(r/2), Y: 8 * float64(r%2),
				},
				Kind: "room",
			})
			door := fmt.Sprintf("d.f%d.r%02d", f, r)
			links = append(links, location.Link{A: corr, B: room, Door: door})
			b.DoorOf[room] = door
		}
		if f > 0 {
			links = append(links, location.Link{
				A: b.Corridors[f-1], B: corr, Weight: 8,
				Door: fmt.Sprintf("d.stairs.%d-%d", f-1, f),
			})
		}
	}
	m, err := location.NewMap(places, links)
	if err != nil {
		return nil, fmt.Errorf("sim: building map: %w", err)
	}
	b.Map = m
	return b, nil
}

// FloorPath returns the hierarchical path of floor f.
func (b *Building) FloorPath(f int) location.Path {
	return location.Path(fmt.Sprintf("campus/tower/f%d", f))
}

// atPlace is a tiny alias used by tests.
func atPlace(p location.PlaceID) location.Ref { return location.AtPlace(p) }
