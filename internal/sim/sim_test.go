package sim

import (
	"strings"
	"testing"
	"time"
)

func TestNewBuilding(t *testing.T) {
	b, err := NewBuilding(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	// 3 floors × (lobby + corridor + 6 rooms) places.
	if got := len(b.Map.Places()); got != 3*8 {
		t.Fatalf("places = %d", got)
	}
	// Rooms reachable from every lobby (cross-floor too).
	if _, err := b.Map.ShortestRoute(
		atPlace(b.Lobbies[0]), atPlace(b.Rooms[2][5])); err != nil {
		t.Fatalf("cross-floor route: %v", err)
	}
	// Every room has a named door.
	for f := range b.Rooms {
		for _, r := range b.Rooms[f] {
			if b.DoorOf[r] == "" {
				t.Fatalf("room %s without door", r)
			}
		}
	}
	if b.FloorPath(1) != "campus/tower/f1" {
		t.Fatal("FloorPath wrong")
	}
	if _, err := NewBuilding(0, 5); err == nil {
		t.Fatal("zero floors accepted")
	}
}

// TestExperiments runs every registered experiment at Quick scale; a
// failed bar fails its subtest.
func TestExperiments(t *testing.T) {
	for _, e := range Experiments {
		t.Run(e.Name, func(t *testing.T) {
			if testing.Short() && (e.Name == "e1" || e.Name == "e16") {
				t.Skip("builds whole overlays and fleets")
			}
			tables, err := e.Run(Quick, 42)
			for _, tbl := range tables {
				t.Log("\n" + tbl.String())
				if len(tbl.Rows) == 0 {
					t.Errorf("table %q has no rows", tbl.Title)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
		})
	}
}

func TestWaitUntilNamesWhatTimedOut(t *testing.T) {
	err := waitUntil(5*time.Millisecond, "the impossible", func() bool { return false })
	if err == nil || !strings.Contains(err.Error(), "the impossible") {
		t.Fatalf("err = %v, want a timeout naming what it waited for", err)
	}
	if err := waitUntil(time.Second, "already true", func() bool { return true }); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{
		Title:  "test",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"xxxxxxxx", "1"}},
	}
	s := tbl.String()
	if !strings.Contains(s, "long-header") || !strings.Contains(s, "xxxxxxxx") {
		t.Fatalf("render = %q", s)
	}
}
